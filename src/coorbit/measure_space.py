"""Finite models of the index space (X, mu) and of the signal space.

The signal space is a uniform periodic-style grid on [-T, T); the index
space is a weighted point cloud with a (semi-)metric.  Everything downstream
(transforms, kernels, coverings) integrates against these quadratures in a
fixed deterministic order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class GridError(ValueError):
    """Invalid grid construction input."""


# ---------------------------------------------------------------------------
# signal grid
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SignalGrid:
    """Uniform grid t_k = -T + k*h, k = 0..n-1, with h = 2T/n.

    n must be a power of two (>= 8) so FFT-based oracles apply directly.
    The quadrature weight is uniformly h; integrating the constant 1
    returns 2T exactly up to rounding.
    """

    half_width: float
    n: int

    def __post_init__(self):
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise GridError(f"signal grid size must be a power of two >= 8, got {self.n}")
        if self.half_width <= 0:
            raise GridError("signal half width must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def points(self) -> np.ndarray:
        return -self.half_width + self.h * np.arange(self.n)

    @property
    def nyquist(self) -> float:
        return np.pi / self.h

    def fft_freqs(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def rfft_freqs(self) -> np.ndarray:
        """The n/2 + 1 non-negative FFT frequencies, Nyquist last."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.h)

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """L2 quadrature inner product <f, g> = h * sum f conj(g)."""
        return complex(self.h * np.sum(f * np.conj(g)))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(self.h * np.sum(np.abs(f) ** 2)))


# ---------------------------------------------------------------------------
# index-space quadrature
# ---------------------------------------------------------------------------
def euclidean_metric(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between two point blocks."""
    diff = p[:, None, :] - q[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature discretization of the index space.

    points:  (M, d) coordinates
    weights: (M,) strictly positive mu-quadrature weights
    bounds:  (d, 2) bounding box
    metric:  callable (P, Q) -> pairwise distance matrix; symmetric, zero
             on the diagonal (semi-metric allowed)
    structure: optional layout metadata: the scale bands of a banded
             wavelet grid, which its coverings follow; the axes of a
             tensor grid (`build_quad_grid`)
    """

    points: np.ndarray
    weights: np.ndarray
    bounds: np.ndarray
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray] = euclidean_metric
    structure: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise GridError("points/weights length mismatch")
        if pts.shape[0] == 0:
            raise GridError("empty quadrature grid")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise GridError("quadrature weights must be strictly positive and finite")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def measure(self) -> float:
        return float(np.sum(self.weights))


def integrate(values: np.ndarray, grid: QuadGrid) -> complex:
    """Quadrature of a sampled function: sum_k F(x_k) w_k in index order."""
    values = np.asarray(values)
    if values.shape[0] != grid.size:
        raise GridError(f"value list length {values.shape[0]} != grid size {grid.size}")
    return complex(np.dot(grid.weights, values))


def _axis_cells(lo: float, hi: float, res: int):
    if res < 1:
        raise GridError(f"resolution must be >= 1 per axis, got {res}")
    if not hi > lo:
        raise GridError(f"empty box: [{lo}, {hi}]")
    edges = np.linspace(lo, hi, res + 1)
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def build_quad_grid(bounds: Sequence[Sequence[float]], resolution: Sequence[int] | int,
                    measure="lebesgue", metric=euclidean_metric) -> QuadGrid:
    """Tensor-product midpoint rule on a box of equal cells per axis.

    measure: "lebesgue" or a callable density evaluated at cell midpoints.
    Weights are density(midpoint) * cell volume; nonpositive densities are
    rejected.  Nodes run through the axes in C order (the last axis
    fastest).  `structure` records the layout: "axes", each axis's
    midpoints, and "widths", its cell widths; and "density", the density
    as a float, when it takes one value at every midpoint, so that the
    weight of node (i, j, ...) is density * widths[0][i] * widths[1][j]
    * ...
    """
    bounds = np.atleast_2d(np.asarray(bounds, dtype=float))
    d = bounds.shape[0]
    if np.isscalar(resolution):
        resolution = [int(resolution)] * d
    if len(resolution) != d:
        raise GridError("resolution must give one entry per axis")

    per_axis = [_axis_cells(bounds[k, 0], bounds[k, 1], int(resolution[k]))
                for k in range(d)]
    mesh = np.meshgrid(*[m for m, _ in per_axis], indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    vol_mesh = np.meshgrid(*[w for _, w in per_axis], indexing="ij")
    volumes = np.prod(np.stack([v.ravel() for v in vol_mesh], axis=-1), axis=-1)

    if measure == "lebesgue":
        density = np.ones(points.shape[0])
    elif callable(measure):
        density = np.asarray(measure(points), dtype=float)
    else:
        raise GridError(f"unknown measure descriptor {measure!r}")
    if np.any(density <= 0) or not np.all(np.isfinite(density)):
        raise GridError("measure density must be positive and finite at all midpoints")

    structure = {"axes": [m for m, _ in per_axis],
                 "widths": [w for _, w in per_axis]}
    if np.all(density == density[0]):
        structure["density"] = float(density[0])
    return QuadGrid(points=points, weights=density * volumes, bounds=bounds,
                    metric=metric, structure=structure)


# ---------------------------------------------------------------------------
# weights on X and admissible weights on X x X
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WeightOnX:
    """Strictly positive weight w on the index space."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    descriptor: str = "custom"

    def __call__(self, points: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.evaluator(np.atleast_2d(points)), dtype=float)
        return vals


def trivial_weight() -> WeightOnX:
    return WeightOnX(lambda p: np.ones(p.shape[0]), descriptor="trivial")


def polynomial_weight(s: float) -> WeightOnX:
    """w(x) = (1 + |x|)^s with |x| the Euclidean norm of the coordinates."""
    def ev(p):
        return (1.0 + np.sqrt(np.sum(p * p, axis=-1))) ** s
    return WeightOnX(ev, descriptor=f"polynomial(s={s})")


@dataclass(frozen=True)
class AdmissibleWeight:
    """Symmetric submultiplicative weight m >= 1 on X x X.

    `trivial` marks m = 1 by construction (only `trivial_admissible_weight`
    sets it), so a norm can skip evaluating and multiplying by it.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str = "custom"
    trivial: bool = False

    def __call__(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.atleast_2d(p), np.atleast_2d(q)), dtype=float)


def trivial_admissible_weight() -> AdmissibleWeight:
    def ev(p, q):
        return np.ones((p.shape[0], q.shape[0]))
    return AdmissibleWeight(ev, descriptor="trivial", trivial=True)


def weight_from_w(w: WeightOnX) -> AdmissibleWeight:
    """Associated weight m(x,y) = max{w(x)/w(y), w(y)/w(x)}.

    Exactly symmetric, submultiplicative and >= 1 for any positive w.
    """
    def ev(p, q):
        wp = w(p)[:, None]
        wq = w(q)[None, :]
        if np.any(wp <= 0) or np.any(wq <= 0):
            raise GridError("weight_from_w requires a strictly positive weight")
        return np.maximum(wp / wq, wq / wp)
    return AdmissibleWeight(ev, descriptor=f"associated({w.descriptor})")


@dataclass(frozen=True)
class AdmissibilityReport:
    submult_violation: float
    symmetry_violation: float
    lower_bound_violation: float     # max(0, 1 - min m)
    diag_max: float
    triple_samples: int

    @property
    def max_violation(self) -> float:
        return max(self.submult_violation, self.symmetry_violation,
                   self.lower_bound_violation)


def check_admissible(m: AdmissibleWeight, grid: QuadGrid,
                     triple_samples: int = 200, seed: int = 0) -> AdmissibilityReport:
    """Numerical admissibility audit of m on the grid.

    Symmetry, the lower bound m >= 1 and the diagonal bound are checked on
    all grid pairs (in row blocks); submultiplicativity on seeded random
    triples.  Violations are reported, never raised.
    """
    if triple_samples < 1:
        raise GridError("triple_samples must be >= 1")
    pts = grid.points
    M = pts.shape[0]
    sym_viol = 0.0
    min_val = np.inf
    diag_max = 0.0
    block = max(1, 262144 // max(M, 1))
    for start in range(0, M, block):
        rows = pts[start:start + block]
        vals = m(rows, pts)
        vals_t = m(pts, rows)
        sym_viol = max(sym_viol, float(np.max(np.abs(vals - vals_t.T))))
        min_val = min(min_val, float(np.min(vals)))
        diag_max = max(diag_max, float(np.max(np.diagonal(vals, offset=start))))
    rng = np.random.default_rng(np.random.PCG64(seed))
    ix = rng.integers(0, M, size=(triple_samples, 3))
    x, y, z = pts[ix[:, 0]], pts[ix[:, 1]], pts[ix[:, 2]]
    m_xy = np.diagonal(m(x, y))
    m_xz = np.diagonal(m(x, z))
    m_zy = np.diagonal(m(z, y))
    submult = float(np.max(np.maximum(m_xy - m_xz * m_zy, 0.0)))
    return AdmissibilityReport(
        submult_violation=submult,
        symmetry_violation=sym_viol,
        lower_bound_violation=max(0.0, 1.0 - min_val),
        diag_max=diag_max,
        triple_samples=triple_samples,
    )


def derived_v(m: AdmissibleWeight, z: np.ndarray) -> WeightOnX:
    """Weight v(x) = m(x, z) for a fixed base point z.

    A different base point gives an equivalent weight: the ratio is bounded
    by m(z, z').
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))

    def ev(p):
        return m(p, z)[:, 0]
    return WeightOnX(ev, descriptor=f"derived_v({m.descriptor})")
