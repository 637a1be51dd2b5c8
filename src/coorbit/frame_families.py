"""Built-in continuous frames over computable index spaces.

Five families: Gabor (short-time Fourier atoms), 1-d continuous wavelets on
the (position, scale) half-plane, bandlimited reproducing kernels on the
periodized line, inhomogeneous wavelets with a dedicated low-pass sheet, and
alpha-modulation atoms interpolating between the Gabor and wavelet regimes.

Conventions, fixed once for the whole engine:
  * Fourier transform fhat(w) = integral f(t) exp(-iwt) dt, so
    ||fhat||^2 = 2*pi*||f||^2.
  * Gabor / alpha-modulation index measure carries a 1/(2*pi) factor, which
    makes the unit-Gaussian Gabor family tight with constant 1.
  * Wavelet admissibility is normalized per frequency sign:
    integral_0^inf |psihat(u)|^2 du/u = 1, which makes the half-plane family
    and the inhomogeneous family tight with constant 1.
  * Atoms carry their family's field: float64 for the real atoms of the
    wavelet, inhomogeneous-wavelet and bandlimited families, complex128 for
    the modulation families.  Every product built from them (S, the
    Gramian factors) takes the atoms' dtype, with one exception: S is real
    only on a mirror-closed separable grid.  A Gabor family with a real
    window has conj(M_w T_x g) = M_{-w} T_x g, so on a tensor grid whose
    frequency axis and widths are bitwise symmetric, S, its eigenpairs and
    the half map are float64 while the atoms and the Gramian factors C,
    C^H stay complex128 (`FrameCalculus.mirror`, read off the axis
    factors).  The alpha-modulation family is complex everywhere.

The n x M atom matrix of an index grid (the atoms at its M nodes) is
formed only where a product needs every atom: the generic path of the
frame operator S and the half factor C = P Psi (`FrameCalculus`), and
the public `analyze_V`, `frame_operator_apply` and
`localization.empirical_pseudoinverse`.  A Gabor family
declares its atoms separable, psi_(x, w)(t) = g(t - x) e^{iwt}
(`FrameFamily.separable`), and on a tensor grid of constant density
(`build_quad_grid`'s `structure`) with node weights a_x b_w the quadrature
form of Walnut's representation,

    S(t, t') = h [sum_x a_x g(t - x) conj(g(t' - x))]
                 [sum_w b_w e^{iw(t - t')}],

builds S from two n x n Grams, and C = P Psi is formed one position block
at a time, (P * g(. - x)) V with V the modulations: no atom matrix.  Every
family analyzes against the canonical dual frame and synthesizes with it
through the rank-r factor, W f = h C^H (P f) and
S^+ Psi (w u) = P^H C (w u); the frame bounds, the sampled frame and the
batteries synthesize only their probe, sample and battery atoms.

The torus phase variable of the modulation families is dropped; atoms are
indexed by (position, frequency) alone.  All norms and reconstruction
operators are invariant under that quotient; the oscillation module accounts
for it when comparing kernel values (see `phase_quotient`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._linalg import PROBE_GRAM_CUT, HermitianEig, hermitian_gram, \
    psd_factorize, restricted_rayleigh_bounds
from .kernel_algebra import Kernel, _on_pool
from .measure_space import GridError, QuadGrid, SignalGrid, build_quad_grid, \
    euclidean_metric

TWO_PI = 2.0 * np.pi
_ATOM_COLS = 256             # columns of one synthesized or mapped atom block
_MAP_ENTRIES = 1 << 18       # entries of one position block's stacked maps
COVERAGE_TARGET = 4e-4       # L2 coverage error of a wavelet scale margin


class FamilyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# window / wavelet profiles
# ---------------------------------------------------------------------------
def gaussian_window(t: np.ndarray) -> np.ndarray:
    """Unit-norm Gaussian, ||g||_{L2} = 1."""
    return _gaussian(t)


def mexican_hat(t: np.ndarray) -> np.ndarray:
    """(1 - t^2) exp(-t^2/2) scaled so that int_0^inf |psihat(u)|^2 du/u = 1."""
    return _mexican_hat(t)


# the profiles as the synthesis blocks call them: a pool worker calls no
# public function of the package
def _gaussian(t: np.ndarray) -> np.ndarray:
    return np.pi ** (-0.25) * np.exp(-0.5 * t * t)


def _mexican_hat(t: np.ndarray) -> np.ndarray:
    return np.pi ** (-0.5) * (1.0 - t * t) * np.exp(-0.5 * t * t)


class GaussDerivProfile:
    """Derivative-of-Gaussian wavelet spectrum, |psihat(u)|^2 = c |u|^{2k} e^{-u^2}.

    c = 2/Gamma(k) normalizes the one-sided admissibility integral to 1, and
    the scale CDF has the closed form Theta(v) = P(k, v^2) (regularized lower
    incomplete gamma), for integer k the finite sum
    P(k, x) = 1 - e^(-x) sum_{j<k} x^j / j!.  The polynomial low-frequency
    rise keeps the time tails Gaussian; k = 2 is the Mexican hat.
    """

    def __init__(self, order: int):
        if order < 1:
            raise FamilyError("wavelet order must be >= 1")
        self.order = int(order)
        log_gamma = math.log(math.factorial(self.order - 1))
        self._sqrt_c = np.exp(0.5 * (np.log(2.0) - log_gamma))

    def spectrum(self, u: np.ndarray) -> np.ndarray:
        au = np.abs(np.asarray(u, dtype=float))
        return self._sqrt_c * au ** self.order * np.exp(-0.5 * au * au)

    def theta(self, v: np.ndarray) -> np.ndarray:
        """Theta(|v|) = int_0^|v| |psihat(u)|^2 du/u, in [0, 1]."""
        v = np.abs(np.asarray(v, dtype=float))
        x = v * v
        term = np.ones_like(x)
        partial = np.ones_like(x)
        for j in range(1, self.order):
            term = term * x / j
            partial = partial + term
        return 1.0 - np.exp(-x) * partial


@functools.lru_cache(maxsize=None)
def _coverage_log_margin(order: int) -> float:
    """Smallest symmetric log-scale margin with coverage error at most
    `COVERAGE_TARGET` for the profile of this order.

    The scale truncation acts as a Fourier multiplier theta on a probe
    atom at log-distance M from the cut; the margin controls the L2
    error ||(1 - theta) f|| <= target, i.e. the squared multiplier
    deficit integrated against the atom content.  It depends on the
    order alone and is computed once per order (`validate` and `run`
    both need it).
    """
    profile = GaussDerivProfile(order)
    v = np.geomspace(1e-3, 60.0, 4000)
    w = profile.spectrum(v) ** 2
    mass = np.trapezoid(w / v, v)

    def err(m):
        lost = (1.0 - profile.theta(np.exp(m) * v)) + profile.theta(np.exp(-m) * v)
        return float(np.sqrt(np.trapezoid(w * lost ** 2 / v, v) / mass))

    lo, hi = 0.1, 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if err(mid) > COVERAGE_TARGET else (lo, mid)
    return hi


# ---------------------------------------------------------------------------
# family container
# ---------------------------------------------------------------------------
class IndexDomain(NamedTuple):
    """A family's default index box and its quadrature rule,
    grid(bounds, resolution, band_spacing, scales_per_octave) -> QuadGrid."""

    bounds: list
    grid: Callable[..., QuadGrid]


@dataclass
class FrameFamily:
    """Evaluable atom map x -> psi_x over a truncated signal grid.

    `atom_fn(points, threads)` returns the (n, N) atoms at N points.  The
    built-in families compute their tables once per call on the calling
    thread (the Gabor window per distinct position, the modulation per
    distinct frequency, the wavelet spectrum per distinct scale) and then
    fill one C-ordered output in column blocks of `_ATOM_COLS` on `threads`
    (`_fill_columns`): a block only gathers, multiplies, exponentiates or
    inverse-FFTs its columns, calling numpy and private helpers alone.
    Every entry comes from the same elementwise operations whatever the
    block, so the atoms do not depend on `threads`.

    The constructor sets the geometry of the index space: `index_domain`
    (`default_index_grid`); `interior_rule(box)`, which shrinks a copy of
    a box to the interior in place and returns diagnostics for its empty
    axes (`interior_box`); `log_axes`, the axes drawn log-uniformly
    (`random_interior_points`); `lowpass_sheet`, whether scale coordinates
    <= 0 form an interior low-pass sheet; and `frame_info()`, its own
    entries of the frame-info report.  A family whose atoms factor
    pointwise over the index axes, psi_x(t) = f_0(x_0)(t) f_1(x_1)(t) ...,
    declares the factors (`separable`), a tuple of callables: f_k(values)
    returns the (n, len(values)) signal-domain factors at the axis-k
    coordinates `values`, entry by entry (one column per value, computed
    by the same operations whatever the other values), on the calling
    thread.  Gabor declares psi_(x, w) = T_x g * e^{iw.}.  The wavelet,
    bandlimited and alpha-modulation families (the last dilates its
    window by the frequency) declare nothing.  Conjugation symmetry, and
    with it a real S, is read off the separable factors alone
    (`FrameCalculus.mirror`): alpha-modulation is complex everywhere.
    """

    tag: str
    signal_grid: SignalGrid
    params: dict
    phase_quotient: bool
    # (N, d) points, threads -> (n, N) atoms
    atom_fn: Callable[[np.ndarray, int], np.ndarray]
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray]
    index_domain: IndexDomain
    interior_rule: Callable[[np.ndarray], list]
    log_axes: tuple
    # per-axis factor callables, or None
    separable: Optional[tuple] = None
    lowpass_sheet: bool = False
    frame_info: Callable[[], dict] = dict
    _ops: dict = field(default_factory=dict, repr=False)

    def atoms(self, points: np.ndarray, threads: int = 1) -> np.ndarray:
        return self.atom_fn(np.atleast_2d(np.asarray(points, dtype=float)),
                            threads)

    def atom(self, point) -> np.ndarray:
        return self.atoms(np.atleast_2d(point))[:, 0]

    def calculus(self, grid: QuadGrid) -> "FrameCalculus":
        # keyed by id(grid): safe, as the cached FrameCalculus holds its grid
        op = self._ops.get(id(grid))
        if op is None:
            op = FrameCalculus(self, grid)
            if len(self._ops) > 6:
                self._ops.clear()
            self._ops[id(grid)] = op
        return op

    def interior_box(self, bounds) -> np.ndarray:
        """The index box `bounds` (a grid's `bounds`) shrunk to the
        family's interior (`interior_rule`): the probe/battery region.
        Raises FamilyError when the box is empty on some axis, with the
        rule's diagnostics when it gives any."""
        box = np.array(bounds, dtype=float)
        empty = self.interior_rule(box) or [
            f"index box too small for interior margins on axis {k}"
            for k in range(box.shape[0]) if box[k, 0] >= box[k, 1]]
        if empty:
            raise FamilyError("; ".join(empty))
        return box


class FrameCalculus:
    """Cached analysis/synthesis machinery for one (family, grid) pair.

    The Gramian factors through the kept eigenpairs (Lambda_k, Q_k) of the
    frame operator S:  R = h * C^H C on the grid, with the half factor
    C = P Psi, P = Lambda_k^(-1/2) Q_k^H the half map, of shape (r, M),
    r = rank of the cut.  Every Gramian product runs through C; r is at
    most the signal length n and usually much smaller; no conjugate copy
    of C is cached.  The analysis against the canonical dual frame and the
    dual syntheses run through it too: W f = h C^H (P f) and
    S^+ Psi (w u) = P^H C (w u) (`analyze_dual`, `dual_synthesize`).
    Everything here follows the atoms' field: for a family with real
    atoms (cwt, inhom_wavelet, sinc_rkhs) S, its eigenpairs (a real
    `eigh`), the half map and C are float64.

    S is real only on a mirror-closed separable grid (`mirror`, the node
    permutation sigma, and `mirrored`): the separable path below, with
    real position factors, a frequency axis and widths symmetric bit for
    bit, and frequency factors with v_{-w} = conj(v_w) (Gabor with a real
    window).  Every atom's conjugate is then the atom at the mirrored
    node, with the same weight, so the imaginary parts of S cancel in
    pairs.  S, its eigenpairs and the half map are float64, and C stays
    complex128 with C[:, sigma y] = conj(C[:, y]) bit for bit (one column
    of each pair is mapped, the other is its conjugate), which
    `gram_kernel` passes on to `am_norm` (`Kernel.mirror`).  The generic
    path, alpha-modulation on any grid included, keeps the atoms' field.

    The n x M atom matrix Psi (`atoms`) is formed only on the generic
    path.  A family whose atoms factor over the two index axes
    (`FrameFamily.separable`, Gabor: psi_(x, w) = u_x v_w, u_x = T_x g,
    v_w = e^{iw.}) on a tensor grid of constant density (`_tensor`, from
    `build_quad_grid`'s `structure`), node weights a_x b_w, takes the
    separable path and never forms it:

        S = h (U A U^H) * (V B V^H)     (elementwise; Walnut's form)
        C[:, (x, .)] = (P * u_x) V      (one position block at a time)

    with U, V the axis factors at the axes' midpoints and A, B their
    weights, two n x n Hermitian Grams instead of one over M atoms; on a
    mirror-closed grid S takes the real part, Re(V B V^H) through V's
    float64 view.  Off it, or for any other family, S is one
    `hermitian_gram` of the atoms and C = P Psi (`_map_atoms`).

    The column stages run on the caller's `threads` (`_on_pool`), and
    their bytes do not depend on it: the grid atoms (`atoms`,
    `FrameFamily.atoms`) and C, in column blocks of `_ATOM_COLS`
    (`_map_atoms`) or in position blocks fixed by the shapes
    (`_map_tensor`).  The Grams of S run on `threads` (`s_matrix`); its
    `eigh` runs on the calling thread.
    """

    def __init__(self, family: FrameFamily, grid: QuadGrid):
        self.family = family
        self.grid = grid
        self._atoms: Optional[np.ndarray] = None
        self._s_matrix: Optional[np.ndarray] = None
        self._s_eig: dict[float, HermitianEig] = {}
        self._half_map: dict[float, np.ndarray] = {}
        self._half_factor: dict[float, np.ndarray] = {}

    def atoms(self, threads: int = 1) -> np.ndarray:
        """The atom matrix Psi, the atoms at the grid's nodes, (n, M),
        synthesized on `threads` by the first call and cached.  The
        separable path (`_tensor`) never calls it."""
        if self._atoms is None:
            self._atoms = self.family.atoms(self.grid.points, threads)
        return self._atoms

    @property
    def atom_matrix(self) -> np.ndarray:
        return self.atoms()

    def node_atoms(self, nodes: np.ndarray, threads: int = 1) -> np.ndarray:
        """The atoms at the grid nodes `nodes`, (n, len(nodes)), C-ordered:
        columns of the atom matrix when it is formed, otherwise synthesized
        at those nodes alone on `threads`.  A family computes each atom
        column by the same elementwise operations whatever the other
        points, so both give the same bytes."""
        if self._atoms is not None:
            return np.take(self._atoms, nodes, axis=1)
        return self.family.atoms(self.grid.points[nodes], threads)

    @functools.cached_property
    def _tensor(self) -> Optional[tuple]:
        """(U, a, V, b) when the family's atoms factor over the grid's two
        axes (`FrameFamily.separable`) and the grid is a tensor grid of
        constant density (`build_quad_grid`'s `structure`) whose nodes and
        weights are exactly that layout: U, V the axis factors at the
        axes' midpoints, a = density * widths[0] and b = widths[1], so that
        node i * V.shape[1] + j has the atom U[:, i] * V[:, j] and the
        weight density * (widths[0][i] * widths[1][j]).  Otherwise None,
        the generic path.  Read from the recorded axes, never by a search
        for distinct coordinates."""
        sep, st = self.family.separable, self.grid.structure
        if sep is None or "density" not in st or len(sep) != 2 \
                or len(st["axes"]) != 2:
            return None
        (x, y), (dx, dy) = st["axes"], st["widths"]
        pts, density = self.grid.points, st["density"]
        if not (np.array_equal(pts[:, 0], np.repeat(x, y.size))
                and np.array_equal(pts[:, 1], np.tile(y, x.size))
                and self.grid.weights.tobytes()
                == (density * np.multiply.outer(dx, dy).ravel()).tobytes()):
            return None
        return sep[0](x), density * dx, sep[1](y), dy

    @functools.cached_property
    def mirror(self) -> Optional[np.ndarray]:
        """The node permutation sigma of (x, w) -> (x, -w), when S is real
        by it: the grid takes the separable path (`_tensor`), the position
        factors U are real, the frequency axis and its widths are
        symmetric bit for bit, and the frequency factors satisfy
        V[:, ::-1] = conj(V), so that the atom at (x, -w) is the conjugate
        of the atom at (x, w) and carries the same weight.  sigma reverses
        the frequency index inside each position block.  Otherwise None.
        Decided once per grid, with no tolerance."""
        if self._tensor is None:
            return None
        u, _, v, _ = self._tensor
        st = self.grid.structure
        w, dw = st["axes"][1], st["widths"][1]
        if not (np.isrealobj(u) and np.array_equal(w, -w[::-1])
                and dw.tobytes() == dw[::-1].tobytes()
                and np.array_equal(v[:, ::-1], np.conj(v))):
            return None
        nx, nw = u.shape[1], v.shape[1]
        return (np.arange(nx)[:, None] * nw + np.arange(nw)[::-1]).ravel()

    @property
    def mirrored(self) -> bool:
        """Whether S is real by the family's conjugation symmetry on this
        grid (`mirror`)."""
        return self.mirror is not None

    def analyze(self, f: np.ndarray) -> np.ndarray:
        """V f on the grid: <f, psi_x> by signal-grid quadrature, for one
        signal or a block of columns.  Taken as conj(Psi^T conj(f)), so no
        conjugate copy of the atom matrix is made."""
        h = self.family.signal_grid.h
        return h * np.conj(self.atom_matrix.T @ np.conj(f))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """V*_mu: integral F(y) psi_y dmu(y); columns handled in batch."""
        w = self.grid.weights
        if coeffs.ndim > 1:
            return self.atom_matrix @ (w[:, None] * coeffs)
        return self.atom_matrix @ (w * coeffs)

    def frame_apply(self, f: np.ndarray) -> np.ndarray:
        return self.synthesize(self.analyze(f))

    def analyze_dual(self, f: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        """W f = V(S^+ f) on the grid, S^+ the spectral pseudo-inverse at
        relative cut `rel_cut`: analysis against the canonical dual frame,
        through the half factor, h Psi^H P^H P f = h C^H (P f)
        (`half_adjoint`), for one signal or a block of columns."""
        h = self.family.signal_grid.h
        return h * self.half_adjoint(self.half_map(rel_cut) @ f, rel_cut)

    def s_matrix(self, threads: int = 1) -> np.ndarray:
        """The quadrature frame operator S = h Psi W Psi^H, (n, n), exactly
        Hermitian and cached, in the atoms' dtype, or float64 when the grid
        is `mirrored`; its Grams run on `threads` (`hermitian_gram`).

        Separable atoms on a tensor grid (`_tensor`): S = h (U A U^H) *
        (V B V^H), the elementwise product of two exactly Hermitian Grams
        over the axis factors, so exactly Hermitian; on a mirrored grid
        V B V^H enters by its real part, V's float64 view
        [Re v_w, Im v_w] with every weight repeated.  The atom matrix is
        not formed.  Otherwise one Gram of the atoms, in their dtype."""
        if self._s_matrix is None:
            h = self.family.signal_grid.h
            if self._tensor is not None:
                u, a, v, b = self._tensor
                if self.mirror is not None:
                    v, b = _real_view(v), np.repeat(b, 2)
                self._s_matrix = hermitian_gram(u, a, h, threads) * \
                    hermitian_gram(v, b, 1.0, threads)
            else:
                self._s_matrix = hermitian_gram(self.atoms(threads),
                                                self.grid.weights, h, threads)
        return self._s_matrix

    def s_eig(self, rel_cut: float = 1e-10) -> HermitianEig:
        eig = self._s_eig.get(rel_cut)
        if eig is None:
            eig = psd_factorize(self.s_matrix(), rel_cut=rel_cut)
            self._s_eig[rel_cut] = eig
        return eig

    def s_pinv(self, f: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        return self.s_eig(rel_cut).apply_pinv(f)

    def half_map(self, rel_cut: float = 1e-10) -> np.ndarray:
        """P = Lambda_k^(-1/2) Q_k^H, shape (r, n): atoms to half-factor
        columns."""
        p = self._half_map.get(rel_cut)
        if p is None:
            eig = self.s_eig(rel_cut)
            q = eig.eigvecs[:, eig.kept] / np.sqrt(eig.eigvals[eig.kept])[None, :]
            p = np.ascontiguousarray(q.conj().T)
            self._half_map[rel_cut] = p
        return p

    def half_factor(self, rel_cut: float = 1e-10, threads: int = 1) -> np.ndarray:
        """C = P Psi on the grid, shape (r, M), cached once per cut: S and
        the map on `threads`.  Separable atoms on a tensor grid
        (`_tensor`) take one position block of nodes at a time,
        C[:, (x, .)] = (P * u_x) V (`_map_tensor`), and form no atom;
        otherwise the atoms, then P Psi in column blocks (`_map_atoms`),
        where P has the atoms' field.  On a mirrored grid the real P
        multiplies the frequencies' float64 view."""
        c = self._half_factor.get(rel_cut)
        if c is None:
            self.s_matrix(threads)          # the atoms or axis factors and S
            p = self.half_map(rel_cut)
            if self._tensor is not None:
                u, _, v, _ = self._tensor
                # the Gabor conjugation w -> -w keeps the position and
                # reverses the ascending frequency axis of a mirrored grid
                c = _map_tensor(p, u, v, self.mirror is not None, threads)
            else:
                c = _map_atoms(p, self.atom_matrix, threads)
            self._half_factor[rel_cut] = c
        return c

    def u_factor(self, rel_cut: float = 1e-10) -> np.ndarray:
        """Left Gramian factor C^H, shape (M, r): R = h * (u_factor @ C)
        on the grid, a new conjugate copy of C on each call.  Products
        with a thin operand take `half_adjoint` instead."""
        return self.half_factor(rel_cut).conj().T

    def half_adjoint(self, x: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        """C^H x for one r-vector or a block of columns, taken as
        conj(C^T conj(x)), so no conjugate copy of C is made."""
        return np.conj(self.half_factor(rel_cut).T @ np.conj(x))

    def half_synthesize(self, F: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        """integral F(y) C_y dmu(y): C applied to the mu-weighted field(s)."""
        w = self.grid.weights
        return self.half_factor(rel_cut) @ (w[:, None] * F if F.ndim > 1 else w * F)

    def dual_synthesize(self, F: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        """integral F(y) S^+ psi_y dmu(y), the synthesis against the
        canonical dual frame, for one field or a block of columns: through
        the half factor, S^+ Psi (w F) = P^H C (w F) (`half_synthesize`),
        so no atom is synthesized."""
        p = self.half_map(rel_cut)
        return np.conj(p.T @ np.conj(self.half_synthesize(F, rel_cut)))


def _real_view(z: np.ndarray) -> np.ndarray:
    """The (n, 2M) float64 view [Re z_j, Im z_j] of a complex (n, M) array;
    a copy only when its rows are not contiguous."""
    return np.ascontiguousarray(z).view(np.float64)


def _map_atoms(p: np.ndarray, psi: np.ndarray, threads: int = 1) -> np.ndarray:
    """p @ psi, one GEMM per column block (`_column_blocks`) on `threads`
    (`_on_pool`), each written into its columns of one output.  A real map
    on complex atoms (`gram_kernel`'s column factor on a mirror-closed
    Gabor grid, whose P is real) multiplies blocks of the atoms' float64
    view and reads the output back as complex128 without a copy; the half
    factor's P always has the atoms' field.  The blocks depend on the
    column count alone, so the bytes do not depend on `threads`."""
    real_view = np.isrealobj(p) and np.iscomplexobj(psi)
    x = _real_view(psi) if real_view else psi
    width = 2 if real_view else 1       # columns of x per atom
    out = np.empty((p.shape[0], x.shape[1]), dtype=np.result_type(p, x))

    def work(block):
        cols = slice(width * block[0], width * block[1])
        np.matmul(p, x[:, cols], out=out[:, cols])

    _on_pool(_column_blocks(psi.shape[1]), threads, work)
    return out.view(np.complex128) if real_view else out


def _map_tensor(p: np.ndarray, u: np.ndarray, v: np.ndarray,
                flip: bool = False, threads: int = 1) -> np.ndarray:
    """p @ Psi for the tensor atoms Psi[:, i * V + j] = u[:, i] * v[:, j]
    (V = v.shape[1]), without forming Psi: the columns of position i are
    (p * u[:, i]) @ v, one GEMM written straight into them.  A block of
    positions (`_position_blocks`) forms its weighted maps p * u[:, i] as
    one temporary; the blocks run on `threads` (`_on_pool`), so at most
    `threads` blocks' temporaries are in flight.  A real p * u on complex
    v multiplies v's float64 view, and the output is read as complex128.

    `flip`, for real p and u, declares v[:, V - 1 - j] = conj(v[:, j]):
    the GEMMs then take the columns j <= V - 1 - j alone, and each other
    column is the conjugate of its partner's, C[:, (i, V - 1 - j)] =
    conj(C[:, (i, j)]) by construction, whatever the GEMM's rounding at
    the edges of its tiles.  The blocks depend on the shapes alone, so the
    bytes do not depend on `threads`."""
    r, n = p.shape
    nx, nv = u.shape[1], v.shape[1]
    half = nv - nv // 2 if flip else nv         # the columns the GEMMs take
    real_view = np.isrealobj(p) and np.isrealobj(u) and np.iscomplexobj(v)
    x = _real_view(v[:, :half]) if real_view else v[:, :half]
    ut = np.ascontiguousarray(u.T)                # u[:, i] as contiguous rows
    out = np.empty((r, nx, nv), dtype=np.result_type(p, u, v))
    # position i's columns as an (r, V) matrix of row stride nx * V
    dest = (out.view(np.float64) if real_view else out).transpose(1, 0, 2)

    def work(block):
        i0, i1 = block
        lhs = p[None, :, :] * ut[i0:i1, None, :]                # (k, r, n)
        np.matmul(lhs, x, out=dest[i0:i1, :, :x.shape[1]])
        if flip:
            np.conjugate(out[:, i0:i1, :nv // 2],
                         out=out[:, i0:i1, half:][:, :, ::-1])

    _on_pool(_position_blocks(nx, half, r * n), threads, work)
    return out.reshape(r, nx * nv)


def _position_blocks(positions: int, width: int, map_size: int) -> list:
    """[(start, stop)] cutting range(positions) at the multiples of k
    positions: k = ceil(_ATOM_COLS / width), so that a block maps at least
    `_ATOM_COLS` atoms of `width` per position, but no more than keeps the
    block's stacked maps, k maps of `map_size` entries, within
    `_MAP_ENTRIES`, and at least 1.  The last block holds the rest."""
    k = max(1, min(-(-_ATOM_COLS // width), _MAP_ENTRIES // map_size))
    cuts = [*range(0, positions, k), positions]
    return list(zip(cuts[:-1], cuts[1:]))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def halfplane_metric(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d((b,a),(b',a')) = |b - b'| + |log(a/a')| on the (scale, position) plane.

    Axis 0 is the scale; a zero scale coordinate encodes the low-pass sheet
    and is treated as scale 1.
    """
    sp = np.where(p[:, 0] > 0, p[:, 0], 1.0)
    sq = np.where(q[:, 0] > 0, q[:, 0], 1.0)
    return np.abs(p[:, None, 1] - q[None, :, 1]) + \
        np.abs(np.log(sp)[:, None] - np.log(sq)[None, :])


def make_circle_metric(half_width: float):
    period = 2.0 * half_width

    def metric(p, q):
        d = np.abs(p[:, None, 0] - q[None, :, 0]) % period
        return np.minimum(d, period - d)
    return metric


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------
def _window_moments(g: np.ndarray, sg: SignalGrid):
    t = sg.points
    mass = sg.h * np.sum(np.abs(g) ** 2)
    mu_t = sg.h * np.sum(t * np.abs(g) ** 2) / mass
    sd_t = np.sqrt(sg.h * np.sum((t - mu_t) ** 2 * np.abs(g) ** 2) / mass)
    ghat = sg.h * np.fft.fft(g)   # |ghat|^2 moments are phase-free
    w = sg.fft_freqs()
    pw = np.abs(ghat) ** 2
    mu_w = np.sum(w * pw) / np.sum(pw)
    sd_w = np.sqrt(np.sum((w - mu_w) ** 2 * pw) / np.sum(pw))
    return sd_t, sd_w


def _gabor_family(params: dict, sg: SignalGrid) -> FrameFamily:
    window = params.get("window", "gaussian")
    if window == "gaussian":
        gfun = gaussian_window
    elif callable(window):
        gfun = window
    else:
        raise FamilyError(f"unknown gabor window {window!r}")
    g = gfun(sg.points)
    gnorm = sg.norm(g)
    if abs(gnorm - 1.0) > 1e-6:
        raise FamilyError(f"gabor window must be L2-normalized, got ||g|| = {gnorm:.6f}")
    sd_t, sd_w = _window_moments(g, sg)
    # 3.2 transform widths: boundary mass ~ Q(3.2) ~ 7e-4 per side, forgiving
    # enough for 1e-3-grade batteries while fitting desk-scale boxes
    margins = np.array([3.2 * np.sqrt(2.0) * sd_t, 3.2 * np.sqrt(2.0) * sd_w])

    t = sg.points

    def interior_rule(box):
        box += np.multiply.outer(margins, [1.0, -1.0])
        return []

    def atom_fn(points, threads=1):
        # the window once per distinct position, the modulation once per
        # distinct frequency, on the calling thread: `gfun` may be public
        xu, ix = _distinct(points[:, 0])
        mod, iw = _modulation(t, points[:, 1])
        win = gfun(t[:, None] - xu[None, :])
        return _modulated(lambda cols: win[:, ix[cols]], mod, iw, threads)

    return FrameFamily(
        tag="gabor", signal_grid=sg, params={"window": window},
        phase_quotient=True, atom_fn=atom_fn, metric=euclidean_metric,
        index_domain=_TF_DOMAIN, interior_rule=interior_rule,
        log_axes=(False, False),
        # psi_(x, w)(t) = g(t - x) e^{iwt}
        separable=(lambda x: gfun(t[:, None] - x[None, :]),
                   lambda w: _exp_iwt(t, w)))


def _distinct(v: np.ndarray):
    """The distinct values of `v` by bit pattern, and each entry's index
    into them."""
    u, inv = np.unique(np.ascontiguousarray(v, dtype=float).view(np.int64),
                       return_inverse=True)
    return u.view(np.float64), inv


def _exp_iwt(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp(i w t) on the signal grid, one column per entry of `w`."""
    arg = 1j * w[None, :] * t[:, None]
    return np.exp(arg, out=arg)


def _modulation(t: np.ndarray, w: np.ndarray):
    """exp(i w t) on the signal grid, one column per distinct frequency
    (`_distinct`), and each point's column."""
    wu, iw = _distinct(w)
    return _exp_iwt(t, wu), iw


def _column_blocks(total: int) -> list:
    """[(start, stop)] cutting range(total) at the multiples of
    `_ATOM_COLS`; a last block of one column joins the one before, since
    numpy would multiply it by GEMV.  The cuts depend on `total` alone and
    fall between whole column tiles of the BLAS kernels, whose widths
    divide `_ATOM_COLS`, so a block's GEMM rounds each column as the GEMM
    over all columns does.  Only OpenBLAS's kernel for real products of at
    most 10^6 multiply-adds can round a small block apart; no shipped
    configuration meets it."""
    cuts = [*range(0, total, _ATOM_COLS), total]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return list(zip(cuts[:-1], cuts[1:]))


def _fill_columns(out: np.ndarray, fill, threads: int) -> np.ndarray:
    """`out` once fill(cols) has written out[:, cols] for every column
    block (`_column_blocks`), on `threads` (`_on_pool`)."""
    _on_pool(_column_blocks(out.shape[1]), threads,
             lambda block: fill(slice(*block)))
    return out


def _modulated(amp, mod: np.ndarray, imod: np.ndarray,
               threads: int) -> np.ndarray:
    """Atoms mod[:, imod] * amp(cols), column block by column block
    (`_fill_columns`): each block's modulation columns are gathered into
    the output and multiplied there by amp(cols), the block's real or
    complex amplitudes, so no full-size gathered copy of either factor is
    made.  The modulation is the left operand: under FMA the order decides
    the sign of an underflowed zero, and this is the order of the
    full-size product amp * exp(...) once numpy reuses its exp
    temporary."""
    out = np.empty((mod.shape[0], imod.size), dtype=mod.dtype)

    def fill(cols):
        blk = out[:, cols]
        np.take(mod, imod[cols], axis=1, out=blk, mode="clip")
        np.multiply(blk, amp(cols), out=blk)

    return _fill_columns(out, fill, threads)


def _spectral_atoms(sg: SignalGrid, spectra: np.ndarray, shifts: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """Real atoms from real even spectra:
    psi(t_k) = (1/2pi) integral S(w) e^{-iwb} e^{iwt_k} dw.

    Midpoint sum over the FFT frequencies; with t_k = -T + kh the spectrum
    picks up the phase e^{-iw(b+T)}.  S is even, so the phased spectrum is
    Hermitian-symmetric: `spectra` holds S on the n/2 + 1 non-negative
    frequencies only (`SignalGrid.rfft_freqs`), and one inverse real FFT
    returns the float64 atoms, the real part of the full inverse FFT, into
    `out` when given.
    """
    w = sg.rfft_freqs()
    spec = spectra * np.exp(-1j * w[:, None] * (shifts[None, :] + sg.half_width))
    atoms = np.fft.irfft(spec, n=sg.n, axis=0, out=out)
    return np.divide(atoms, sg.h, out=atoms)


def _tabled_spectral_atoms(sg: SignalGrid, table: np.ndarray, index: np.ndarray,
                           shifts: np.ndarray, threads: int) -> np.ndarray:
    """`_spectral_atoms` of the spectra table[:, index] at `shifts`, one
    inverse real FFT per column block (`_fill_columns`); the table holds
    each distinct spectrum once."""
    out = np.empty((sg.n, index.size))
    return _fill_columns(out, lambda cols: _spectral_atoms(
        sg, table[:, index[cols]], shifts[cols], out[:, cols]), threads)


def _resolve_wavelet(params: dict) -> tuple[GaussDerivProfile, str]:
    wavelet = params.get("wavelet", "gauss_deriv")
    if wavelet == "mexican_hat":
        return GaussDerivProfile(2), "mexican_hat"
    if wavelet == "gauss_deriv":
        return GaussDerivProfile(int(params.get("order", 6))), "gauss_deriv"
    raise FamilyError(f"unknown wavelet {wavelet!r}")


def _cwt_family(params: dict, sg: SignalGrid) -> FrameFamily:
    profile, name = _resolve_wavelet(params)
    t = sg.points
    w = sg.rfft_freqs()

    if profile.order == 2:
        def atom_fn(points, threads=1):
            a, b = points[:, 0], points[:, 1]
            out = np.empty((t.size, a.size))

            def fill(cols):
                arg = (t[:, None] - b[None, cols]) / a[None, cols]
                np.divide(_mexican_hat(arg), np.sqrt(a[None, cols]),
                          out=out[:, cols])

            return _fill_columns(out, fill, threads)
    else:
        def atom_fn(points, threads=1):
            # the spectrum once per distinct scale
            au, ia = _distinct(points[:, 0])
            spec = np.sqrt(au[None, :]) * profile.spectrum(au[None, :] * w[:, None])
            return _tabled_spectral_atoms(sg, spec, ia, points[:, 1], threads)

    c_psi = _log_admissibility(profile.spectrum)
    if abs(c_psi - 1.0) > 0.01:
        raise FamilyError(
            f"inadmissible wavelet: int_0^inf |psihat|^2 du/u = {c_psi:.4f}, expected 1")
    return _wavelet_family(
        "cwt", sg, {"wavelet": name, "order": profile.order, "c_psi": c_psi,
                    "profile": profile},
        atom_fn, [0.2, 10.5], lowpass=False,
        frame_info=lambda: {"admissibility_c_psi": c_psi})


def _wavelet_family(tag: str, sg: SignalGrid, params: dict, atom_fn,
                    scales: list, lowpass: bool,
                    frame_info: Callable[[], dict] = dict) -> FrameFamily:
    """The (scale, position) geometry of cwt and inhom_wavelet: the interior
    shrinks the scales by the coverage margin in log units (not at the top
    if the low-pass sheet backs it), the positions by 5 sd_t max(a, 1)."""
    profile = params["profile"]
    scale_center = np.sqrt(profile.order)   # content of psi_{a, .} peaks at sqrt(k)/a
    sample = atom_fn(np.array([[scale_center, 0.0]]))[:, 0]
    sd_t = _window_moments(sample / sg.norm(sample), sg)[0] / scale_center
    m_log = _coverage_log_margin(profile.order)
    m_top = 0.0 if lowpass else m_log

    def interior_rule(box):
        (a_lo, a_hi), (b_lo, b_hi) = box
        box[0] = (a_lo * np.exp(m_log), a_hi * np.exp(-m_top))
        need = m_log + m_top
        pos_margin = 5.0 * sd_t * max(box[0, 1], 1.0)
        box[1] = (b_lo + pos_margin, b_hi - pos_margin)
        empty = []
        if box[0, 0] >= box[0, 1]:
            empty.append(
                f"index box too small for interior margins on axis 0: the "
                f"scale bounds [{a_lo:g}, {a_hi:g}] span ln(a_hi / a_lo) = "
                f"{math.log(a_hi / a_lo):.4g}, and the coverage margin of the "
                f"{params['wavelet']} profile (order {profile.order}) "
                f"needs more than {need:.4g} (a_hi / a_lo > {math.exp(need):.4g})")
        if box[1, 0] >= box[1, 1]:
            empty.append(
                f"index box too small for interior margins on axis 1: the "
                f"position bounds [{b_lo:g}, {b_hi:g}] are {b_hi - b_lo:.4g} "
                f"wide, and the position margin 5 sd_t max(a, 1) = "
                f"{pos_margin:.4g} at the interior's largest scale "
                f"a = {box[0, 1]:.4g} needs more than {2.0 * pos_margin:.4g} "
                f"(the default position bounds are +-0.75 T)")
        return empty

    b_half = 0.75 * sg.half_width
    return FrameFamily(
        tag=tag, signal_grid=sg, params=params, phase_quotient=False,
        atom_fn=atom_fn, metric=halfplane_metric,
        index_domain=IndexDomain([scales, [-b_half, b_half]],
                                 functools.partial(_banded_wavelet_grid, lowpass)),
        interior_rule=interior_rule, log_axes=(True, False),
        lowpass_sheet=lowpass, frame_info=frame_info)


def _log_admissibility(spectrum) -> float:
    """One-sided admissibility int_0^inf |psihat(u)|^2 du/u by log quadrature
    on [1e-4, 64]."""
    v = np.linspace(np.log(1e-4), np.log(64.0), 20001)
    u = np.exp(v)
    return float(np.trapezoid(np.abs(spectrum(u)) ** 2, v))


def _sinc_family(params: dict, sg: SignalGrid) -> FrameFamily:
    omega = float(params.get("bandlimit", np.pi / (2 * sg.h)))
    if omega >= sg.nyquist:
        raise FamilyError(
            f"bandlimit {omega:.4f} at or above grid Nyquist {sg.nyquist:.4f}")
    if omega <= 0:
        raise FamilyError("bandlimit must be positive")
    T = sg.half_width
    J = int(np.floor(omega * T / np.pi + 1e-12))
    t = sg.points

    def atom_fn(points, threads=1):
        x = points[:, 0]
        out = np.empty((t.size, x.size))

        def fill(cols):
            u = t[:, None] - x[None, cols]
            num = np.sin((2 * J + 1) * np.pi * u / (2 * T))
            den = np.sin(np.pi * u / (2 * T))
            small = np.abs(den) < 1e-13
            den = np.where(small, 1.0, den)
            np.divide(np.where(small, float(2 * J + 1), num / den), 2 * T,
                      out=out[:, cols])

        return _fill_columns(out, fill, threads)

    metric = make_circle_metric(T)
    return FrameFamily(
        tag="sinc_rkhs", signal_grid=sg,
        params={"bandlimit": omega, "n_freqs": 2 * J + 1},
        phase_quotient=False, atom_fn=atom_fn, metric=metric,
        # the circle with Lebesgue measure, n/4 nodes by default
        index_domain=IndexDomain([[-T, T]], functools.partial(
            _tensor_grid, [sg.n // 4], "lebesgue", metric)),
        # the circle has no boundary, so no margin
        interior_rule=lambda box: [], log_axes=(False,))


def _inhom_family(params: dict, sg: SignalGrid) -> FrameFamily:
    profile, name = _resolve_wavelet(params)
    w = sg.rfft_freqs()

    def phi_spectrum(freq):
        # |phihat|^2 + int_0^1 |psihat(t xi)|^2 dt/t = 1, clamped against rounding
        return np.sqrt(np.clip(1.0 - profile.theta(freq), 0.0, 1.0))

    def atom_fn(points, threads=1):
        # the spectrum once per distinct scale, after the low-pass one in
        # column 0 of the table
        scale = points[:, 0]
        lowpass = scale <= 0.0
        au, ia = _distinct(scale[~lowpass])
        table = np.empty((w.size, 1 + au.size))
        table[:, 0] = phi_spectrum(w)
        table[:, 1:] = np.sqrt(au[None, :]) * profile.spectrum(au[None, :] * w[:, None])
        index = np.zeros(scale.size, dtype=np.intp)
        index[~lowpass] = 1 + ia
        return _tabled_spectral_atoms(sg, table, index, points[:, 1], threads)

    return _wavelet_family(
        "inhom_wavelet", sg,
        {"wavelet": name, "order": profile.order, "profile": profile},
        atom_fn, [0.125, 1.0], lowpass=True)


def _alpha_family(params: dict, sg: SignalGrid) -> FrameFamily:
    alpha = float(params.get("alpha", 0.5))
    if not 0.0 <= alpha < 1.0:
        raise FamilyError(f"alpha must lie in [0, 1), got {alpha}")
    if params.get("window", "gaussian") != "gaussian":
        raise FamilyError("alpha_mod supports the gaussian window only")
    t = sg.points

    def atom_fn(points, threads=1):
        x, w = points[:, 0], points[:, 1]
        s = (1.0 + np.abs(w)) ** (-alpha)
        mod, iw = _modulation(t, w)

        def envelope(cols):
            return _gaussian(t[:, None] / s[None, cols] - x[None, cols]) \
                / np.sqrt(s[None, cols])

        return _modulated(envelope, mod, iw, threads)

    def interior_rule(box):
        # atom bandwidth grows like (1+|w|)^alpha; frequency margins by
        # the fixed point w = edge -/+ 4 (1 + |w|)^alpha
        def inner(edge, pull):
            w = edge
            for _ in range(200):
                w = 0.5 * w + 0.5 * (edge - pull * (1.0 + abs(w)) ** alpha)
            return w

        box[1] = (inner(box[1, 0], -4.0), inner(box[1, 1], 4.0))
        box[0] = (box[0, 0] + 4.0, box[0, 1] - 4.0)
        return []

    def frame_info():
        smin, smax, a_const = alpha_admissibility(gaussian_window(t), alpha,
                                                  np.linspace(-20.0, 20.0, 161), sg)
        return {"alpha_admissibility": {"sigma_min": smin, "sigma_max": smax, "A": a_const}}

    return FrameFamily(
        tag="alpha_mod", signal_grid=sg, params={"alpha": alpha, "window": "gaussian"},
        phase_quotient=True, atom_fn=atom_fn, metric=euclidean_metric,
        index_domain=_TF_DOMAIN, interior_rule=interior_rule,
        log_axes=(False, False),
        frame_info=frame_info)


_BUILDERS = {
    "gabor": _gabor_family,
    "cwt": _cwt_family,
    "sinc_rkhs": _sinc_family,
    "inhom_wavelet": _inhom_family,
    "alpha_mod": _alpha_family,
}


def make_family(tag: str, params: dict | None, signal_grid: SignalGrid) -> FrameFamily:
    if tag not in _BUILDERS:
        raise FamilyError(f"unknown family tag {tag!r}; known: {sorted(_BUILDERS)}")
    return _BUILDERS[tag](dict(params or {}), signal_grid)


# ---------------------------------------------------------------------------
# index grids and interiors
# ---------------------------------------------------------------------------
def default_index_grid(family: FrameFamily, bounds=None, resolution=None,
                       band_spacing: float = 0.45, scales_per_octave: int = 12) -> QuadGrid:
    """Family-adapted quadrature of the index space on `bounds`, the
    family's default box for None (`FrameFamily.index_domain`).

    gabor / alpha_mod: tensor midpoint grid with density 1/(2 pi).
    sinc_rkhs: uniform circle grid.
    cwt / inhom_wavelet: scale bands, log-uniform in scale, with per-band
    position spacing proportional to the scale (finer rows at finer scales).
    """
    dom = family.index_domain
    return dom.grid(dom.bounds if bounds is None else bounds, resolution,
                    band_spacing, scales_per_octave)


def _tensor_grid(default_resolution, measure, metric, bounds, resolution, *_) -> QuadGrid:
    """`build_quad_grid` at `resolution`, `default_resolution` for None."""
    resolution = default_resolution if resolution is None else resolution
    return build_quad_grid(bounds, resolution, measure=measure, metric=metric)


# gabor / alpha_mod: the (position, frequency) plane, density 1/(2 pi)
_TF_DOMAIN = IndexDomain([[-8.0, 8.0], [-16.0, 16.0]], functools.partial(
    _tensor_grid, [64, 64], lambda p: np.full(p.shape[0], 1.0 / TWO_PI),
    euclidean_metric))


def _banded_wavelet_grid(lowpass: bool, bounds, resolution, band_spacing: float,
                         scales_per_octave: int) -> QuadGrid:
    (a_lo, a_hi), (b_lo, b_hi) = bounds
    if a_lo <= 0 or a_hi <= a_lo:
        raise GridError("scale bounds must satisfy 0 < a_lo < a_hi")
    n_scales = max(2, int(np.ceil(np.log2(a_hi / a_lo) * scales_per_octave)))
    edges = np.geomspace(a_lo, a_hi, n_scales + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    dlog = np.diff(np.log(edges))

    pts, wts, bands = [], [], []
    if lowpass:
        # low-pass sheet at scale coordinate 0, Lebesgue measure in position
        db = band_spacing
        nb = max(2, int(np.round((b_hi - b_lo) / db)))
        b_edges = np.linspace(b_lo, b_hi, nb + 1)
        b_mids = 0.5 * (b_edges[:-1] + b_edges[1:])
        pts.append(np.column_stack([np.zeros(nb), b_mids]))
        wts.append(np.full(nb, (b_hi - b_lo) / nb))
        bands.append(("lowpass", nb))
    for a_mid, dl in zip(mids, dlog):
        db = band_spacing * a_mid
        nb = max(2, int(np.round((b_hi - b_lo) / db)))
        b_edges = np.linspace(b_lo, b_hi, nb + 1)
        b_mids = 0.5 * (b_edges[:-1] + b_edges[1:])
        pts.append(np.column_stack([np.full(nb, a_mid), b_mids]))
        # measure da db / a^2 = dlog(a) db / a
        wts.append(np.full(nb, dl * (b_hi - b_lo) / nb / a_mid))
        bands.append((a_mid, nb))
    return QuadGrid(points=np.concatenate(pts, axis=0), weights=np.concatenate(wts),
                    bounds=np.asarray(bounds, dtype=float), metric=halfplane_metric,
                    structure={"bands": bands, "band_spacing": band_spacing})


# ---------------------------------------------------------------------------
# transforms and the frame operator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TransformField:
    values: np.ndarray
    kind: str                       # "V" or "W"
    grid: QuadGrid


def analyze_V(family: FrameFamily, f: np.ndarray, x_grid: QuadGrid) -> TransformField:
    """V f(x) = <f, psi_x> at every grid node, by signal-grid quadrature
    (`FrameCalculus.analyze`)."""
    f = np.asarray(f)
    if f.shape[0] != family.signal_grid.n:
        raise GridError("signal length does not match the family's signal grid")
    return TransformField(family.calculus(x_grid).analyze(f), "V", x_grid)


def analyze_W(family: FrameFamily, f: np.ndarray, x_grid: QuadGrid,
              rel_cut: float = 1e-10) -> TransformField:
    """W f = V(S^+ f), S^+ the spectral pseudo-inverse of the frame operator
    at relative cut `rel_cut`; W f lies in the range of `gram_kernel` at
    the same cut."""
    vals = family.calculus(x_grid).analyze_dual(np.asarray(f, dtype=complex), rel_cut)
    return TransformField(vals, "W", x_grid)


def frame_operator_apply(family: FrameFamily, f: np.ndarray, x_grid: QuadGrid) -> np.ndarray:
    """S f = integral <f, psi_x> psi_x dmu(x) by index-grid quadrature."""
    return family.calculus(x_grid).frame_apply(np.asarray(f))


def gram_kernel(family: FrameFamily, x_grid: QuadGrid,
                rel_cut: float = 1e-10, threads: int = 1) -> Kernel:
    """Gramian R(x,y) = <psi_y, S^+ psi_x> of the frame w.r.t. its dual.

    Applies the spectral pseudo-inverse of the quadrature frame operator;
    this keeps R exactly self-adjoint and exactly idempotent under
    composition, also at truncation, and Hermitian by construction.  (The
    plain crossed Gramian <psi_y, psi_x>, the continuum R of a tight family,
    is `localization.cross_gramian`; it matches R away from the truncation
    boundary.)  Grid nodes are evaluated from the node factors (C, h), the
    cached half factor (`FrameCalculus.half_factor`, which forms no atom
    matrix for separable atoms on a tensor grid): h * C[:, rows]^H
    C[:, cols], without synthesizing their atoms; the column factor at
    other points is half_map @ atoms(points), a real map on complex atoms
    on a mirror-closed Gabor grid.  Building the kernel synthesizes no
    atom: `Kernel.mirror` (`FrameCalculus.mirror`) is read off the
    separable axis factors, and is None for every other family, whose
    Gramian is in the atoms' field.  The node factors and `col_factor`
    run their blocks on `threads`; the evaluator, which `am_norm` may
    call inside its own pool, on the calling thread alone.  No value
    depends on `threads`.
    """
    calc = family.calculus(x_grid)
    h = family.signal_grid.h

    def col_factor(points, pool=threads):
        return _map_atoms(calc.half_map(rel_cut), family.atoms(points, pool), pool)

    def ev(pr, pc):
        left = calc.u_factor(rel_cut) if pr is x_grid.points \
            else col_factor(pr, 1).conj().T
        right = calc.half_factor(rel_cut) if pc is x_grid.points \
            else col_factor(pc, 1)
        return h * (left @ right)

    return Kernel(evaluator=ev, provenance="gramian", native_grid=x_grid,
                  context={"calc": calc, "rel_cut": rel_cut},
                  node_factors=lambda: (calc.half_factor(rel_cut, threads), h),
                  col_factor=col_factor, mirror=calc.mirror)


# ---------------------------------------------------------------------------
# frame bounds on the resolvable subspace
# ---------------------------------------------------------------------------
PROBE_CAP = 1024             # probe atoms per frame-bound evaluation


@dataclass(frozen=True)
class FrameBoundsReport:
    c1: float
    c2: float
    subspace: str
    probe_count: int
    rank: int

    def as_dict(self):
        return {"c1": self.c1, "c2": self.c2, "subspace": self.subspace,
                "probes": self.probe_count, "rank": self.rank}


def _interior_mask(family: FrameFamily, grid: QuadGrid, pts: np.ndarray) -> np.ndarray:
    """Which index points `pts` lie in the family's interior box of `grid`;
    a family's low-pass sheet (`FrameFamily.lowpass_sheet`, axis 0 <= 0)
    counts as interior on axis 0."""
    box = family.interior_box(grid.bounds)
    inside = (pts >= box[:, 0]) & (pts <= box[:, 1])
    if family.lowpass_sheet:
        inside[:, 0] |= pts[:, 0] <= 0.0
    return inside.all(axis=1)


def _interior_probes(family: FrameFamily, grid: QuadGrid, pts: np.ndarray):
    """Indices of the interior points of `pts` (`_interior_mask`), thinned
    by an even stride to at most `PROBE_CAP`, and the number of interior
    points before thinning."""
    idx = np.flatnonzero(_interior_mask(family, grid, pts))
    return idx[::max(1, -(-idx.size // PROBE_CAP))], idx.size


def frame_bounds_continuous(family: FrameFamily, x_grid: QuadGrid,
                            threads: int = 1) -> FrameBoundsReport:
    """Extreme Rayleigh quotients of the quadrature frame operator.

    The operator is restricted to the span of atoms at interior index
    points (family margins shrink the truncated box), at most `PROBE_CAP` of
    them by even stride; directions that the truncation cannot represent
    stably are removed by a relative cut on the probe Gram matrix.  The
    bounds are the exact extreme eigenvalues of the reduced operator.
    `threads` builds S (`FrameCalculus.s_matrix`), the probe atoms and the
    probe Gram; the bounds do not depend on it.  The probes are the atoms
    at the probe nodes alone (`FrameCalculus.node_atoms`): columns of the
    atom matrix when S was built from it, otherwise synthesized there,
    with the same bytes.  S is real only on a mirror-closed separable
    grid (`FrameCalculus.mirrored`, Gabor with a real window); there the
    probes enter as their float64 view [Re p, Im p], which spans the probe
    atoms and their conjugates, the atoms at the mirrored nodes (interior
    atoms too when the box is symmetric, as a mirror-closed midpoint
    grid's is).  The probe Gram, h P~ P~^T = Re(h P P^H), and the reduced
    operator are then real.  Elsewhere, alpha-modulation on any grid
    included, they keep the atoms' field.
    """
    idx, _ = _interior_probes(family, x_grid, x_grid.points)
    if idx.size == 0:
        raise FamilyError("no interior probe points; enlarge the index box")
    calc = family.calculus(x_grid)
    s = calc.s_matrix(threads)
    mirrored = calc.mirrored
    atoms = calc.node_atoms(idx, threads)
    # node_atoms returns C-ordered rows, which a mirrored grid's float64
    # view needs.  The complex probes are F-ordered, the layout of a
    # column slice of the atom matrix: it sets the rounding of the probe
    # products
    probes = _real_view(atoms) if mirrored else np.asfortranarray(atoms)
    if np.max(np.abs(probes)) == 0.0:
        raise FamilyError("zero family: all probe atoms vanish")
    c1, c2, rank = restricted_rayleigh_bounds(probes, s, family.signal_grid.h,
                                              threads)
    return FrameBoundsReport(
        c1=c1, c2=c2,
        subspace=(f"span of {idx.size} interior atoms"
                  f"{' and their conjugates' if mirrored else ''}, interior "
                  f"box {np.round(family.interior_box(x_grid.bounds), 3).tolist()}"
                  f"{' and the low-pass sheet' if family.lowpass_sheet else ''}, "
                  f"Gram cut {PROBE_GRAM_CUT:g}"),
        probe_count=int(idx.size), rank=rank)


# ---------------------------------------------------------------------------
# alpha-modulation admissibility
# ---------------------------------------------------------------------------
_PAD = 8                     # zero-padding factor of the window FFT
_DW = 0.05                   # midpoint-rule step of the sigma integral


def alpha_admissibility(g: np.ndarray, alpha: float, xi_grid: np.ndarray,
                        sg: SignalGrid):
    """sigma_g^alpha on xi_grid plus the admissibility constant A.

    sigma(xi) = integral |ghat((xi - w) / (1+|w|)^alpha)|^2 (1+|w|)^(-alpha) dw,
    computed with a midpoint rule of step `_DW` after tabulating |ghat|^2 on
    an FFT grid zero-padded `_PAD` times.  Raises if sigma is not strictly
    positive on the grid.
    """
    if not 0.0 <= alpha < 1.0:
        raise FamilyError(f"alpha must lie in [0, 1), got {alpha}")
    g = np.asarray(g)
    if not np.any(g):
        raise FamilyError("zero window is inadmissible")
    n_pad = _PAD * sg.n
    spec = sg.h * np.fft.fft(g, n=n_pad)
    w_pad = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=sg.h)
    order = np.argsort(w_pad)
    w_tab, p_tab = w_pad[order], np.abs(spec[order]) ** 2
    # the -T offset phase drops out of |ghat|^2

    xi = np.asarray(xi_grid, dtype=float)
    w_max = float(np.max(np.abs(xi))) + 40.0
    w = np.arange(-w_max, w_max, _DW) + _DW / 2.0
    s = (1.0 + np.abs(w)) ** (-alpha)
    args = (xi[:, None] - w[None, :]) * s[None, :]
    vals = np.interp(args.ravel(), w_tab, p_tab, left=0.0, right=0.0).reshape(args.shape)
    sigma = (vals * s[None, :]).sum(axis=1) * _DW
    s_min, s_max = float(np.min(sigma)), float(np.max(sigma))
    if s_min <= 0.0:
        raise FamilyError("sigma vanishes on the grid: window inadmissible at this alpha")
    return s_min, s_max, max(s_max, 1.0 / s_min)


# ---------------------------------------------------------------------------
# batteries and leakage
# ---------------------------------------------------------------------------
def random_interior_points(family: FrameFamily, grid: QuadGrid, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Seeded index points inside the family's interior box.

    The family's `log_axes` (scale axes) are drawn log-uniformly, the others
    uniformly; a low-pass sheet (`lowpass_sheet`) takes each point with
    probability 1/2.
    """
    box = family.interior_box(grid.bounds)
    pts = np.empty((count, grid.dim))
    for k, log in enumerate(family.log_axes):
        lo, hi = box[k]
        if log:
            pts[:, k] = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))
        else:
            pts[:, k] = rng.uniform(lo, hi, size=count)
    if family.lowpass_sheet:
        pts[rng.random(count) < 0.5, 0] = 0.0
    return pts


ATOMS_PER_SIGNAL = 8         # interior atoms combined into one signal


def make_battery(family: FrameFamily, grid: QuadGrid, count: int,
                 seed: int) -> list[np.ndarray]:
    """Deterministic test signals: random combinations of `ATOMS_PER_SIGNAL`
    interior atoms."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    battery = []
    for _ in range(count):
        pts = random_interior_points(family, grid, ATOMS_PER_SIGNAL, rng)
        coef = (rng.standard_normal(ATOMS_PER_SIGNAL)
                + 1j * rng.standard_normal(ATOMS_PER_SIGNAL))
        f = family.atoms(pts) @ coef
        battery.append(f / family.signal_grid.norm(f))
    return battery


def export_atoms_csv(family: FrameFamily, points: np.ndarray, path) -> None:
    """Atom snapshots on the signal grid, one column pair (re, im) per atom:
    comma-separated `repr`s of the values, CRLF line ends."""
    atoms = family.atoms(points)
    header = ["t"]
    for p in np.atleast_2d(points):
        tag = "_".join(f"{float(c):g}" for c in np.atleast_1d(p))
        header += [f"re_{tag}", f"im_{tag}"]
    table = np.empty((atoms.shape[0], 1 + 2 * atoms.shape[1]))
    table[:, 0] = family.signal_grid.points
    table[:, 1::2] = atoms.real
    table[:, 2::2] = atoms.imag
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(
            ",".join(map(repr, row)) + "\r\n" for row in table.tolist()))


def leakage_report(family: FrameFamily, grid: QuadGrid, samples: int = 64,
                   seed: int = 5) -> dict:
    """Signal-domain mass leakage of boundary atoms.

    Compares quadrature norms of atoms sampled on the index-box boundary
    against the norm of a center atom; users size the truncation boxes from
    these numbers.  A family with a low-pass sheet (`lowpass_sheet`) also
    compares its sheet atoms at the two position bounds with the one at
    the center position (`lowpass_worst_boundary_deficit`).
    """
    def norms_sq(pts):
        return family.signal_grid.h * np.sum(np.abs(family.atoms(pts)) ** 2, axis=0)

    def deficit(norms):
        return float(np.max(np.abs(norms[1:] - norms[0])) / norms[0])

    rng = np.random.default_rng(np.random.PCG64(seed))
    b = grid.bounds
    center = b.mean(axis=1)
    pts = [center]
    for _ in range(samples):
        p = np.array([rng.uniform(lo, hi) for lo, hi in b])
        k = rng.integers(0, grid.dim)
        p[k] = b[k, rng.integers(0, 2)]
        pts.append(p)
    norms = norms_sq(np.asarray(pts))
    out = {
        "center_atom_norm_sq": float(norms[0]),
        "worst_boundary_deficit": deficit(norms),
        "boundary_samples": samples,
    }
    if family.lowpass_sheet:
        sheet = [[0.0, center[1]], [0.0, b[1, 0]], [0.0, b[1, 1]]]
        out["lowpass_worst_boundary_deficit"] = deficit(norms_sq(np.array(sheet)))
    return out
