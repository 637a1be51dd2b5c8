"""Moderate admissible coverings of the truncated index space.

Coverings are lattices of closed boxes (log-spaced on scale axes, and banded
for wavelet half-plane grids), carrying node membership against a fixed
quadrature grid, overlap structure, moderation constants and partitions of
unity.  Neighbor sets use open-interior intersection: cells that share only
a boundary facet do not count as overlapping, so an exact partition has
N = 1 and i* = {i}.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .measure_space import AdmissibleWeight, QuadGrid


class CoveringError(ValueError):
    pass


@dataclass
class Covering:
    """Cells U_i with sample points, measures and overlap structure.

    cells: (N_c, d, 2) per-axis closed intervals; for banded coverings the
    scale axis interval of a low-pass sheet cell is [0, 0].
    """

    cells: np.ndarray
    sample_points: np.ndarray
    grid: QuadGrid
    members: list                  # node-index array per cell
    measures: np.ndarray           # a_i, by quadrature
    neighbors: list                # i* as index arrays (open-interior overlap)
    overlap_count: int             # N
    min_measure: float             # D
    measure_ratio: float           # C~ over neighboring cells
    sample_node_index: np.ndarray  # nearest grid node of each sample point
    descriptor: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.cells.shape[0]

    def node_cells(self) -> list:
        """Inverse membership: for each grid node the cells containing it."""
        out = [[] for _ in range(self.grid.size)]
        for i, idx in enumerate(self.members):
            for k in idx:
                out[k].append(i)
        return [np.asarray(v, dtype=int) for v in out]

    def to_json(self) -> str:
        payload = {
            "cells": self.cells.tolist(),
            "sample_points": self.sample_points.tolist(),
            "measures": self.measures.tolist(),
            "overlap_count": self.overlap_count,
            "min_measure": self.min_measure,
            "measure_ratio": self.measure_ratio,
            "descriptor": self.descriptor,
        }
        return json.dumps(payload, sort_keys=True)


def _axis_edges(lo: float, hi: float, size: float, log_axis: bool):
    if log_axis:
        if lo <= 0:
            raise CoveringError("log axis requires positive bounds")
        n = max(1, int(np.round(np.log(hi / lo) / size)))
        return np.geomspace(lo, hi, n + 1)
    n = max(1, int(np.round((hi - lo) / size)))
    return np.linspace(lo, hi, n + 1)


def _contains(cells: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(N_c, P) closed-box membership."""
    lo = cells[:, :, 0][:, None, :]
    hi = cells[:, :, 1][:, None, :]
    p = points[None, :, :]
    return np.all((p >= lo - 1e-12) & (p <= hi + 1e-12), axis=-1)


def _open_overlap(cells: np.ndarray) -> list:
    """i* for every cell: open-interior overlap, or coincident sheet axes.

    Candidates come from a sweep over axis 0.  Either rule implies that the
    axis-0 hulls [min(lo, hi), max(lo, hi)] of the two cells meet once
    widened by a pad far above the 1e-12 sheet tolerance and the rounding
    of the window arithmetic, so the candidates are a superset of i* and
    the unchanged exact test on them gives the dense result.
    """
    lo = cells[:, :, 0]
    hi = cells[:, :, 1]
    a = np.minimum(lo[:, 0], hi[:, 0])
    b = np.maximum(lo[:, 0], hi[:, 0])
    pad = 1e-9 * (1.0 + float(np.max(np.abs(cells[:, 0]))))
    order = np.argsort(a, kind="stable")
    a_sorted = a[order]
    # a candidate j has b_j >= a_i - pad, so a_j >= a_i - pad - (b_j - a_j)
    span = float(np.max(b - a))
    first = np.searchsorted(a_sorted, a - span - 2.0 * pad, side="left")
    last = np.searchsorted(a_sorted, b + pad, side="right")
    neighbors = []
    for i in range(cells.shape[0]):
        cand = order[first[i]:last[i]]
        cand = cand[b[cand] >= a[i] - pad]
        lo_c, hi_c = lo[cand], hi[cand]
        ov = np.all((lo[i][None, :] < hi_c) & (lo_c < hi[i][None, :]), axis=-1)
        # degenerate intervals (sheet cells) overlap when they coincide
        deg = hi[i] <= lo[i]
        if np.any(deg):
            same = np.all(np.abs(lo_c[:, deg] - lo[i][deg][None, :]) < 1e-12, axis=-1) & \
                np.all(np.abs(hi_c[:, deg] - hi[i][deg][None, :]) < 1e-12, axis=-1)
            rest = ~deg
            ov = same & np.all((lo_c[:, rest] < hi[i][rest][None, :]) &
                               (lo[i][rest][None, :] < hi_c[:, rest]), axis=-1)
        neighbors.append(np.sort(cand[ov]))
    return neighbors


def _members(cells: np.ndarray, points: np.ndarray) -> list:
    """Closed-box member nodes of every cell, ascending.

    Nodes are sorted once by axis 0; a node can pass the closed test of a
    cell only inside the axis-0 window found by bisection with the same
    +-1e-12 tolerance, so the test runs on that window alone.
    """
    order = np.argsort(points[:, 0], kind="stable")
    x0 = points[order, 0]
    first = np.searchsorted(x0, cells[:, 0, 0] - 1e-12, side="left")
    last = np.searchsorted(x0, cells[:, 0, 1] + 1e-12, side="right")
    members = []
    for i in range(cells.shape[0]):
        window = order[first[i]:last[i]]
        hit = _contains(cells[i:i + 1], points[window])[0]
        members.append(np.sort(window[hit]))
    return members


def build_covering(grid: QuadGrid, cell_size, overlap_fraction: float = 0.0,
                   domain=None, sample: str = "center",
                   seed: int = 0, log_axes: Optional[list] = None) -> Covering:
    """Lattice covering of the grid's domain by closed boxes.

    cell_size is the lattice stride per axis; with overlap fraction v the
    cells are enlarged to stride/(1-v), so every interior point lies in
    1/(1-v) cells per axis.  Scale axes of banded wavelet grids are covered
    band-wise (cell_size interpreted at scale 1, log-spaced in scale).
    Raises when a cell captures no quadrature node (cell below grid
    resolution) or when the overlap fraction is out of range.
    """
    if not 0.0 <= overlap_fraction < 1.0:
        raise CoveringError(f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    d = grid.dim
    if np.isscalar(cell_size):
        cell_size = [float(cell_size)] * d
    if len(cell_size) != d:
        raise CoveringError("cell_size must give one entry per axis")
    if any(s <= 0 for s in cell_size):
        raise CoveringError("cell_size must be positive")
    domain = np.asarray(domain if domain is not None else grid.bounds, dtype=float)
    if log_axes is None:
        log_axes = ["bands" in grid.structure and k == 0 for k in range(d)]

    stretch = 1.0 / (1.0 - overlap_fraction)
    if "bands" in grid.structure:
        cells = _banded_cells(grid, domain, cell_size, stretch, overlap_fraction)
    else:
        per_axis_cells = []
        for k in range(d):
            if log_axes[k]:
                edges = _axis_edges(domain[k, 0], domain[k, 1], cell_size[k], True)
                base = np.column_stack([edges[:-1], edges[1:]])
                if overlap_fraction > 0:
                    half = 0.5 * np.log(edges[1:] / edges[:-1]) * stretch
                    mid = np.sqrt(edges[:-1] * edges[1:])
                    base = np.column_stack([mid * np.exp(-half), mid * np.exp(half)])
            else:
                edges = _axis_edges(domain[k, 0], domain[k, 1], cell_size[k], False)
                base = np.column_stack([edges[:-1], edges[1:]])
                if overlap_fraction > 0:
                    half = 0.5 * np.diff(edges) * stretch
                    mid = 0.5 * (edges[:-1] + edges[1:])
                    base = np.column_stack([mid - half, mid + half])
            base = np.clip(base, domain[k, 0], domain[k, 1])
            per_axis_cells.append(base)
        mesh = np.meshgrid(*[np.arange(len(c)) for c in per_axis_cells],
                           indexing="ij")
        idx = np.stack([m.ravel() for m in mesh], axis=-1)
        cells = np.stack([per_axis_cells[k][idx[:, k]] for k in range(d)], axis=1)

    return _covering_from_cells(cells, grid, sample, seed, overlap_fraction,
                                {"cell_size": list(map(float, cell_size)),
                                 "overlap_fraction": float(overlap_fraction)})


def _banded_cells(grid, domain, cell_size, stretch, overlap_fraction):
    """Scale-adapted cells for banded wavelet grids.

    cell_size[0] is the scale-cell height in log units, cell_size[1] the
    position width at scale 1; position cells widen proportionally to the
    scale so that every band keeps nodes in every cell.
    """
    has_sheet = any(b[0] == "lowpass" for b in grid.structure["bands"])
    scale_pts = grid.points[grid.points[:, 0] > 0, 0]
    a_lo, a_hi = float(scale_pts.min()), float(scale_pts.max())
    s_edges = _axis_edges(a_lo * (1 - 1e-12), a_hi * (1 + 1e-12),
                          cell_size[0], True)
    b_lo, b_hi = domain[1]
    rows = []
    if has_sheet:
        rows.append((np.array([0.0, 0.0]), 1.0))
    for j in range(len(s_edges) - 1):
        rows.append((np.array([s_edges[j], s_edges[j + 1]]),
                     float(np.sqrt(s_edges[j] * s_edges[j + 1]))))
    cells = []
    for s_int, s_mid in rows:
        width = cell_size[1] * s_mid
        nb = max(1, int(np.round((b_hi - b_lo) / width)))
        b_edges = np.linspace(b_lo, b_hi, nb + 1)
        base = np.column_stack([b_edges[:-1], b_edges[1:]])
        if overlap_fraction > 0:
            half = 0.5 * np.diff(b_edges) * stretch
            mid = 0.5 * (b_edges[:-1] + b_edges[1:])
            base = np.clip(np.column_stack([mid - half, mid + half]), b_lo, b_hi)
        for row in base:
            cells.append(np.stack([s_int, row]))
    return np.asarray(cells)


def _covering_from_cells(cells, grid, sample, seed, overlap_fraction, descriptor):
    """Covering record of the given cells.

    Members and i* come from axis-0 sweeps whose windows are supersets of
    every node and cell the exact tests can accept, so they equal the dense
    all-pairs results.
    """
    n_cells = cells.shape[0]
    members = _members(cells, grid.points)
    measures = np.empty(n_cells)
    inside = np.zeros(grid.size, dtype=bool)
    for i, idx in enumerate(members):
        measures[i] = float(np.sum(grid.weights[idx]))
        inside[idx] = True
    empty = np.flatnonzero(measures <= 0.0)
    if empty.size:
        raise CoveringError(
            f"{empty.size} cells capture no quadrature node (first: cell {empty[0]}); "
            "cell size is below the grid resolution")
    if not inside.all():
        raise CoveringError(
            f"{int((~inside).sum())} grid nodes lie outside every cell")

    rng = np.random.default_rng(np.random.PCG64(seed))
    if sample == "center":
        pts = np.empty((n_cells, grid.dim))
        for k in range(grid.dim):
            lo, hi = cells[:, k, 0], cells[:, k, 1]
            log_like = np.all(lo > 0) and descriptor.get("log_axis_" + str(k), False)
            pts[:, k] = np.sqrt(lo * hi) if log_like else 0.5 * (lo + hi)
    elif sample == "random":
        u = rng.random((n_cells, grid.dim))
        pts = cells[:, :, 0] + u * (cells[:, :, 1] - cells[:, :, 0])
    else:
        raise CoveringError(f"unknown sample rule {sample!r}")
    # snap the record of the nearest node (exact for center samples on
    # odd-aligned grids; used by fast paths only, never for correctness)
    from scipy.spatial import cKDTree
    nearest = cKDTree(grid.points).query(pts)[1]

    neighbors = _open_overlap(cells)
    counts = np.array([len(v) for v in neighbors])
    ratio = 1.0
    for i, idx in enumerate(neighbors):
        if idx.size:
            ratio = max(ratio, float(np.max(measures[i] / measures[idx])))
    return Covering(
        cells=cells, sample_points=pts, grid=grid, members=members,
        measures=measures, neighbors=neighbors,
        overlap_count=int(counts.max()), min_measure=float(measures.min()),
        measure_ratio=ratio, sample_node_index=nearest, descriptor=descriptor)


def refine_covering(cov: Covering) -> Covering:
    """Halve every cell side (dyadic refinement), keeping the conventions."""
    desc = dict(cov.descriptor)
    size = [0.5 * s for s in desc.get("cell_size")]
    desc["cell_size"] = size
    return build_covering(cov.grid, size, desc.get("overlap_fraction", 0.0))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ModerationReport:
    covers_domain: bool
    finite_overlap: bool
    min_measure_positive: bool
    neighbor_measures_comparable: bool
    overlap_count: int
    min_measure: float
    measure_ratio: float
    c_m_u: float

    @property
    def admissible(self) -> bool:
        return self.covers_domain and self.finite_overlap and self.min_measure_positive

    @property
    def moderate(self) -> bool:
        return self.admissible and self.neighbor_measures_comparable

    def as_dict(self):
        return {
            "covers_domain": self.covers_domain,
            "finite_overlap": self.finite_overlap,
            "min_measure_positive": self.min_measure_positive,
            "neighbor_measures_comparable": self.neighbor_measures_comparable,
            "overlap_count": self.overlap_count,
            "min_measure": self.min_measure,
            "measure_ratio": self.measure_ratio,
            "c_m_u": self.c_m_u,
        }


def weight_sup_on_cells(cov: Covering, m: AdmissibleWeight) -> float:
    """C_{m,U} = max over cells of the in-cell sup of m on node pairs."""
    out = 1.0
    pts = cov.grid.points
    for i, idx in enumerate(cov.members):
        sub = np.concatenate([pts[idx], cov.sample_points[i:i + 1]])
        out = max(out, float(np.max(m(sub, sub))))
    return out


def verify_moderate(cov: Covering, m: AdmissibleWeight,
                    ratio_cap: float = 1e6) -> ModerationReport:
    covered = np.zeros(cov.grid.size, dtype=bool)
    for idx in cov.members:
        covered[idx] = True
    return ModerationReport(
        covers_domain=bool(covered.all()),
        finite_overlap=bool(np.isfinite(cov.overlap_count)),
        min_measure_positive=bool(cov.min_measure > 0),
        neighbor_measures_comparable=bool(cov.measure_ratio < ratio_cap),
        overlap_count=cov.overlap_count,
        min_measure=cov.min_measure,
        measure_ratio=cov.measure_ratio,
        c_m_u=weight_sup_on_cells(cov, m))


# ---------------------------------------------------------------------------
# partitions of unity
# ---------------------------------------------------------------------------
@dataclass
class PartitionOfUnity:
    covering: Covering
    values: list                 # per cell, phi_i at its member nodes
    masses: np.ndarray           # c_i = integral of phi_i

    def sum_at_nodes(self) -> np.ndarray:
        out = np.zeros(self.covering.grid.size)
        for idx, val in zip(self.covering.members, self.values):
            out[idx] += val
        return out


def build_pu(cov: Covering, flavor: str = "indicator") -> PartitionOfUnity:
    """Partition of unity subordinate to the covering.

    indicator: chi_{U_i} / #covering cells at the node.
    tent: product of per-axis hat functions, renormalized to sum 1.
    """
    grid = cov.grid
    if flavor == "indicator":
        count = np.zeros(grid.size)
        for idx in cov.members:
            count[idx] += 1.0
        if np.any(count == 0):
            raise CoveringError("node covered by no cell")
        values = [1.0 / count[idx] for idx in cov.members]
    elif flavor == "tent":
        raw = []
        total = np.zeros(grid.size)
        for i, idx in enumerate(cov.members):
            pts = grid.points[idx]
            t = np.ones(idx.size)
            for k in range(grid.dim):
                lo, hi = cov.cells[i, k]
                if hi <= lo:
                    continue
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                t = t * np.maximum(1e-9, 1.0 - np.abs(pts[:, k] - mid) / (half + 1e-300))
            raw.append(t)
            total[idx] += t
        if np.any(total == 0):
            raise CoveringError("node covered by no cell")
        values = [raw[i] / total[idx] for i, idx in enumerate(cov.members)]
    else:
        raise CoveringError(f"unknown PU flavor {flavor!r}")
    masses = np.array([float(np.sum(grid.weights[idx] * val))
                       for idx, val in zip(cov.members, values)])
    return PartitionOfUnity(covering=cov, values=values, masses=masses)


def q_set(cov: Covering, y) -> np.ndarray:
    """Indices of all cells containing y (the union is the paper's Q_y)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    hit = _contains(cov.cells, y[None, :])[:, 0]
    idx = np.flatnonzero(hit)
    if idx.size == 0:
        raise CoveringError(f"point {y.tolist()} outside every cell")
    return idx


# ---------------------------------------------------------------------------
# m-equivalence
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EquivalenceReport:
    c1: float
    c2: float
    c_prime: float
    equivalent: bool


def m_equivalent(cov_a: Covering, cov_b: Covering, m: AdmissibleWeight,
                 c_prime_cap: float = 1e3) -> EquivalenceReport:
    """Check m-equivalence of two coverings over the same index set.

    Realized constants: c1 a_i^A <= a_i^B <= c2 a_i^A and the cross-cell
    weight sup C'.  The verdict compares C' against `c_prime_cap` (the
    notion is asymptotic; a single instance can only witness failure by a
    large constant).
    """
    if cov_a.size != cov_b.size:
        raise CoveringError("index-set size mismatch")
    ratios = cov_b.measures / cov_a.measures
    c1, c2 = float(np.min(ratios)), float(np.max(ratios))
    c_prime = 1.0
    pts = cov_a.grid.points
    pts_b = cov_b.grid.points
    for i in range(cov_a.size):
        xa = pts[cov_a.members[i]]
        yb = pts_b[cov_b.members[i]]
        if xa.size and yb.size:
            c_prime = max(c_prime, float(np.max(m(xa, yb))))
    return EquivalenceReport(c1=c1, c2=c2, c_prime=c_prime,
                             equivalent=bool(c_prime <= c_prime_cap))
