"""Moderate admissible coverings of the truncated index space.

Coverings are lattices of closed boxes (log-spaced on scale axes, and banded
for wavelet half-plane grids), carrying node membership against a fixed
quadrature grid, overlap structure, moderation constants and partitions of
unity.  Neighbor sets use open-interior intersection: cells that share only
a boundary facet do not count as overlapping, so an exact partition has
N = 1 and i* = {i}.  Membership and neighbor sets come from two-axis sweeps
with array code and are kept in that one format, a `FlatLayout` each (one
index array in cell order plus per-cell counts).  The sampled node of a
cell is its member nearest to the cell's sample point, the lowest node
index among equal distances: the theorems allow any point x_i in U_i, and
this rule fixes one that depends on the covering alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .measure_space import AdmissibleWeight, QuadGrid

# candidate (cell, node) or (cell, cell) pairs that one sweep block tests at
# once, and (cell, column) pairs that one block bisects
_BLOCK_PAIRS = 2 ** 16
# neighbor measure ratio C~ below which a covering counts as moderate
RATIO_CAP = 1e6
# cross-cell weight sup C' up to which two coverings count as m-equivalent
C_PRIME_CAP = 1e3


class CoveringError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FlatLayout:
    """Per-cell index lists in one flat array, in cell order: cell i holds
    flat[starts[i]:starts[i] + counts[i]]."""

    flat: np.ndarray
    counts: np.ndarray

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.counts) - self.counts

    @property
    def owner(self) -> np.ndarray:
        """The cell of every flat position (not cached: it is as long as
        `flat` and cheap to rebuild)."""
        return np.repeat(np.arange(self.counts.size), self.counts)

    def split(self, vals: np.ndarray) -> list:
        """Per-cell views of an array aligned with `flat`."""
        ends = np.cumsum(self.counts).tolist()
        return [vals[e0:e1] for e0, e1 in zip([0] + ends[:-1], ends)]

    @cached_property
    def _groups(self) -> list:
        """(cells, k) for every count k present, the cells ascending."""
        order = np.argsort(self.counts, kind="stable")
        bounds = np.flatnonzero(np.diff(self.counts[order])) + 1
        return [(cells, int(self.counts[cells[0]]))
                for cells in np.split(order, bounds) if cells.size]

    def sums(self, vals: np.ndarray) -> np.ndarray:
        """Per-cell sums of an array aligned with `flat`.

        One (cells, k) row sum per member count k: a row sum adds in the
        order of `np.sum` over the cell's entries, so every sum has the
        bits of the per-cell loop (a segmented `np.add.reduceat` or
        `np.bincount` adds in another order and does not)."""
        out = np.zeros(self.counts.size, dtype=np.sum(vals[:0]).dtype)
        for cells, k in self._groups:
            out[cells] = np.sum(vals[self.starts[cells, None] + np.arange(k)], axis=1)
        return out


@dataclass
class Covering:
    """Cells U_i with sample points, measures and overlap structure.

    cells: (N_c, d, 2) per-axis closed intervals; for banded coverings the
    scale axis interval of a low-pass sheet cell is [0, 0].
    """

    cells: np.ndarray
    sample_points: np.ndarray
    grid: QuadGrid
    members: FlatLayout            # member nodes of each cell, ascending
    measures: np.ndarray           # a_i, by quadrature
    neighbors: FlatLayout          # i* (open-interior overlap), ascending
    overlap_count: int             # N
    min_measure: float             # D
    measure_ratio: float           # C~ over neighboring cells
    descriptor: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def sample_node_index(self) -> np.ndarray:
        """The member of each cell nearest to its sample point.

        Distance is the float64 sum((p - s)**2) over the axes; among equal
        distances the lowest node index wins.  One pass over the flat member
        layout: the per-cell minimum by reduceat, then the first member at
        it, which is the lowest index since members are ascending.  The node
        lies in its cell by construction.
        """
        lay = self.members
        if np.any(lay.counts == 0):
            raise CoveringError(
                f"cell {int(np.argmin(lay.counts))} has no member node to sample")
        flat, owner = lay.flat, lay.owner
        dist = np.sum((self.grid.points[flat] - self.sample_points[owner]) ** 2,
                      axis=1)
        hit = np.flatnonzero(dist == np.minimum.reduceat(dist, lay.starts)[owner])
        return flat[hit[np.searchsorted(owner[hit], np.arange(self.size))]]

    def node_cells(self) -> np.ndarray:
        """Inverse membership as an (M, K) table: row y lists the cells that
        hold node y, ascending, padded by repeating its last cell; the row
        of a node that no cell holds is -1."""
        lay = self.members
        order = np.argsort(lay.flat, kind="stable")     # cells stay ascending
        cells = lay.owner[order]
        count = np.bincount(lay.flat, minlength=self.grid.size)[:, None]
        pos = np.cumsum(count) - count[:, 0]
        pos = pos[:, None] + np.minimum(np.arange(max(1, count.max())), count - 1)
        return np.append(cells, -1)[np.where(count > 0, pos, -1)]

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


def _bisect(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            value: np.ndarray, side: str) -> np.ndarray:
    """np.searchsorted(keys[lo[k]:hi[k]], value[k], side) + lo[k] for every
    run k at once; each run of keys must be ascending."""
    lo, hi = lo.copy(), hi.copy()
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        key = keys[mid]
        up = key <= value[live] if side == "right" else key < value[live]
        lo[live] = np.where(up, mid + 1, lo[live])
        hi[live] = np.where(up, hi[live], mid)
        live = live[lo[live] < hi[live]]
    return lo


def _expand(first: np.ndarray, length: np.ndarray):
    """(owner k, position) for every position in first[k] + range(length[k])."""
    owner = np.repeat(np.arange(first.size), length)
    start = np.cumsum(length) - length
    return owner, np.arange(owner.size) + np.repeat(first - start, length)


def _chunks(counts: np.ndarray, bound: int):
    """Consecutive ranges [k0, k1) whose counts sum to at most `bound` (an
    entry above the bound is a range of its own)."""
    ends = np.cumsum(counts)
    k0 = 0
    while k0 < counts.size:
        base = ends[k0 - 1] if k0 else 0
        k1 = max(k0 + 1, int(np.searchsorted(ends, base + bound, side="right")))
        yield k0, k1
        k0 = k1


def _sweep(starts, y, col_first, col_last, y_lo, y_hi, y_shift=None):
    """Candidate (query, sorted position) pairs of a two-axis sweep, in blocks.

    The items are sorted into columns: column c holds sorted positions
    starts[c]:starts[c + 1], ascending in the axis-1 key y.  Query q reads the
    columns col_first[q]:col_last[q] and, in column c, the run of items with
    y_lo[q] - y_shift[c] <= y <= y_hi[q], found by bisection (with no y,
    the whole column).  Neither the (query, column) pairs nor the candidate
    pairs of one block exceed _BLOCK_PAIRS, unless a single query or run does.
    """
    n_cols = col_last - col_first
    for q0, q1 in _chunks(n_cols, _BLOCK_PAIRS):
        owner, col = _expand(col_first[q0:q1], n_cols[q0:q1])
        query = owner + q0
        first, stop = starts[col], starts[col + 1]
        if y is not None:
            lo_v = y_lo[query] if y_shift is None else y_lo[query] - y_shift[col]
            first = _bisect(y, first, stop, lo_v, "left")
            stop = _bisect(y, first, stop, y_hi[query], "right")
        length = stop - first
        for p0, p1 in _chunks(length, _BLOCK_PAIRS):
            run, pos = _expand(first[p0:p1], length[p0:p1])
            yield query[run + p0], pos


def _columns(keys: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal rows of sorted `keys` (n, k), with
    the end offset appended."""
    change = np.any(keys[1:] != keys[:-1], axis=1)
    return np.flatnonzero(np.concatenate([[True], change, [True]]))


def _split_pairs(hits: list, n_queries: int, n_items: int) -> FlatLayout:
    """Per query, its accepted items ascending, from blocks of pair keys
    query * n_items + item."""
    key = np.concatenate(hits)
    key.sort()
    return FlatLayout(flat=key % n_items,
                      counts=np.bincount(key // n_items, minlength=n_queries))


def _open_overlap(cells: np.ndarray) -> FlatLayout:
    """i* for every cell: open-interior overlap, or coincident sheet axes.

    Candidates come from a two-axis sweep over the cells' hulls
    [min(lo, hi), max(lo, hi)] per axis.  Either rule implies that the hulls
    of the two cells meet on every axis once widened by a pad far above the
    1e-12 sheet tolerance and the rounding of the window arithmetic.  Cells
    are grouped into columns of equal axis-0 hull; query i reads the columns
    whose hull starts in [a_i - span - 2 pad, b_i + pad] (span: the widest
    axis-0 hull) and, inside each, the cells whose axis-1 hull starts in
    [a1_i - span1 - 2 pad, b1_i + pad] (span1: the column's widest axis-1
    hull).  So the candidates are a superset of i*, and the unchanged exact
    test on them gives the dense result.
    """
    n, d = cells.shape[:2]
    lo = cells[:, :, 0]
    hi = cells[:, :, 1]
    a = np.minimum(lo, hi)
    b = np.maximum(lo, hi)
    pad = 1e-9 * (1.0 + float(np.max(np.abs(cells))))
    keys = [a[:, 1]] if d > 1 else []
    order = np.lexsort(keys + [b[:, 0], a[:, 0]])
    starts = _columns(np.column_stack([a[order, 0], b[order, 0]]))
    col_a = a[order[starts[:-1]], 0]
    span = float(np.max(b[:, 0] - a[:, 0]))
    col_first = np.searchsorted(col_a, a[:, 0] - span - 2.0 * pad, side="left")
    col_last = np.searchsorted(col_a, b[:, 0] + pad, side="right")
    y = y_lo = y_hi = y_shift = None
    if d > 1:
        y = a[order, 1]
        y_lo, y_hi = a[:, 1] - 2.0 * pad, b[:, 1] + pad
        y_shift = np.maximum.reduceat((b[:, 1] - a[:, 1])[order], starts[:-1])
    hits = []
    for i, pos in _sweep(starts, y, col_first, col_last, y_lo, y_hi, y_shift):
        j = order[pos]
        lo_i, hi_i, lo_c, hi_c = lo[i], hi[i], lo[j], hi[j]
        ov = (lo_i < hi_c) & (lo_c < hi_i)
        # degenerate intervals (sheet cells) overlap when they coincide
        same = (np.abs(lo_c - lo_i) < 1e-12) & (np.abs(hi_c - hi_i) < 1e-12)
        ok = np.all(np.where(hi_i <= lo_i, same, ov), axis=1)
        hits.append(i[ok] * n + j[ok])
    return _split_pairs(hits, n, n)


def _members(cells: np.ndarray, points: np.ndarray) -> FlatLayout:
    """Closed-box member nodes of every cell, ascending, as a flat layout.

    Nodes are sorted once by axis 0, then by axis 1, into columns of equal
    axis-0 coordinate.  Bisection with the same +-1e-12 tolerance finds the
    columns inside a cell's axis-0 window and, in each, the run inside its
    axis-1 window; no node outside those runs can pass the closed test, so
    the test runs on the runs alone.  When no two nodes share an axis-0
    coordinate every column is one node, and the columns read are the plain
    axis-0 window.
    """
    n, d = points.shape
    keys = [points[:, 1]] if d > 1 else []
    order = np.lexsort(keys + [points[:, 0]])
    x0 = points[order, 0]
    starts = _columns(x0[:, None])
    cols = x0[starts[:-1]]
    col_first = np.searchsorted(cols, cells[:, 0, 0] - 1e-12, side="left")
    col_last = np.searchsorted(cols, cells[:, 0, 1] + 1e-12, side="right")
    y = y_lo = y_hi = None
    if d > 1:
        y = points[order, 1]
        y_lo, y_hi = cells[:, 1, 0] - 1e-12, cells[:, 1, 1] + 1e-12
    hits = []
    for i, pos in _sweep(starts, y, col_first, col_last, y_lo, y_hi):
        node = order[pos]
        p = points[node]
        ok = np.all((p >= cells[i, :, 0] - 1e-12) & (p <= cells[i, :, 1] + 1e-12),
                    axis=1)
        hits.append(i[ok] * n + node[ok])
    return _split_pairs(hits, cells.shape[0], n)


def build_covering(grid: QuadGrid, cell_size,
                   overlap_fraction: float = 0.0) -> Covering:
    """Lattice covering of the grid's bounding box by closed boxes.

    cell_size is the lattice stride per axis; with overlap fraction v the
    cells are enlarged to stride/(1-v), so every interior point lies in
    1/(1-v) cells per axis.  Scale axes of banded wavelet grids are covered
    band-wise (cell_size interpreted at scale 1, log-spaced in scale).
    Each cell's sample point is its center.  Raises when a cell captures no
    quadrature node (cell below grid resolution) or when the overlap
    fraction is out of range.
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
    domain = grid.bounds
    stretch = 1.0 / (1.0 - overlap_fraction)
    if "bands" in grid.structure:
        cells = _banded_cells(grid, domain, cell_size, stretch, overlap_fraction)
    else:
        per_axis_cells = []
        for k in range(d):
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

    return _covering_from_cells(cells, grid,
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


def _covering_from_cells(cells, grid, descriptor):
    """Covering record of the given cells.

    Members and i* come from two-axis sweeps whose candidates are supersets
    of every node and cell the exact tests can accept, so they equal the
    dense all-pairs results.  Sample points are the arithmetic midpoints of
    the cell intervals on every axis, log-spaced scale axes included.
    """
    members = _members(cells, grid.points)
    measures = members.sums(grid.weights[members.flat])
    empty = np.flatnonzero(measures <= 0.0)
    if empty.size:
        raise CoveringError(
            f"{empty.size} cells capture no quadrature node (first: cell {empty[0]}); "
            "cell size is below the grid resolution")
    inside = np.zeros(grid.size, dtype=bool)
    inside[members.flat] = True
    if not inside.all():
        raise CoveringError(
            f"{int((~inside).sum())} grid nodes lie outside every cell")

    pts = 0.5 * (cells[:, :, 0] + cells[:, :, 1])
    nb = _open_overlap(cells)
    ratio = max(1.0, float(np.max(measures[nb.owner] / measures[nb.flat])))
    return Covering(
        cells=cells, sample_points=pts, grid=grid, members=members,
        measures=measures, neighbors=nb,
        overlap_count=int(nb.counts.max()), min_measure=float(measures.min()),
        measure_ratio=ratio, descriptor=descriptor)


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
    """C_{m,U} = max over cells of the in-cell sup of m on node pairs; 1 for
    the trivial weight (`AdmissibleWeight.trivial`), which is not evaluated."""
    if m.trivial:
        return 1.0
    out = 1.0
    pts = cov.grid.points
    for i, idx in enumerate(cov.members.split(cov.members.flat)):
        sub = np.concatenate([pts[idx], cov.sample_points[i:i + 1]])
        out = max(out, float(np.max(m(sub, sub))))
    return out


def verify_moderate(cov: Covering, m: AdmissibleWeight) -> ModerationReport:
    """Admissibility and moderation of the covering; neighboring measures
    count as comparable below `RATIO_CAP`."""
    covered = np.zeros(cov.grid.size, dtype=bool)
    covered[cov.members.flat] = True
    return ModerationReport(
        covers_domain=bool(covered.all()),
        finite_overlap=bool(np.isfinite(cov.overlap_count)),
        min_measure_positive=bool(cov.min_measure > 0),
        neighbor_measures_comparable=bool(cov.measure_ratio < RATIO_CAP),
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
    values: np.ndarray           # phi_i at its member nodes, aligned with
                                 # covering.members.flat
    masses: np.ndarray           # c_i = integral of phi_i

    def sum_at_nodes(self) -> np.ndarray:
        # bincount adds in input order: every node sums its cells' values in
        # cell order, starting from 0
        cov = self.covering
        return np.bincount(cov.members.flat, weights=self.values,
                           minlength=cov.grid.size)


def build_pu(cov: Covering, flavor: str = "indicator") -> PartitionOfUnity:
    """Partition of unity subordinate to the covering.

    indicator: chi_{U_i} / #covering cells at the node.
    tent: product of per-axis hat functions, renormalized to sum 1.

    Both are evaluated on the flat member layout; the tent totals add in
    cell order (bincount), as a per-cell loop adds them.
    """
    grid = cov.grid
    lay = cov.members
    if flavor == "indicator":
        count = np.bincount(lay.flat, minlength=grid.size).astype(float)
        if np.any(count == 0):
            raise CoveringError("node covered by no cell")
        vals = 1.0 / count[lay.flat]
    elif flavor == "tent":
        pts, owner = grid.points[lay.flat], lay.owner
        vals = np.ones(lay.flat.size)
        for k in range(grid.dim):
            lo, hi = cov.cells[owner, k, 0], cov.cells[owner, k, 1]
            live = hi > lo
            mid, half = 0.5 * (lo[live] + hi[live]), 0.5 * (hi[live] - lo[live])
            vals[live] *= np.maximum(
                1e-9, 1.0 - np.abs(pts[live, k] - mid) / (half + 1e-300))
        total = np.bincount(lay.flat, weights=vals, minlength=grid.size)
        if np.any(total == 0):
            raise CoveringError("node covered by no cell")
        vals = vals / total[lay.flat]
    else:
        raise CoveringError(f"unknown PU flavor {flavor!r}")
    masses = lay.sums(grid.weights[lay.flat] * vals)
    return PartitionOfUnity(covering=cov, values=vals, masses=masses)


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


def m_equivalent(cov_a: Covering, cov_b: Covering,
                 m: AdmissibleWeight) -> EquivalenceReport:
    """Check m-equivalence of two coverings over the same index set.

    Realized constants: c1 a_i^A <= a_i^B <= c2 a_i^A and the cross-cell
    weight sup C'.  The verdict compares C' against `C_PRIME_CAP` (the
    notion is asymptotic; a single instance can only witness failure by a
    large constant).
    """
    if cov_a.size != cov_b.size:
        raise CoveringError("index-set size mismatch")
    ratios = cov_b.measures / cov_a.measures
    c1, c2 = float(np.min(ratios)), float(np.max(ratios))
    c_prime = 1.0
    lay_a, lay_b = cov_a.members, cov_b.members
    for idx_a, idx_b in zip(lay_a.split(lay_a.flat), lay_b.split(lay_b.flat)):
        xa = cov_a.grid.points[idx_a]
        yb = cov_b.grid.points[idx_b]
        if xa.size and yb.size:
            c_prime = max(c_prime, float(np.max(m(xa, yb))))
    return EquivalenceReport(c1=c1, c2=c2, c_prime=c_prime,
                             equivalent=bool(c_prime <= C_PRIME_CAP))
