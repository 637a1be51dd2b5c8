"""Oscillation kernel, the D[delta, m] property and refinement driver.

The oscillation of the Gramian over a covering,
    osc_U(x, y) = sup_{z in Q_y} |R(x, y) - R(x, z)|,
where Q_y is the union of the cells that hold y, is estimated with per-cell
deterministic z-samples (the sup is sampled, so delta_est is a lower bound
of the true oscillation norm; the report records the sample density).  A
node that no cell holds has an empty Q_y and a zero column.

Modulation families (gabor, alpha_mod) drop the torus phase of the
underlying index group.  Their sampled systems and every reconstruction
operator are invariant under that quotient, but the raw kernel difference is
not: it picks up a pure-gauge phase term growing with the distance from the
phase-plane origin.  For those families the oscillation comparison is
therefore taken modulo a unimodular factor,
    osc(x, y) = sup_z | |R(x, y)| - |R(x, z)| |,
(the best phase-aligned comparison), which is the quotient image of the
group-covering oscillation.  The comparison mode is recorded in the report;
`comparison="strict"` forces the literal kernel difference.

One routine streams the grid nodes, one column osc_U(., y) per node y
whatever the covering: y is compared against the z-samples of every cell in
its row of `Covering.node_cells`.  Nodes go in the order of their first
cell, in blocks cut at cell boundaries that fit `_BLOCK_ENTRIES` / M
columns; the nodes no cell holds are a block of their own.  Per block, on
the calling thread, one `R.node_block` call evaluates the y-columns and one
`R.block` call the z-samples of the block's cells.  `osc_matrix` keeps the
columns.  `osc_norm_streaming` reduces each block, on up to `threads - 1`
worker threads, to the row and column sums of osc m and of |R| m, folded in
block order: ||R | A_m|| comes from the same pass over the Gramian, and the
result does not depend on the thread count.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coverings import Covering, _chunks, build_covering, weight_sup_on_cells
from .kernel_algebra import Kernel
from .measure_space import AdmissibleWeight, QuadGrid
from .frame_families import FrameFamily, default_index_grid, gram_kernel


# complex entries of the two R.block results of one streamed block of nodes
_BLOCK_ENTRIES = 2 ** 20


class OscillationError(ValueError):
    pass


@dataclass(frozen=True)
class OscReport:
    delta_est: float
    r_norm: float                 # ||R | A_m||
    c_m_u: float
    sigma: float                  # max{C_mU ||R||, ||R|| + delta}
    cond_value: float             # delta (||R|| + sigma)
    full: bool                    # cond_value <= 1
    atomic_only: bool             # delta <= 1
    banach_only: bool             # delta <= 1/||R||
    comparison: str
    z_per_cell: int
    seed: int
    covering_descriptor: dict
    caveat: str = ("delta_est uses a sampled sup over z, hence is a lower bound "
                   "of the true oscillation norm; a passing flag is a numerical "
                   "indication, not a certificate")

    def as_dict(self):
        return {
            "delta_est": self.delta_est, "r_norm": self.r_norm,
            "c_m_u": self.c_m_u, "sigma": self.sigma,
            "cond_value": self.cond_value, "full": self.full,
            "atomic_only": self.atomic_only, "banach_only": self.banach_only,
            "comparison": self.comparison, "z_per_cell": self.z_per_cell,
            "seed": self.seed, "covering": self.covering_descriptor,
            "caveat": self.caveat,
        }


def _cell_z_samples(cov: Covering, z_per_cell: int, seed: int) -> np.ndarray:
    """Nested deterministic z-streams, (cells, z_per_cell, d).

    Points come from a per-cell seeded stream, so enlarging z_per_cell only
    appends samples (the sampled sup is monotone in z_per_cell).
    """
    if z_per_cell < 1:
        raise OscillationError("z_per_cell must be >= 1")
    out = np.empty((cov.size, z_per_cell, cov.cells.shape[1]))
    for i in range(cov.size):
        rng = np.random.default_rng(np.random.PCG64([seed, i]))
        u = rng.random(out.shape[1:])
        lo = cov.cells[i, :, 0]
        hi = cov.cells[i, :, 1]
        out[i] = lo + u * (hi - lo)
    return out


def _pair_osc(r_y: np.ndarray, r_z: np.ndarray, slots: np.ndarray,
              aligned: bool, abs_y: np.ndarray | None = None) -> np.ndarray:
    """Per y-column, the sup of the (phase-aligned) difference over the
    z-samples of its cells, (M, Y).

    r_y (M, Y) holds the y-columns, r_z (M, C, Z) the z-columns of C cells;
    row j of slots (Y, K) lists the cells of column j, padded by repeating
    the last (min and max are idempotent).  The aligned sup is
    max(|a| - min |b|, max |b| - |a|) over the z of all those cells:
    rounding is monotone, so this is max_z | |a| - |b_z| | bit for bit.
    `abs_y`, when given, is |r_y| already computed by the caller.
    """
    if aligned:
        b = np.abs(r_z)
        lo, hi = b[:, :, 0], b[:, :, 0]
        for j in range(1, b.shape[2]):
            lo = np.minimum(lo, b[:, :, j])
            hi = np.maximum(hi, b[:, :, j])
        lo_y = lo.take(slots[:, 0], axis=1)
        hi_y = hi.take(slots[:, 0], axis=1)
        for k in range(1, slots.shape[1]):
            np.minimum(lo_y, lo.take(slots[:, k], axis=1), out=lo_y)
            np.maximum(hi_y, hi.take(slots[:, k], axis=1), out=hi_y)
        a = np.abs(r_y) if abs_y is None else abs_y
        np.subtract(a, lo_y, out=lo_y)
        np.subtract(hi_y, a, out=hi_y)
        return np.maximum(lo_y, hi_y, out=lo_y)

    def strict(y, cells):
        out = np.abs(y - r_z[:, :, 0].take(cells, axis=1))
        for j in range(1, r_z.shape[2]):
            np.maximum(out, np.abs(y - r_z[:, :, j].take(cells, axis=1)),
                       out=out)
        return out

    out = strict(r_y, slots[:, 0])
    for k in range(1, slots.shape[1]):
        sel = np.flatnonzero(slots[:, k] != slots[:, k - 1])   # not padding
        out[:, sel] = np.maximum(out[:, sel],
                                 strict(r_y.take(sel, axis=1), slots[sel, k]))
    return out


def _node_blocks(table: np.ndarray, z_per_cell: int) -> list:
    """[(nodes, cells, slots)] per block: the nodes, ordered by first cell
    in the (M, K) `Covering.node_cells` table and then by index, the cells
    they lie in, ascending, and their table rows as positions in `cells`.

    A block takes consecutive first cells while its nodes plus z_per_cell
    per first cell fit _BLOCK_ENTRIES / M; on a partition it is a run of
    consecutive nonempty cells.  The nodes no cell holds are a block of
    their own, with no cells.
    """
    M = table.shape[0]
    order = np.argsort(table[:, 0], kind="stable")
    first, starts = np.unique(table[order, 0], return_index=True)
    bounds = np.append(starts, M)
    blocks = []
    if first[0] < 0:
        nodes = order[:bounds[1]]
        blocks.append((nodes, first[:0], table[nodes]))
        bounds = bounds[1:]
    budget = max(1, _BLOCK_ENTRIES // M)
    for k0, k1 in _chunks(np.diff(bounds) + z_per_cell, budget):
        nodes = order[bounds[k0]:bounds[k1]]
        rows = table[nodes]
        cells = np.unique(rows)
        blocks.append((nodes, cells, np.searchsorted(cells, rows)))
    return blocks


def _osc_stream(R: Kernel, cov: Covering, grid: QuadGrid, z_per_cell: int,
                comparison: str, seed: int, reduce, fold,
                threads: int = 1) -> None:
    """fold(reduce(nodes, osc, amp)) for every block of nodes, in block
    order: osc (M, Y) holds the sampled oscillation columns of the nodes,
    amp (M, Y) the moduli of their columns of R; both may be overwritten.

    The GEMMs always run on the calling thread.  With threads > 1,
    threads - 1 workers (no more than the CPU count allows) reduce earlier
    blocks meanwhile; at most `threads` blocks are in flight.
    """
    if comparison not in ("strict", "phase_aligned"):
        raise OscillationError(f"unknown comparison {comparison!r}")
    aligned = comparison == "phase_aligned"
    z_sets = _cell_z_samples(cov, z_per_cell, seed)
    pts = grid.points

    def gemms(block):
        nodes, cells, _ = block
        zs = z_sets[cells].reshape(-1, pts.shape[1])
        return (R.node_block(grid, slice(None), nodes),
                R.block(pts, zs) if cells.size else None)

    def osc(block, r_y, r_z):
        nodes, cells, slots = block
        amp = np.abs(r_y)
        if r_z is None:                     # Q_y is empty
            return reduce(nodes, np.zeros(amp.shape), amp)
        r_z = r_z.reshape(len(pts), cells.size, z_per_cell)
        return reduce(nodes, _pair_osc(r_y, r_z, slots, aligned, amp), amp)

    blocks = _node_blocks(cov.node_cells(), z_per_cell)
    threads = min(threads, len(blocks), os.cpu_count() or 1)
    if threads <= 1:
        for b in blocks:
            fold(osc(b, *gemms(b)))
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        pending = deque()
        for b in blocks:
            pending.append(pool.submit(osc, b, *gemms(b)))
            if len(pending) >= threads:
                fold(pending.popleft().result())
        while pending:
            fold(pending.popleft().result())


def osc_matrix(R: Kernel, cov: Covering, grid: QuadGrid, z_per_cell: int = 4,
               comparison: str = "strict", seed: int = 0) -> np.ndarray:
    """The sampled oscillation osc_U(x, y) at all grid nodes x, y, (M, M):
    the columns that `osc_norm_streaming` reduces."""
    out = np.empty((grid.size, grid.size))

    def fold(res):
        nodes, vals = res
        out[:, nodes] = vals

    _osc_stream(R, cov, grid, z_per_cell, comparison, seed,
                lambda nodes, vals, amp: (nodes, vals), fold)
    return out


class OscNorm(float):
    """||osc_U | A_m||, the value of `osc_norm_streaming`; its `r_norm` is
    ||R | A_m||, summed from the same streamed y-columns of R."""

    def __new__(cls, delta: float, r_norm: float):
        out = super().__new__(cls, delta)
        out.r_norm = r_norm
        return out


def osc_norm_streaming(R: Kernel, cov: Covering, grid: QuadGrid,
                       m: AdmissibleWeight, z_per_cell: int = 4,
                       comparison: str = "strict", seed: int = 0,
                       threads: int = 1) -> OscNorm:
    """||osc_U | A_m|| without materializing the M x M oscillation matrix.

    Streams the oscillation columns in blocks of nodes (module docstring).
    The same y-columns R(., y) also give ||R | A_m|| (the `r_norm` of the
    result): every node's column of |R| m enters the row and column sums
    once.  `threads` sizes the pool that reduces the blocks; the result
    does not depend on it.
    """
    if threads < 1:
        raise OscillationError(f"threads must be >= 1, got {threads}")
    pts, w = grid.points, grid.weights
    M = grid.size
    row_acc = np.zeros(M)
    col_val = np.zeros(M)
    r_row = np.zeros(M)
    r_col = np.zeros(M)

    def reduce(nodes, vals, amp):
        wy = w[nodes]
        if not m.trivial:
            mm = m(pts, pts[nodes])
            amp *= mm
            vals *= mm
        return nodes, vals @ wy, w @ vals, (amp @ wy, w @ amp)

    def fold(res):
        nodes, rows, cols, (r_rows, r_cols) = res
        np.add(row_acc, rows, out=row_acc)
        col_val[nodes] = cols
        np.add(r_row, r_rows, out=r_row)
        r_col[nodes] = r_cols

    _osc_stream(R, cov, grid, z_per_cell, comparison, seed, reduce, fold,
                threads)
    return OscNorm(max(row_acc.max(), col_val.max()),
                   float(max(r_row.max(), r_col.max())))


def property_D_check(family: FrameFamily, cov: Covering, m: AdmissibleWeight,
                     grid: QuadGrid, z_per_cell: int = 4, seed: int = 0,
                     comparison: str | None = None,
                     rel_cut: float = 1e-10, threads: int = 1) -> OscReport:
    """Assemble the discretization report for one covering.

    delta_est = ||osc_U | A_m|| (sampled sup), sigma and the threshold value
    delta (||R|| + sigma) with the three flags.  One pass over the Gramian
    gives both norms: `osc_norm_streaming` sums ||R | A_m|| from the
    y-columns it evaluates for the oscillation anyway.  Deterministic given
    seed, whatever the number of `threads` reducing the oscillation blocks.
    """
    if comparison is None:
        comparison = "phase_aligned" if family.phase_quotient else "strict"
    R = gram_kernel(family, grid, rel_cut=rel_cut)
    delta = osc_norm_streaming(R, cov, grid, m, z_per_cell=z_per_cell,
                               comparison=comparison, seed=seed,
                               threads=threads)
    r_norm = delta.r_norm
    if not np.isfinite(r_norm):
        raise OscillationError("||R|A_m|| is not finite at this truncation")
    delta = float(delta)
    c_m_u = weight_sup_on_cells(cov, m)
    sigma = max(c_m_u * r_norm, r_norm + delta)
    cond = delta * (r_norm + sigma)
    return OscReport(
        delta_est=delta, r_norm=r_norm, c_m_u=c_m_u, sigma=sigma,
        cond_value=cond, full=bool(cond <= 1.0), atomic_only=bool(delta <= 1.0),
        banach_only=bool(delta <= 1.0 / r_norm if r_norm > 0 else True),
        comparison=comparison, z_per_cell=z_per_cell, seed=seed,
        covering_descriptor=dict(cov.descriptor))


@dataclass(frozen=True)
class RefinementStep:
    level: int
    cells: int
    grid_nodes: int
    report: OscReport


def refine_until(family: FrameFamily, domain, m: AdmissibleWeight,
                 target: str = "full", max_levels: int = 8,
                 initial_cell=None, overlap: float = 0.0,
                 nodes_per_cell_axis: int = 2, z_per_cell: int = 4,
                 seed: int = 0, max_cells: int = 40000,
                 rel_cut: float = 1e-10, threads: int = 1):
    """Dyadic refinement until the target flag holds.

    Rebuilds a matched index grid per level (`nodes_per_cell_axis` quadrature
    nodes per cell side) and halves cell sides each level.  Returns
    (covering, report, trajectory); raises OscillationError with the
    trajectory attached when the target is not reached.
    """
    if max_levels < 1:
        raise OscillationError("max_levels must be >= 1")
    if target not in ("full", "atomic", "banach"):
        raise OscillationError(f"unknown target {target!r}")
    domain = np.asarray(domain, dtype=float)
    if initial_cell is None:
        initial_cell = [(hi - lo) / 4.0 for lo, hi in domain]
    if np.isscalar(initial_cell):
        initial_cell = [float(initial_cell)] * domain.shape[0]

    trajectory = []
    for level in range(max_levels + 1):
        cell = [s / 2 ** level for s in initial_cell]
        n_cells = int(np.prod([max(1, round((hi - lo) / c))
                               for (lo, hi), c in zip(domain, cell)]))
        if n_cells > max_cells:
            raise OscillationError(
                f"refinement level {level} needs {n_cells} cells "
                f"(> max_cells={max_cells}); trajectory: "
                f"{[(s.level, s.report.delta_est) for s in trajectory]}")
        resolution = [max(1, round((hi - lo) / c)) * nodes_per_cell_axis
                      for (lo, hi), c in zip(domain, cell)]
        grid = default_index_grid(family, bounds=domain.tolist(),
                                  resolution=resolution)
        cov = build_covering(grid, cell, overlap_fraction=overlap)
        rep = property_D_check(family, cov, m, grid, z_per_cell=z_per_cell,
                               seed=seed, rel_cut=rel_cut, threads=threads)
        trajectory.append(RefinementStep(level=level, cells=cov.size,
                                         grid_nodes=grid.size, report=rep))
        hit = {"full": rep.full, "atomic": rep.atomic_only,
               "banach": rep.banach_only}[target]
        if hit:
            return cov, rep, trajectory
    raise OscillationError(
        f"target {target!r} not reached in {max_levels} levels; delta trajectory: "
        f"{[round(s.report.delta_est, 5) for s in trajectory]}")
