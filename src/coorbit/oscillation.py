"""Oscillation kernel, the D[delta, m] property and refinement driver.

The oscillation of the Gramian over a covering,
    osc_U(x, y) = sup_{z in Q_y} |R(x, y) - R(x, z)|,
is estimated with per-cell deterministic z-samples (the sup is sampled, so
delta_est is a lower bound of the true oscillation norm; the report records
the sample density).

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

`osc_norm_streaming` walks the cells in covering order, grouped into blocks
of consecutive nonempty cells whose y- and z-columns fit a fixed entry
budget (`_BLOCK_ENTRIES` / M columns; a cell larger than that is a block of
its own).  Per block it makes one `R.node_block` call for all y-columns
(grid nodes: a Gramian slices its half factor) and one `R.block` call for
all z-samples (off the grid), always on the calling thread.  The per-cell
sups and the per-cell row and column sums are then computed for the block,
by up to `threads - 1` worker threads while the caller evaluates the next
blocks, and folded into the running sums in cell order; for overlapping
coverings the per-node running maximum is updated in the same order.  The
same y-columns feed the row and column sums of |R| m, so ||R | A_m|| comes
out of this one pass over the Gramian (`property_D_check` makes no other):
a node's column counts once, at its first cell in covering order, and the
columns of nodes that no cell holds are added after the stream.  Block
boundaries depend only on the covering and the grid size, so the result is
the same for every thread count.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coverings import Covering, build_covering, q_set, weight_sup_on_cells
from .kernel_algebra import Kernel
from .measure_space import AdmissibleWeight, QuadGrid
from .frame_families import FrameFamily, default_index_grid, gram_kernel


# complex entries of the two R.block results of one streamed block of cells
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


def _cell_z_samples(cov: Covering, z_per_cell: int, seed: int) -> list:
    """Nested deterministic z-streams, one per cell.

    Points come from a per-cell seeded stream, so enlarging z_per_cell only
    appends samples (the sampled sup is monotone in z_per_cell).
    """
    if z_per_cell < 1:
        raise OscillationError("z_per_cell must be >= 1")
    out = []
    for i in range(cov.size):
        rng = np.random.default_rng(np.random.PCG64([seed, i]))
        u = rng.random((z_per_cell, cov.cells.shape[1]))
        lo = cov.cells[i, :, 0]
        hi = cov.cells[i, :, 1]
        out.append(lo + u * (hi - lo))
    return out


def _pair_osc(r_y: np.ndarray, r_z: np.ndarray, counts, aligned: bool,
              abs_y: np.ndarray | None = None) -> np.ndarray:
    """Per-cell sup over z of the (phase-aligned) difference.

    r_y (M, sum(counts)) holds counts[c] y-columns of cell c, cells side by
    side; r_z (M, C * Z) holds the Z z-columns of each of the C cells in the
    same order.  Returns (M, sum(counts)).  The aligned sup uses
    max(|a| - min_z |b_z|, max_z |b_z| - |a|): rounding is monotone, so this
    equals max_z | |a| - |b_z| | bit for bit without an (M, Y, Z) temporary.
    `abs_y`, when given, is |r_y| already computed by the caller.
    """
    n_cells = len(counts)
    r_z = r_z.reshape(r_z.shape[0], n_cells, r_z.shape[1] // n_cells)
    if aligned:
        b = np.abs(r_z)
        lo, hi = b[:, :, 0], b[:, :, 0]
        for j in range(1, b.shape[2]):
            lo = np.minimum(lo, b[:, :, j])
            hi = np.maximum(hi, b[:, :, j])
        a = np.abs(r_y) if abs_y is None else abs_y
        lo = np.repeat(lo, counts, axis=1)
        hi = np.repeat(hi, counts, axis=1)
        np.subtract(a, lo, out=lo)
        np.subtract(hi, a, out=hi)
        return np.maximum(lo, hi, out=lo)
    out = np.abs(r_y - np.repeat(r_z[:, :, 0], counts, axis=1))
    for j in range(1, r_z.shape[2]):
        np.maximum(out, np.abs(r_y - np.repeat(r_z[:, :, j], counts, axis=1)),
                   out=out)
    return out


def osc_kernel(R: Kernel, cov: Covering, grid: QuadGrid, z_per_cell: int = 4,
               comparison: str = "strict", seed: int = 0) -> Kernel:
    """Oscillation kernel as an evaluator (sampled sup over Q_y)."""
    if comparison not in ("strict", "phase_aligned"):
        raise OscillationError(f"unknown comparison {comparison!r}")
    z_sets = _cell_z_samples(cov, z_per_cell, seed)
    aligned = comparison == "phase_aligned"

    def ev(pr, pc):
        pr = np.atleast_2d(pr)
        pc = np.atleast_2d(pc)
        out = np.zeros((pr.shape[0], pc.shape[0]))
        r_rows_y = R.block(pr, pc)
        for j in range(pc.shape[0]):
            zs = np.concatenate([z_sets[i] for i in q_set(cov, pc[j])]
                                + [pc[j:j + 1]])
            out[:, j] = _pair_osc(r_rows_y[:, j:j + 1], R.block(pr, zs), [1],
                                  aligned)[:, 0]
        return out

    return Kernel(evaluator=ev, provenance=f"oscillation({comparison})",
                  native_grid=grid)


def _cell_blocks(cov: Covering, z_per_cell: int) -> list:
    """Consecutive nonempty cells grouped so that the y- and z-columns of a
    block stay within _BLOCK_ENTRIES / M; a cell never straddles blocks."""
    budget = max(1, _BLOCK_ENTRIES // cov.grid.size)
    blocks, cur, cols = [], [], 0
    for i, idx in enumerate(cov.members):
        if idx.size == 0:
            continue
        if cur and cols + idx.size + z_per_cell > budget:
            blocks.append(cur)
            cur, cols = [], 0
        cur.append(i)
        cols += idx.size + z_per_cell
    if cur:
        blocks.append(cur)
    return blocks


def _stream(blocks: list, gemms, reduce, fold, threads: int) -> None:
    """fold(reduce(block, *gemms(block))) for every block, in block order.

    `gemms` always runs on the calling thread.  With threads > 1, threads - 1
    workers (no more than the CPU count allows) run `reduce` on earlier
    blocks meanwhile; at most `threads` blocks are in flight.
    """
    threads = min(threads, len(blocks), os.cpu_count() or 1)
    if threads <= 1:
        for b in blocks:
            fold(reduce(b, *gemms(b)))
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        pending = deque()
        for b in blocks:
            pending.append(pool.submit(reduce, b, *gemms(b)))
            if len(pending) >= threads:
                fold(pending.popleft().result())
        while pending:
            fold(pending.popleft().result())


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

    Streams blocks of consecutive cells: columns y of each cell are compared
    against the cell's z-samples.  On a partition every node lies in one
    cell; for nodes shared by several cells the running maximum across
    cells realizes the sup over the union Q_y.  The same y-columns R(., y)
    also give ||R | A_m|| (the `r_norm` of the result): each node's column
    of |R| m enters the row and column sums once, at the node's first cell
    in covering order, and the columns of nodes no cell holds are evaluated
    after the stream.  `threads` sizes the pool that reduces the blocks;
    the result does not depend on it.
    """
    if threads < 1:
        raise OscillationError(f"threads must be >= 1, got {threads}")
    aligned = comparison == "phase_aligned"
    z_sets = _cell_z_samples(cov, z_per_cell, seed)
    pts, w = grid.points, grid.weights
    M = grid.size
    members = cov.members
    # every member list side by side in cell order; a block of consecutive
    # cells is the slice span(block) of it
    flat = np.concatenate(members)
    starts = np.cumsum([0] + [idx.size for idx in members])
    remaining = np.bincount(flat, minlength=M)
    overlapping = bool(remaining.max() > 1)
    unheld = np.flatnonzero(remaining == 0)
    # a node's column of |R| m is summed at its first position in `flat`
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    row_acc = np.zeros(M)
    col_val = np.zeros(M)
    r_row = np.zeros(M)
    r_col = np.zeros(M)

    def span(block):
        return slice(starts[block[0]], starts[block[-1] + 1])

    def r_sums(amp, mm, idx):
        """Row and column sums of the columns idx of |R| m; amp holds those
        columns of |R| and is overwritten."""
        amp *= mm
        return idx, amp @ w[idx], w @ amp

    def gemms(block):
        idx = flat[span(block)]
        zs = np.concatenate([z_sets[i] for i in block])
        return idx, R.node_block(grid, slice(None), idx), R.block(pts, zs)

    def reduce(block, idx, r_y, r_z):
        counts = [members[i].size for i in block]
        amp = np.abs(r_y)
        vals = _pair_osc(r_y, r_z, counts, aligned, abs_y=amp)
        mm = m(pts, pts[idx])
        if overlapping:
            sel = first[span(block)]
            return idx, vals, mm, r_sums(amp[:, sel], mm[:, sel], idx[sel])
        r_part = r_sums(amp, mm, idx)
        vals *= mm
        stops = np.cumsum(counts)
        rows = [vals[:, b - c:b] @ w[idx[b - c:b]] for b, c in zip(stops, counts)]
        cols = [w @ vals[:, b - c:b] for b, c in zip(stops, counts)]
        return idx, rows, cols, r_part

    def fold_r(r_part):
        idx, rows, cols = r_part
        np.add(r_row, rows, out=r_row)
        r_col[idx] = cols

    def fold_partition(res):
        idx, rows, cols, r_part = res
        for r in rows:
            np.add(row_acc, r, out=row_acc)
        col_val[idx] = np.concatenate(cols)
        fold_r(r_part)

    osc_cols: dict[int, np.ndarray] = {}

    def fold_overlapping(res):
        idx, vals, mm, r_part = res
        for pos, node in enumerate(idx):
            prev = osc_cols.pop(node, None)
            cur = vals[:, pos] if prev is None else np.maximum(prev, vals[:, pos])
            remaining[node] -= 1
            if remaining[node]:
                osc_cols[node] = cur.copy() if prev is None else cur
                continue
            np.add(row_acc, cur * mm[:, pos] * w[node], out=row_acc)
            col_val[node] = float(np.dot(w, cur * mm[:, pos]))
        fold_r(r_part)

    _stream(_cell_blocks(cov, z_per_cell), gemms, reduce,
            fold_overlapping if overlapping else fold_partition, threads)
    step = max(1, _BLOCK_ENTRIES // M)
    for k in range(0, unheld.size, step):
        idx = unheld[k:k + step]
        fold_r(r_sums(np.abs(R.node_block(grid, slice(None), idx)),
                      m(pts, pts[idx]), idx))
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
