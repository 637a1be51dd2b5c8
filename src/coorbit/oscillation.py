"""Oscillation kernel, the D[delta, m] property and refinement driver.

The oscillation of the Gramian over a covering,
    osc_U(x, y) = sup_{z in Q_y} |R(x, y) - R(x, z)|,
where Q_y is the union of the cells that hold y, is estimated with per-cell
deterministic z-samples (the sup is sampled, so delta_est is a lower bound
of the true oscillation norm; the report records the sample density).  A
node that no cell holds has an empty Q_y and a zero column.  Cell i draws
its z-samples from numpy's PCG64 stream seeded by [seed, i];
`_cell_z_samples` replays those streams for all cells at once in integer
array arithmetic, bit for bit, without importing numpy.random.

Modulation families (gabor, alpha_mod) drop the torus phase of the
underlying index group.  Their sampled systems and every reconstruction
operator are invariant under that quotient, but the raw kernel difference is
not: it picks up a pure-gauge phase term growing with the distance from the
phase-plane origin.  For those families the oscillation comparison is
therefore taken modulo a unimodular factor,
    osc(x, y) = sup_z | |R(x, y)| - |R(x, z)| |,
(the best phase-aligned comparison), which is the quotient image of the
group-covering oscillation.  `property_D_check` records the family's mode
in the report; the stream's `comparison="strict"` is the literal difference.

One routine streams the oscillation whatever the covering: a node y is
compared against the z-samples of every cell in its row of
`Covering.node_cells`.  Nodes go in the order of their first cell, cut at
cell boundaries into column chunks; the nodes no cell holds are a chunk of
their own.  A unit is one row tile of x-nodes against one column chunk.
A chunk's `_CHUNK_COLS` budget counts its nodes and `z_per_cell` per first
cell (`_column_chunks`); a node on a face shared by cells adds their
z-samples beyond it (320 columns on a 40 x 40 gabor grid at cell 0.625,
z 4).  No ladder node lies on a face: at z 3 its chunks are at most 252
columns at levels 0-3, at overlap 0 and 0.25.

The stream takes a kernel with node factors R = s C^H C on `cov.grid` and
a column factor (the Gramian) and refuses any other.  The column factors of
all z-samples are built once per level (`Kernel.col_factor`; a Gramian's
synthesizes their atoms and maps them in column blocks on the `threads`
that `gram_kernel` was given), before any unit runs.  The calling thread
then checks the factors once (`Kernel._check_factors`) and gathers each
chunk's columns of s conj(C), its nodes' and its z-samples'.  A unit is
then one GEMM of a chunk against a tile of about `_TILE_ROWS` columns of
C, in the factors' dtype (float64 for a family with real atoms), whose
entries s C_y^H C_x = conj R(x, y) have the moduli and the differences'
moduli of R; then the moduli, the z min and max (or the strict
differences), a `take` gather of each node's cells and the row and column
sums, every intermediate a temporary of the unit, so at most `threads`
units' temporaries are in flight.  The units run on `threads`
(`kernel_algebra._on_pool`): in tile order, then chunk order, each free
thread claims the next one; the workers run numpy and the weight m, never
`Kernel.block` or `FrameFamily.atoms`.  Unit results are folded
in that same order, so the result does not depend on the thread count.

`osc_matrix` keeps the values.  `osc_norm_streaming` reduces each unit to
its row and column sums of osc m and of |R| m: ||R | A_m|| comes from the
same pass over the Gramian.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .coverings import Covering, ModerationReport, _chunks, build_covering, \
    verify_moderate
from .kernel_algebra import Kernel, _even_blocks, _on_pool
from .measure_space import AdmissibleWeight
from .frame_families import FrameFamily, default_index_grid, gram_kernel


# one unit: a row tile of about _TILE_ROWS x-nodes against a column chunk
# budgeted at _CHUNK_COLS columns (module docstring).  At that width its
# product is 2 MB complex (1 MB for a real Gramian) and each real array about
# 0.6 MB, near a core's L2 cache; smaller units measured slower at two
# threads, larger ones slower at one (BENCH_osc_tiles.json)
_TILE_ROWS = 512
_CHUNK_COLS = 256


class OscillationError(ValueError):
    pass


@dataclass(frozen=True)
class OscReport:
    delta_est: float
    r_norm: float                 # ||R | A_m||
    moderation: ModerationReport  # of the covering, C_{m,U} included
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
            "c_m_u": self.moderation.c_m_u, "sigma": self.sigma,
            "cond_value": self.cond_value, "full": self.full,
            "atomic_only": self.atomic_only, "banach_only": self.banach_only,
            "comparison": self.comparison, "z_per_cell": self.z_per_cell,
            "seed": self.seed, "covering": self.covering_descriptor,
            "caveat": self.caveat,
        }


# numpy's SeedSequence hash (numpy.random.bit_generator) and PCG64 constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = np.uint64(_MASK32)
_S32 = np.uint64(32)
# PCG64's 128-bit multiplier as (high, low) uint64 words, and the low
# word's 32-bit halves for the widening product
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO1, _PCG_MULT_LO0 = _PCG_MULT_LO >> _S32, _PCG_MULT_LO & _M32


def _cell_z_samples(cov: Covering, z_per_cell: int, seed: int) -> np.ndarray:
    """Nested deterministic z-streams, (cells, z_per_cell, d).

    Stream contract: the samples of cell i are lo + u (hi - lo), lo and hi
    the cell's corners, where u is
        np.random.Generator(np.random.PCG64([seed, i])).random((z_per_cell, d)),
    the first z_per_cell * d doubles of cell i's stream in C order.  So
    enlarging z_per_cell only appends samples (the sampled sup is monotone
    in z_per_cell), and no cell's points depend on another cell.

    The streams are replayed for all cells at once in unsigned-integer array
    arithmetic, bit for bit, without importing numpy.random:
    - SeedSequence([seed, i]): the entropy words are the 32-bit words of
      seed (least significant first, [0] for 0) followed by i (one word,
      as a covering holds fewer than 2^32 cells); a pool of 4
      uint32 words takes them through hashmix and mix, and
      generate_state(4, uint64) hashes the pool into the PCG64 seed;
    - PCG64 is a 128-bit LCG, held as (high, low) uint64 word pairs; each
      draw steps it and outputs the XSL-RR rotation of high ^ low;
    - a double is (x >> 11) 2^-53.
    The hash constants depend only on the number of entropy words, the same
    for every cell, so they are Python ints and only the pool is an array.
    uint32 and uint64 array operations wrap silently, as the C code does.
    """
    if z_per_cell < 1:
        raise OscillationError("z_per_cell must be >= 1")
    seed = operator.index(seed)
    if seed < 0:
        raise OscillationError(f"seed must be >= 0, got {seed}")
    n, d = cov.size, cov.cells.shape[1]
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    entropy = [np.full(n, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(n, dtype=np.uint32))
    x_hi, x_lo, inc_hi, inc_lo = _seeded_pcg64(entropy)
    u = np.empty((n, z_per_cell * d))
    for k in range(u.shape[1]):
        x_hi, x_lo = _pcg_step(x_hi, x_lo, inc_hi, inc_lo)
        rot = x_hi >> np.uint64(58)
        out = x_hi ^ x_lo
        out = (out >> rot) | (out << ((np.uint64(64) - rot) & np.uint64(63)))
        u[:, k] = (out >> np.uint64(11)).astype(np.float64)
    u *= 2.0 ** -53
    u = u.reshape(n, z_per_cell, d)
    lo = cov.cells[:, None, :, 0]
    hi = cov.cells[:, None, :, 1]
    return lo + u * (hi - lo)


def _hashmix(value: np.ndarray, const: int,
             mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of a uint32 array (with `_MULT_B`, the hash of
    generate_state); returns it and the next hash constant."""
    value = value ^ np.uint32(const)
    const = (const * mult) & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _seeded_pcg64(entropy: list) -> tuple:
    """SeedSequence(entropy words) -> seeded PCG64, per cell: (state high,
    state low, increment high, increment low)."""
    n = entropy[0].size
    const = _INIT_A
    pool = []
    for k in range(_POOL):
        word = entropy[k] if k < len(entropy) else np.zeros(n, dtype=np.uint32)
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            h, const = _hashmix(entropy[src], const)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(4, uint64): 8 hashed words, little-endian word pairs
    const = _INIT_B
    state = []
    for k in range(2 * _POOL):
        v, const = _hashmix(pool[k % _POOL], const, _MULT_B)
        state.append(v.astype(np.uint64))
    s = [state[2 * j] | (state[2 * j + 1] << _S32) for j in range(4)]
    # pcg64_set_seed: initstate (s0, s1), initseq (s2, s3) as (high, low);
    # inc = initseq << 1 | 1, state = 0, step, add initstate, step
    one = np.uint64(1)
    inc_hi = (s[2] << one) | (s[3] >> np.uint64(63))
    inc_lo = (s[3] << one) | one
    lo = inc_lo + s[1]
    hi = inc_hi + s[0] + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * PCG_MULT + inc modulo 2^128 on (high, low) uint64 arrays."""
    # high word of the 64 x 64 -> 128 product lo * mult_lo, by 32-bit halves
    a1, a0 = lo >> _S32, lo & _M32
    p01, p10 = a0 * _PCG_MULT_LO1, a1 * _PCG_MULT_LO0
    mid = ((a0 * _PCG_MULT_LO0) >> _S32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * _PCG_MULT_LO1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    new_lo = lo * _PCG_MULT_LO
    new_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry
    out_lo = new_lo + inc_lo
    return new_hi + inc_hi + (out_lo < new_lo), out_lo


def _pair_osc(r_y: np.ndarray, r_z: np.ndarray, slots: np.ndarray,
              aligned: bool, abs_y: np.ndarray | None = None) -> np.ndarray:
    """Per node y, the sup of the (phase-aligned) difference over the
    z-samples of its cells at every x, (Y, M): row j is the column
    osc_U(., y_j), so every intermediate is a run of contiguous rows.

    r_y (Y, M) holds R(x, y) in row y, r_z (C, Z, M) the rows of the Z
    z-samples of C cells; row j of slots (Y, K) lists the cells of y_j,
    padded by repeating the last (min and max are idempotent).  The aligned
    sup is max(|a| - min |b|, max |b| - |a|) over the z of all those cells:
    rounding is monotone, so this is max_z | |a| - |b_z| | bit for bit.
    `abs_y`, when given, is |r_y| already computed by the caller.
    """
    if aligned:
        b = np.abs(r_z)
        lo = np.minimum.reduce(b, axis=1)
        hi = np.maximum.reduce(b, axis=1)
        lo_y = np.take(lo, slots[:, 0], axis=0)
        hi_y = np.take(hi, slots[:, 0], axis=0)
        for k in range(1, slots.shape[1]):
            np.minimum(lo_y, np.take(lo, slots[:, k], axis=0), out=lo_y)
            np.maximum(hi_y, np.take(hi, slots[:, k], axis=0), out=hi_y)
        a = np.abs(r_y) if abs_y is None else abs_y
        np.subtract(a, lo_y, out=lo_y)
        np.subtract(hi_y, a, out=hi_y)
        return np.maximum(lo_y, hi_y, out=lo_y)

    def strict(y, cells):
        out = np.abs(y - np.take(r_z[:, 0], cells, axis=0))
        for j in range(1, r_z.shape[1]):
            np.maximum(out, np.abs(y - np.take(r_z[:, j], cells, axis=0)),
                       out=out)
        return out

    out = strict(r_y, slots[:, 0])
    for k in range(1, slots.shape[1]):
        sel = np.flatnonzero(slots[:, k] != slots[:, k - 1])   # not padding
        out[sel] = np.maximum(out[sel], strict(r_y[sel], slots[sel, k]))
    return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where the runs of equal values of the sorted 1-d `keys` start: the
    first-occurrence indices of np.unique, found without it (np.unique
    imports numpy.ma on its first plain call)."""
    return np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))


def _column_chunks(table: np.ndarray, z_per_cell: int, cols: int) -> list:
    """[(nodes, cells, slots)] per column chunk: the nodes, ordered by first
    cell in the (M, K) `Covering.node_cells` table and then by index, the
    cells they lie in, ascending, and their table rows as positions in
    `cells`.

    A chunk takes consecutive first cells while its nodes plus z_per_cell
    per first cell fit `cols` (a first cell that alone exceeds it is a
    chunk of its own); on a partition it is a run of consecutive nonempty
    cells.  The nodes no cell holds are a chunk of their own, with no cells.
    """
    M = table.shape[0]
    order = np.argsort(table[:, 0], kind="stable")
    keys = table[order, 0]
    starts = _run_starts(keys)
    first = keys[starts]
    bounds = np.append(starts, M)
    chunks = []
    if first[0] < 0:
        nodes = order[:bounds[1]]
        chunks.append((nodes, first[:0], table[nodes]))
        bounds = bounds[1:]
    for k0, k1 in _chunks(np.diff(bounds) + z_per_cell, cols):
        nodes = order[bounds[k0]:bounds[k1]]
        rows = table[nodes]
        cells = np.sort(rows, axis=None)
        cells = cells[_run_starts(cells)]
        chunks.append((nodes, cells, np.searchsorted(cells, rows)))
    return chunks


def _osc_stream(R: Kernel, cov: Covering, z_per_cell: int, comparison: str,
                seed: int, reduce, fold=None, threads: int = 1) -> None:
    """fold(reduce(rows, nodes, osc, amp)) for every unit, in unit order
    (module docstring): row j of osc (Y, T) holds the sampled oscillation
    osc_U(x, y_j) at the x of the row tile `rows` (a slice of grid nodes),
    for the chunk's `nodes` y_j, and amp (Y, T) the moduli |R(x, y_j)|.
    Both are the unit's own temporaries: reduce may overwrite them.

    R must have node factors and a column factor on `cov.grid`; the units
    run on `threads` (`_on_pool`).
    """
    if comparison not in ("strict", "phase_aligned"):
        raise OscillationError(f"unknown comparison {comparison!r}")
    if R.node_factors is None or R.col_factor is None \
            or cov.grid is not R.native_grid:
        raise OscillationError(
            f"the oscillation stream needs node factors and a column factor "
            f"on the kernel's native grid ({R.provenance})")
    aligned = comparison == "phase_aligned"
    z_sets = _cell_z_samples(cov, z_per_cell, seed)
    c, scale = R.node_factors()
    v_z = R.col_factor(z_sets.reshape(-1, cov.grid.dim))
    R._check_factors(c, c, scale)
    R._check_factors(c, v_z, scale)
    zs = np.arange(z_per_cell)
    chunks = []
    for nodes, cells, slots in _column_chunks(cov.node_cells(), z_per_cell,
                                              _CHUNK_COLS):
        # the chunk's columns of C, its nodes' then its z-samples', scaled,
        # conjugated and transposed once here, not per tile
        z_cols = (cells[:, None] * z_per_cell + zs).ravel()
        right = np.concatenate([c[:, nodes], v_z[:, z_cols]], axis=1)
        right *= scale
        chunks.append((nodes, cells, slots, np.conj(right, out=right).T))

    def work(unit):
        """conj R(x, y) and conj R(x, z) for the x in t0:t1, one row per y
        and z, and the unit's reduction."""
        t0, t1, (nodes, cells, slots, right) = unit
        prod = right @ c[:, t0:t1]
        r_y = prod[:nodes.size]
        amp = np.abs(r_y)
        if not cells.size:                  # Q_y is empty
            osc = np.zeros(amp.shape)
        else:
            osc = _pair_osc(r_y, prod[nodes.size:].reshape(
                cells.size, z_per_cell, t1 - t0), slots, aligned, amp)
        return reduce(slice(t0, t1), nodes, osc, amp)

    units = [(t0, t1, chunk) for t0, t1 in _even_blocks(c.shape[1], _TILE_ROWS)
             for chunk in chunks]
    _on_pool(units, threads, work, fold)


def osc_matrix(R: Kernel, cov: Covering, z_per_cell: int = 4,
               comparison: str = "strict", seed: int = 0) -> np.ndarray:
    """The sampled oscillation osc_U(x, y) at all nodes x, y of `cov.grid`,
    (M, M): the values that `osc_norm_streaming` reduces."""
    out = np.empty((cov.grid.size, cov.grid.size))

    def reduce(rows, nodes, vals, amp):
        out[rows, nodes] = vals.T

    _osc_stream(R, cov, z_per_cell, comparison, seed, reduce)
    return out


class OscNorm(float):
    """||osc_U | A_m||, the value of `osc_norm_streaming`; its `r_norm` is
    ||R | A_m||, summed from the same streamed y-columns of R."""

    def __new__(cls, delta: float, r_norm: float):
        out = super().__new__(cls, delta)
        out.r_norm = r_norm
        return out


def osc_norm_streaming(R: Kernel, cov: Covering, m: AdmissibleWeight,
                       z_per_cell: int = 4, comparison: str = "strict",
                       seed: int = 0, threads: int = 1) -> OscNorm:
    """||osc_U | A_m|| without materializing the M x M oscillation matrix.

    Streams the oscillation in units of a row tile against a column chunk
    (module docstring).  The same values R(x, y) also give ||R | A_m|| (the
    `r_norm` of the result): every node's column of |R| m enters the row
    and column sums once.  A row tile's sums accumulate over the chunks in
    chunk order, a node's column sums over the tiles in tile order.  The
    z-samples' column factors are built once, before the units, and
    `threads` sizes the pool that runs the units; the result does not
    depend on it.  R must have node factors and a column factor on
    `cov.grid`, as the Gramian of `gram_kernel` does; any other kernel
    raises OscillationError.
    """
    if threads < 1:
        raise OscillationError(f"threads must be >= 1, got {threads}")
    pts, w = cov.grid.points, cov.grid.weights
    M = cov.grid.size
    row_acc = np.zeros(M)
    col_val = np.zeros(M)
    r_row = np.zeros(M)
    r_col = np.zeros(M)

    def reduce(rows, nodes, vals, amp):
        wx, wy = w[rows], w[nodes]
        if not m.trivial:
            mm = m(pts[rows], pts[nodes]).T
            amp *= mm
            vals *= mm
        return rows, nodes, (wy @ vals, vals @ wx), (wy @ amp, amp @ wx)

    def fold(res):
        rows, nodes, (o_rows, o_cols), (r_rows, r_cols) = res
        row_acc[rows] += o_rows
        col_val[nodes] += o_cols
        r_row[rows] += r_rows
        r_col[nodes] += r_cols

    _osc_stream(R, cov, z_per_cell, comparison, seed, reduce, fold, threads)
    return OscNorm(max(row_acc.max(), col_val.max()),
                   float(max(r_row.max(), r_col.max())))


def property_D_check(family: FrameFamily, cov: Covering, m: AdmissibleWeight,
                     z_per_cell: int = 4, seed: int = 0,
                     rel_cut: float = 1e-10, threads: int = 1) -> OscReport:
    """Assemble the discretization report for one covering, on its grid.

    delta_est = ||osc_U | A_m|| (sampled sup), sigma and the threshold value
    delta (||R|| + sigma) with the three flags; the comparison is the
    family's (module docstring), C_{m,U} that of the covering's moderation
    report, which the result keeps.  One pass over the Gramian gives both
    norms: `osc_norm_streaming` sums ||R | A_m|| from the y-columns it
    evaluates for the oscillation anyway.  Deterministic given seed,
    whatever the number of `threads` running the Gramian's column stages
    (`gram_kernel`) and the oscillation units.
    """
    comparison = "phase_aligned" if family.phase_quotient else "strict"
    R = gram_kernel(family, cov.grid, rel_cut=rel_cut, threads=threads)
    delta = osc_norm_streaming(R, cov, m, z_per_cell=z_per_cell,
                               comparison=comparison, seed=seed,
                               threads=threads)
    r_norm = delta.r_norm
    if not np.isfinite(r_norm):
        raise OscillationError("||R|A_m|| is not finite at this truncation")
    delta = float(delta)
    moderation = verify_moderate(cov, m)
    sigma = max(moderation.c_m_u * r_norm, r_norm + delta)
    cond = delta * (r_norm + sigma)
    return OscReport(
        delta_est=delta, r_norm=r_norm, moderation=moderation, sigma=sigma,
        cond_value=cond, full=bool(cond <= 1.0), atomic_only=bool(delta <= 1.0),
        banach_only=bool(delta <= 1.0 / r_norm if r_norm > 0 else True),
        comparison=comparison, z_per_cell=z_per_cell, seed=seed,
        covering_descriptor=dict(cov.descriptor))


@dataclass(frozen=True)
class RefinementStep:
    level: int
    cells: int
    report: OscReport


NODES_PER_CELL_AXIS = 2      # quadrature nodes per cell side at every level
MAX_CELLS = 40000            # most cells of one refinement level


def refine_until(family: FrameFamily, domain, m: AdmissibleWeight,
                 target: str = "full", max_levels: int = 8,
                 initial_cell=None, overlap: float = 0.0, z_per_cell: int = 4,
                 seed: int = 0, rel_cut: float = 1e-10, threads: int = 1):
    """Dyadic refinement until the target flag holds.

    Rebuilds a matched index grid per level (`NODES_PER_CELL_AXIS`
    quadrature nodes per cell side) and halves cell sides each level.
    Returns (covering, report, trajectory); raises OscillationError with the
    trajectory attached when the target is not reached or a level would
    need more than `MAX_CELLS` cells.
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
        counts = [max(1, round((hi - lo) / c))
                  for (lo, hi), c in zip(domain, cell)]
        n_cells = int(np.prod(counts))
        if n_cells > MAX_CELLS:
            raise OscillationError(
                f"refinement level {level} needs {n_cells} cells "
                f"(more than {MAX_CELLS}); trajectory: "
                f"{[(s.level, s.report.delta_est) for s in trajectory]}")
        grid = default_index_grid(family, bounds=domain.tolist(), resolution=[
            k * NODES_PER_CELL_AXIS for k in counts])
        cov = build_covering(grid, cell, overlap_fraction=overlap)
        rep = property_D_check(family, cov, m, z_per_cell=z_per_cell,
                               seed=seed, rel_cut=rel_cut, threads=threads)
        trajectory.append(RefinementStep(level=level, cells=cov.size, report=rep))
        hit = {"full": rep.full, "atomic": rep.atomic_only,
               "banach": rep.banach_only}[target]
        if hit:
            return cov, rep, trajectory
    raise OscillationError(
        f"target {target!r} not reached in {max_levels} levels; delta trajectory: "
        f"{[round(s.report.delta_est, 5) for s in trajectory]}")
