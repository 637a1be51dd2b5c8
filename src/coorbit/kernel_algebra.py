"""Kernel calculus on X x X and the weighted Schur-type algebra norms.

A Kernel is a real- or complex-valued function on pairs of index points
(the Gramian of a family with real atoms is real), evaluated block-wise at
arbitrary points through `block`.  A Gramian also carries its node factors
R = h U V (U = C^H, V = C, the cached half factor), which its consumers
multiply at grid nodes without synthesizing atoms again, and a
`col_factor` that gives V at any points.
Norms are computed by streaming row blocks, so nothing ever materializes an
M x M matrix unless the grid is small enough to cache (<= CACHE_NODE_LIMIT
nodes per side).  A kernel that is Hermitian by construction (the Gramian
R = h C^H C) streams only the upper block triangle: with a symmetric weight
its row and column sums are one and the same vector.  `am_norm` spreads the
`_GEMM_ROWS`-row blocks of a factored kernel over `threads` (`_on_pool`):
each thread writes a block's GEMM and its moduli into one pair of buffers
it owns, and the block sums are folded in block order, so the norm does not
depend on the thread count.
"""
from __future__ import annotations

import csv
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measure_space import AdmissibleWeight, GridError, QuadGrid, WeightOnX

CACHE_NODE_LIMIT = 4096
_ROW_BLOCK = 256
_GEMM_ROWS = 64               # rows of one factored am_norm block
_LOOKUP_ENTRIES = 1 << 18     # point-node distances of one nearest-node block


class KernelError(ValueError):
    pass


@dataclass
class Kernel:
    """Kernel on X x X with an optional sampled-matrix cache.

    evaluator(points_r, points_c) returns the real or complex matrix
    K(points_r[j], points_c[k]).  node_factors(), when given, returns
    (U, V, s) with K = s U V at the nodes of `native_grid`: U is (M, r),
    V is (r, M).  col_factor(points), when given with them, returns the
    (r, P) right factor at any P points: K(x_i, p) = s U[i] col_factor(p).
    `am_norm` multiplies the node factors on their grid, and the oscillation
    stream needs both and refuses a kernel without them.
    `hermitian` marks a kernel with K(x, y) = conj(K(y, x)) by
    construction.  The cache, when built, agrees with the evaluator at
    every node (same code path), and building it is the only mutation;
    reads after that are concurrency-safe.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    provenance: str = "custom"
    native_grid: Optional[QuadGrid] = None
    context: dict = field(default_factory=dict, repr=False)
    node_factors: Optional[Callable[[], tuple]] = field(default=None, repr=False)
    col_factor: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False)
    hermitian: bool = False
    _cache: Optional[np.ndarray] = field(default=None, repr=False)
    # the grid the cache was sampled on, held (not its id, which can be
    # reused by another grid once this one is freed)
    _cache_grid: Optional[QuadGrid] = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def block(self, points_r: np.ndarray, points_c: np.ndarray) -> np.ndarray:
        return self._finite(self.evaluator(np.atleast_2d(points_r),
                                           np.atleast_2d(points_c)))

    def _finite(self, vals) -> np.ndarray:
        vals = np.asarray(vals)
        if not np.all(np.isfinite(vals)):
            raise KernelError(f"non-finite kernel value ({self.provenance})")
        return vals

    def _check_factors(self, u, v, scale) -> None:
        """Raise KernelError unless every entry of s (u @ v) is finite.

        Checks the factors instead of the product: u (., r) and v (r, .)
        must be finite, and 2 r max|u| max|v| max(|s|, 1) below the float
        maximum, so that no partial sum of the GEMM, before or after the
        scaling by s, can overflow.  A NaN anywhere fails the comparison.
        """
        top = (2.0 * u.shape[1] * max(abs(scale), 1.0)
               * float(np.max(np.abs(u), initial=0.0))
               * float(np.max(np.abs(v), initial=0.0)))
        if not top < np.finfo(float).max:
            raise KernelError(f"non-finite kernel value ({self.provenance})")

    def matrix(self, grid: QuadGrid) -> np.ndarray:
        """Full sampled matrix on grid x grid, cached for small grids."""
        if grid.size > CACHE_NODE_LIMIT:
            raise KernelError(
                f"grid with {grid.size} nodes exceeds the {CACHE_NODE_LIMIT}-node "
                "cache bound; use block() streaming instead")
        with self._lock:
            if self._cache is None or self._cache_grid is not grid:
                self._cache = self.block(grid.points, grid.points)
                self._cache_grid = grid
            return self._cache


def _nearest_nodes(points: np.ndarray, grid: QuadGrid) -> np.ndarray:
    """Index of the grid node nearest to each point: the float64 squared
    distance sum((p - x)**2) over the axes, the lowest node index among
    equal distances, so a node maps to itself (grid nodes are distinct).
    Points run in row blocks of at most `_LOOKUP_ENTRIES` point-node
    distances."""
    points = np.atleast_2d(points)
    nodes = grid.points
    rows = max(1, _LOOKUP_ENTRIES // nodes.shape[0])
    out = np.empty(points.shape[0], dtype=np.intp)
    for start in range(0, points.shape[0], rows):
        diff = points[start:start + rows, None, :] - nodes[None, :, :]
        out[start:start + rows] = np.argmin(np.sum(diff * diff, axis=-1), axis=1)
    return out


def kernel_from_matrix(mat: np.ndarray, grid: QuadGrid,
                       provenance: str = "composed") -> Kernel:
    """Wrap a sampled matrix; the evaluator snaps points to their nearest
    nodes (`_nearest_nodes`)."""
    def ev(pr, pc):
        return mat[np.ix_(_nearest_nodes(pr, grid), _nearest_nodes(pc, grid))]

    kern = Kernel(evaluator=ev, provenance=provenance, native_grid=grid)
    kern._cache = mat
    kern._cache_grid = grid
    return kern


@dataclass(frozen=True)
class KernelNormReport:
    a1_norm: float
    am_norm: float
    row_sup: float
    col_sup: float
    grid_descriptor: str
    weight_descriptor: str

    def as_dict(self) -> dict:
        return {
            "a1_norm": self.a1_norm,
            "am_norm": self.am_norm,
            "row_sup": self.row_sup,
            "col_sup": self.col_sup,
            "grid": self.grid_descriptor,
            "weight": self.weight_descriptor,
        }


def _even_blocks(total: int, cap: int) -> list:
    """[(start, stop)] cutting range(total) into the fewest near-equal runs
    of at most `cap`.  No run is a single index unless total is 1: numpy
    multiplies a one-row (or one-column) operand by GEMV, whose rounding
    differs from the GEMM of the whole product."""
    parts = max(1, -(-total // cap))
    cuts = [total * k // parts for k in range(parts + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def _on_pool(blocks: list, threads: int, make, work, fold=None) -> None:
    """fold(work(block, own)) for every block, folded in block order.

    With threads > 1 (no more than the blocks and the CPU count allow) the
    calling thread takes every `threads`-th block and threads - 1 workers
    take the rest, one round of `threads` blocks at a time.  `own` is the
    set of buffers make() allocated once for the thread running the block.
    """
    threads = min(threads, len(blocks), os.cpu_count() or 1)
    local = threading.local()

    def run(block):
        own = getattr(local, "own", None)
        if own is None:
            own = local.own = make()
        return work(block, own)

    fold = fold or (lambda res: None)
    if threads <= 1:
        for b in blocks:
            fold(run(b))
        return
    with ThreadPoolExecutor(max_workers=threads - 1) as pool:
        for r in range(0, len(blocks), threads):
            futures = [pool.submit(run, b) for b in blocks[r + 1:r + threads]]
            fold(run(blocks[r]))
            for fut in futures:
                fold(fut.result())


def am_norm(kern: Kernel, m: AdmissibleWeight, grid: QuadGrid,
            threads: int = 1) -> KernelNormReport:
    """Weighted algebra norm: max of the two sup-integrals of |K| m.

    The essential sup is realized as the max over grid nodes; integrals use
    the grid quadrature.  Streaming over row blocks of grid nodes keeps
    memory at O(block * M).  For a kernel that is Hermitian by construction
    |K| m is symmetric (every AdmissibleWeight is), so its row and column
    sums agree: each row block then evaluates only its columns from the
    block's first row on, adds its row sums to its rows and the column sums
    of its part right of the diagonal block to those columns, and
    row_sup = col_sup.  Other kernels take the full two-sided pass.

    A kernel with node factors K = s U V on this grid runs row blocks of at
    most `_GEMM_ROWS` (`_even_blocks`) on `threads` (`_on_pool`); the
    caller resolves the factors first and checks them once
    (`Kernel._check_factors`).  A block is one GEMM into a buffer of the
    factors' result dtype (float64 for a real Gramian) and its moduli in a
    real buffer of the same rows: each thread allocates the pair once, so
    beside the factors a call holds at most
    threads * _GEMM_ROWS * M * (itemsize + 8) bytes plus O(M) sums (and the
    weight's values on a block, for a non-trivial weight).
    Other kernels, and a factored kernel off its native grid, evaluate
    `Kernel.block` on row blocks of `_ROW_BLOCK` on the calling thread.
    Block sums are folded in block order, so the result does not depend on
    `threads`.
    The trivial weight (`AdmissibleWeight.trivial`) is never evaluated:
    the sums of |K| serve for both norms.
    """
    if threads < 1:
        raise KernelError(f"threads must be >= 1, got {threads}")
    pts, w = grid.points, grid.weights
    M = grid.size
    herm = kern.hermitian
    factors = kern.node_factors() \
        if kern.node_factors is not None and grid is kern.native_grid else None
    if factors is not None:
        kern._check_factors(*factors)
        blocks = _even_blocks(M, _GEMM_ROWS)
    else:
        blocks = [(s, min(s + _ROW_BLOCK, M)) for s in range(0, M, _ROW_BLOCK)]
    row_acc_m, row_acc_1 = np.zeros(M), np.zeros(M)
    col_acc_m, col_acc_1 = np.zeros(M), np.zeros(M)

    def make():
        if factors is None:
            return None
        size = min(M, _GEMM_ROWS) * M
        return np.empty(size, dtype=np.result_type(*factors)), np.empty(size)

    def moduli(start, stop, lo, own):
        """|K| on rows start:stop and columns lo:M, in the thread's buffer."""
        if factors is None:
            return np.abs(kern.block(pts[start:stop], pts[lo:]))
        u, v, scale = factors
        gemm, amp = own
        shape = (stop - start, M - lo)
        prod = np.matmul(u[start:stop], v[:, lo:],
                         out=gemm[:shape[0] * shape[1]].reshape(shape))
        prod *= scale
        return np.abs(prod, out=amp[:prod.size].reshape(shape))

    def work(block, own):
        start, stop = block
        lo = start if herm else 0          # first column evaluated
        right = stop - lo if herm else 0   # offset of the first column summed
        amp = moduli(start, stop, lo, own)
        sums_1 = amp @ w[lo:], w[start:stop] @ amp[:, right:]
        if m.trivial:
            return start, stop, lo + right, sums_1, sums_1
        amp *= m(pts[start:stop], pts[lo:])
        return (start, stop, lo + right, sums_1,
                (amp @ w[lo:], w[start:stop] @ amp[:, right:]))

    def fold(res):
        start, stop, c0, (rows_1, cols_1), (rows_m, cols_m) = res
        row_acc_1[start:stop] += rows_1
        row_acc_m[start:stop] += rows_m
        col_acc_1[c0:] += cols_1
        col_acc_m[c0:] += cols_m

    # kernels without factors stay on the calling thread: their evaluator
    # calls are not for workers
    _on_pool(blocks, threads if factors else 1, make, work, fold)
    if herm:
        row_acc_1 += col_acc_1
        row_acc_m += col_acc_m
        col_acc_1, col_acc_m = row_acc_1, row_acc_m
    row_sup_m, row_sup_1 = float(np.max(row_acc_m)), float(np.max(row_acc_1))
    col_sup_m, col_sup_1 = float(np.max(col_acc_m)), float(np.max(col_acc_1))
    return KernelNormReport(
        a1_norm=max(row_sup_1, col_sup_1),
        am_norm=max(row_sup_m, col_sup_m),
        row_sup=row_sup_m,
        col_sup=col_sup_m,
        grid_descriptor=f"{M} nodes, dim {grid.dim}",
        weight_descriptor=m.descriptor,
    )


def compose(k1: Kernel, k2: Kernel, grid: QuadGrid) -> Kernel:
    """Algebra product (K1 o K2)(x,y) = integral K1(x,z) K2(z,y) dmu(z).

    Materializes both factors on the grid (subject to the cache bound) and
    returns a kernel backed by the weighted matrix product.
    """
    m1 = k1.matrix(grid)
    m2 = k2.matrix(grid)
    prod = (m1 * grid.weights[None, :]) @ m2
    return kernel_from_matrix(prod, grid, provenance="composed")


def involution(kern: Kernel) -> Kernel:
    """K*(x,y) = conj(K(y,x)); an isometry of every A_m norm."""
    def ev(pr, pc):
        return np.conj(kern.block(pc, pr)).T

    out = Kernel(evaluator=ev, provenance=f"involution({kern.provenance})",
                 native_grid=kern.native_grid)
    if kern._cache is not None:
        out._cache = np.conj(kern._cache).T
        out._cache_grid = kern._cache_grid
    return out


def apply_kernel(kern: Kernel, values: np.ndarray, grid: QuadGrid) -> np.ndarray:
    """K(F)(x) = integral F(y) K(x,y) dmu(y) at every grid node; on its
    native grid a kernel with node factors applies s U (V (w F))."""
    values = np.asarray(values)
    if values.shape[0] != grid.size:
        raise GridError("apply_kernel: value list length != grid size")
    weighted = grid.weights * values
    if kern.node_factors is not None and kern.native_grid is grid:
        u, v, s = kern.node_factors()
        return s * (u @ (v @ weighted))
    out = np.empty(grid.size, dtype=complex)
    pts = grid.points
    for start in range(0, grid.size, _ROW_BLOCK):
        rows = slice(start, min(start + _ROW_BLOCK, grid.size))
        out[rows] = kern.block(pts[rows], pts) @ weighted
    return out


def lp_w_norm(values: np.ndarray, p, w: WeightOnX, grid: QuadGrid) -> float:
    """Quadrature norm of F*w in L^p; for p = inf the max over grid nodes."""
    values = np.asarray(values)
    if values.shape[0] != grid.size:
        raise GridError("lp_w_norm: value list length != grid size")
    fw = np.abs(values) * w(grid.points)
    if p == 1:
        return float(np.dot(grid.weights, fw))
    if p == 2:
        return float(np.sqrt(np.dot(grid.weights, fw * fw)))
    if p in (np.inf, "inf", float("inf")):
        return float(np.max(fw))
    raise KernelError(f"p must be 1, 2 or inf, got {p!r}")


def export_kernel_csv(kern: Kernel, grid: QuadGrid, path) -> None:
    """Row-major CSV dump; each cell is the quoted pair "re,im"."""
    mat = kern.matrix(grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for row in mat:
            writer.writerow([f"{float(v.real)!r},{float(v.imag)!r}" for v in row])
