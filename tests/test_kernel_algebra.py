import dataclasses
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coorbit import kernel_algebra
from coorbit.coverings import build_covering
from coorbit.frame_families import default_index_grid, gram_kernel, make_family
from coorbit.kernel_algebra import (Kernel, KernelError, _on_pool, am_norm,
                                    apply_kernel, compose, export_kernel_csv,
                                    involution, kernel_from_matrix, lp_w_norm)
from coorbit.measure_space import (AdmissibleWeight, GridError, QuadGrid,
                                   SignalGrid, build_quad_grid,
                                   polynomial_weight, trivial_admissible_weight,
                                   trivial_weight, weight_from_w)
from coorbit.oscillation import osc_norm_streaming


def gaussian_kernel():
    return Kernel(lambda p, q: np.exp(-(p[:, None, 0] - q[None, :, 0]) ** 2) + 0j,
                  provenance="gaussian")


def random_kernel(rng, scale=1.0):
    a, b, c = rng.uniform(0.5, 2.0, 3)

    def ev(p, q):
        d = p[:, None, 0] - q[None, :, 0]
        s = p[:, None, 0] + q[None, :, 0]
        return scale * np.exp(-a * d * d) * (np.cos(b * s) + 1j * np.sin(c * d))
    return Kernel(ev, provenance="random-test")


class TestAmNorm:
    def test_zero_kernel(self, unit_grid_1d, m_trivial):
        k = Kernel(lambda p, q: np.zeros((p.shape[0], q.shape[0])) + 0j)
        rep = am_norm(k, m_trivial, unit_grid_1d)
        assert rep.a1_norm == 0.0 and rep.am_norm == 0.0

    def test_gaussian_row_integral_is_sqrt_pi(self, wide_grid_1d, m_trivial):
        rep = am_norm(gaussian_kernel(), m_trivial, wide_grid_1d)
        assert rep.a1_norm == pytest.approx(np.sqrt(np.pi), abs=1e-3)

    def test_weighted_norm_dominates(self, wide_grid_1d, rng):
        m = weight_from_w(polynomial_weight(1.0))
        for _ in range(5):
            k = random_kernel(rng)
            rep = am_norm(k, m, wide_grid_1d)
            assert rep.am_norm >= rep.a1_norm - 1e-14
            assert rep.am_norm == max(rep.row_sup, rep.col_sup)

    def test_nonfinite_rejected(self, unit_grid_1d, m_trivial):
        k = Kernel(lambda p, q: np.full((p.shape[0], q.shape[0]), np.inf))
        with pytest.raises(KernelError):
            am_norm(k, m_trivial, unit_grid_1d)


# Gram kernels on small grids, at a cut that keeps every eigenvalue of the
# frame operator S or only some.  Only the Gabor S here has no null
# direction: the cwt wavelet has zero mean and the sinc atoms are band
# limited, so their S has eigenvalues at rounding level that no cut keeps.
TRIANGLE_CASES = [
    ("gabor", None, 4.0, 16, [[-5.0, 5.0], [-8.0, 8.0]], [20, 24], 1e-10, True),
    ("gabor", None, 4.0, 16, [[-5.0, 5.0], [-8.0, 8.0]], [20, 24], 0.6, False),
    ("cwt", None, 8.0, 32, None, None, 1e-10, False),
    ("cwt", None, 8.0, 32, None, None, 0.2, False),
    ("sinc_rkhs", {"bandlimit": np.pi / 2}, 8.0, 32, None, [300], 1e-10, False),
    ("sinc_rkhs", {"bandlimit": 3.0}, 8.0, 16, None, [300], 1e-10, False),
]


class TestHermitianTriangle:
    """am_norm of a Gramian sums the upper block triangle only; it must
    agree with the full two-sided row-block pass."""

    @pytest.fixture(scope="class", params=TRIANGLE_CASES,
                    ids=lambda c: f"{c[0]}-n{c[3]}-cut{c[6]:g}")
    def gram(self, request):
        tag, params, T, n, bounds, res, cut, keeps_all = request.param
        fam = make_family(tag, params, SignalGrid(T, n))
        grid = default_index_grid(fam, bounds=bounds, resolution=res)
        assert bool(fam.calculus(grid).s_eig(cut).kept.all()) == keeps_all
        return grid, gram_kernel(fam, grid, rel_cut=cut)

    @pytest.mark.parametrize("row_block", [16, 256])
    @pytest.mark.parametrize("poly", [False, True])
    def test_triangle_matches_full_pass(self, gram, row_block, poly,
                                        reference_am_norm, monkeypatch):
        monkeypatch.setattr(kernel_algebra, "_GEMM_ROWS", row_block)
        grid, R = gram
        m = weight_from_w(polynomial_weight(1.0)) if poly \
            else trivial_admissible_weight()
        assert R.hermitian
        assert grid.size > row_block          # off-diagonal blocks exist
        ref = reference_am_norm(R, m, grid)
        rep = am_norm(R, m, grid)
        assert rep.row_sup == rep.col_sup
        for key in ("row_sup", "col_sup", "a1_norm", "am_norm"):
            assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-13,
                                                      abs=0.0), key

    def test_general_kernels_take_the_full_pass(self, reference_am_norm,
                                                 monkeypatch):
        # rows peaked at 0.5, columns spread: the row and column sups differ,
        # where a one-sided (triangle) sum would report them equal
        monkeypatch.setattr(kernel_algebra, "_ROW_BLOCK", 16)
        grid = build_quad_grid([[-2.0, 2.0]], [90],
                               measure=lambda p: 1.0 + p[:, 0] ** 2)
        m = weight_from_w(polynomial_weight(1.0))

        def ev(p, q):
            return (np.exp(-8.0 * (p[:, None, 0] - 0.5) ** 2)
                    * np.exp(1j * q[None, :, 0]) * (1.0 + 0.3 * q[None, :, 0]))
        k = Kernel(ev)
        for kern in (k, involution(k), compose(k, k, grid),
                     kernel_from_matrix(k.matrix(grid), grid)):
            assert not kern.hermitian
            ref = reference_am_norm(kern, m, grid)
            rep = am_norm(kern, m, grid)
            for key in ("row_sup", "col_sup", "a1_norm", "am_norm"):
                assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-13,
                                                          abs=0.0), key
            assert abs(rep.row_sup - rep.col_sup) > 0.1 * rep.am_norm

    @pytest.mark.parametrize("row_block", [16, 256])
    @pytest.mark.parametrize("poly", [False, True])
    def test_bit_equal_across_threads(self, gram, row_block, poly,
                                      reference_am_norm, monkeypatch):
        # the factored row blocks of a Gramian run on the thread pool; their
        # sums are folded in block order, so the report is the same bytes
        monkeypatch.setattr(kernel_algebra, "_GEMM_ROWS", row_block)
        grid, R = gram
        m = weight_from_w(polynomial_weight(1.0)) if poly \
            else trivial_admissible_weight()
        reps = [am_norm(R, m, grid, threads=t) for t in (1, 2, 3)]
        assert _bits(reps[0]) == _bits(reps[1]) == _bits(reps[2])
        ref = reference_am_norm(R, m, grid)
        for key in ("row_sup", "col_sup", "a1_norm", "am_norm"):
            assert getattr(reps[1], key) == pytest.approx(ref[key], rel=1e-13,
                                                          abs=0.0), key

    def test_gramians_are_hermitian_by_construction(self, gabor_small):
        fam, grid = gabor_small
        assert gram_kernel(fam, grid, rel_cut=0.2).hermitian
        # the flag comes from how a kernel is built, never from its values
        assert not involution(gram_kernel(fam, grid, rel_cut=0.2)).hermitian
        assert not Kernel(lambda p, q: np.ones((p.shape[0], q.shape[0]))).hermitian

    def test_factor_check_rejects_non_finite(self, unit_grid_1d, m_trivial):
        # both paths that multiply node factors check them first: am_norm
        # and the oscillation stream
        M = unit_grid_1d.size
        cov = build_covering(unit_grid_1d, 0.25)

        def factored(c, scale):
            r = c.shape[0]
            return Kernel(lambda p, q: np.ones((p.shape[0], q.shape[0])),
                          native_grid=unit_grid_1d,
                          node_factors=lambda: (c, scale),
                          col_factor=lambda q: np.ones((r, len(q))))

        nan = factored(np.full((1, M), np.nan), 1.0)
        # finite factors whose product could overflow fail the bound
        big = factored(np.full((2, M), 1e155), 1e-300)
        for k in (nan, big):
            with pytest.raises(KernelError, match="non-finite"):
                am_norm(k, m_trivial, unit_grid_1d)
            with pytest.raises(KernelError, match="non-finite"):
                osc_norm_streaming(k, cov, m_trivial)
        # off its native grid am_norm evaluates the kernel, here all ones
        other = build_quad_grid([[0.0, 1.0]], [64])
        rep = am_norm(nan, m_trivial, other)
        assert rep.a1_norm == pytest.approx(float(other.weights.sum()),
                                            rel=1e-13)


# mirror-closed grids: an even resolution has no node on the mirror axis
# w = 0; 33 or 17 cells of exactly 0.25 on a box centred at 0 have a middle
# row on it.  Only a Gabor tensor grid carries the mirror
MIRROR_CASES = [
    ("gabor", [[-4.0, 4.0], [-4.0, 4.0]], [32, 32], 0),
    ("gabor", [[-4.125, 4.125], [-4.125, 4.125]], [33, 33], 33),
    ("gabor", [[-4.0, 4.0], [-4.0, 4.0]], [16, 16], 0),
    ("gabor", [[-4.25, 4.25], [-4.25, 4.25]], [17, 17], 17),
]


@pytest.mark.parametrize("cut", [0.2, 1e-8])
@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("case", MIRROR_CASES, ids=lambda c: f"{c[2][0]}")
@pytest.mark.parametrize("tag", ["gabor", "alpha_mod"])
def test_mirror_implies_a_conjugate_half_factor(tag, case, n, cut):
    # wherever the calculus sets a mirror, am_norm's mirror half relies on
    # C[:, sigma y] = conj(C[:, y]) in every bit off the mirror axis and a
    # real C on it.  A GEMM over the atoms' float64 view rounds a column
    # and its partner apart in its edge tiles (alpha_mod at 33 x 33, n 64,
    # cut 0.2: 28 of 19008 float64 words), so only the Gabor tensor path,
    # which maps one column per pair and conjugates it, sets the mirror
    _, bounds, res, axis = case
    fam = make_family(tag, None, SignalGrid(8.0, n))
    grid = default_index_grid(fam, bounds=bounds, resolution=res)
    calc = fam.calculus(grid)
    if calc.mirror is None:
        assert tag == "alpha_mod"
        assert calc.half_factor(cut).dtype == np.complex128
        return
    off = calc.mirror != np.arange(grid.size)
    assert int(np.sum(~off)) == axis
    c = calc.half_factor(cut)
    assert c[:, calc.mirror][:, off].tobytes() == c[:, off].conj().tobytes()
    assert np.all(c[:, ~off].imag == 0.0)


def _recording_pool(monkeypatch):
    """The row blocks each `_on_pool` call of am_norm runs."""
    seen = []
    pool = kernel_algebra._on_pool

    def record(blocks, threads, work, fold=None):
        seen.append(list(blocks))
        return pool(blocks, threads, work, fold)

    monkeypatch.setattr(kernel_algebra, "_on_pool", record)
    return seen


class TestMirrorHalf:
    """On a mirror-closed grid a Gramian with the trivial weight streams one
    mirror half; it must agree with the triangle of the same kernel without
    its mirror, and with the plain two-sided loop."""

    @pytest.fixture(scope="class", params=MIRROR_CASES,
                    ids=lambda c: f"{c[0]}-{c[2][0]}")
    def mirrored(self, request):
        tag, bounds, res, axis = request.param
        fam = make_family(tag, None, SignalGrid(8.0, 64))
        grid = default_index_grid(fam, bounds=bounds, resolution=res)
        R = gram_kernel(fam, grid, rel_cut=0.2)
        assert R.mirror is not None
        assert int(np.sum(R.mirror == np.arange(grid.size))) == axis
        return grid, R

    @pytest.mark.parametrize("row_block", [16, 64])
    def test_half_matches_the_triangle(self, mirrored, row_block,
                                       reference_am_norm, monkeypatch):
        monkeypatch.setattr(kernel_algebra, "_GEMM_ROWS", row_block)
        grid, R = mirrored
        m = trivial_admissible_weight()
        seen = _recording_pool(monkeypatch)
        reps = [am_norm(R, m, grid, threads=t) for t in (1, 2, 3)]
        assert _bits(reps[0]) == _bits(reps[1]) == _bits(reps[2])
        # one block per row_block / 2 representatives, x <= sigma x
        half = int(np.sum(R.mirror >= np.arange(grid.size)))
        assert seen[0] == kernel_algebra._even_blocks(half, row_block // 2)
        full = am_norm(dataclasses.replace(R, mirror=None), m, grid)
        ref = reference_am_norm(R, m, grid)
        for key in ("row_sup", "col_sup", "a1_norm", "am_norm"):
            for want in (getattr(full, key), ref[key]):
                assert getattr(reps[0], key) == pytest.approx(
                    want, rel=1e-13, abs=0.0), key

    def test_other_weights_take_the_triangle(self, mirrored, reference_am_norm,
                                             monkeypatch):
        # m(sigma x, sigma y) = m(x, y) is not promised by a weight
        grid, R = mirrored
        m = weight_from_w(polynomial_weight(1.0))
        seen = _recording_pool(monkeypatch)
        rep = am_norm(R, m, grid, threads=2)
        assert seen[0] == kernel_algebra._even_blocks(grid.size,
                                                      kernel_algebra._GEMM_ROWS)
        ref = reference_am_norm(R, m, grid)
        for key in ("row_sup", "col_sup", "a1_norm", "am_norm"):
            assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-13,
                                                      abs=0.0), key

    def test_only_gram_kernel_sets_the_mirror(self, mirrored):
        grid, R = mirrored
        assert R.mirror is R.context["calc"].mirror
        assert involution(R).mirror is None
        assert kernel_from_matrix(R.matrix(grid), grid).mirror is None
        assert compose(R, R, grid).mirror is None


def _bits(rep):
    return json.dumps(rep.as_dict())   # repr round-trips every float


def _factored_kernel(grid, rng, rank=5):
    """A random complex kernel K = s C^H C with node factors (C, s); its
    evaluator looks the same matrix up by node, for the reference pass."""
    c = (rng.standard_normal((rank, grid.size))
         + 1j * rng.standard_normal((rank, grid.size)))
    c *= np.exp(-np.abs(grid.points[:, 0]))[None, :]
    mat = 0.3 * (c.conj().T @ c)
    x = grid.points[:, 0]

    def ev(p, q):
        return mat[np.ix_(np.searchsorted(x, p[:, 0]), np.searchsorted(x, q[:, 0]))]
    return Kernel(ev, native_grid=grid, node_factors=lambda: (c, 0.3))


class TestThreadContract:
    """am_norm spreads the row blocks of a factored kernel over `threads`
    and folds their sums in block order."""

    @pytest.mark.parametrize("row_block", [16, 256])
    @pytest.mark.parametrize("poly", [False, True])
    def test_general_kernels_bit_equal_across_threads(self, row_block, poly,
                                                      reference_am_norm,
                                                      monkeypatch):
        monkeypatch.setattr(kernel_algebra, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(kernel_algebra, "_GEMM_ROWS", row_block)
        grid = build_quad_grid([[-3.0, 3.0]], [600],
                               measure=lambda p: 1.0 + 0.1 * p[:, 0] ** 2)
        m = weight_from_w(polynomial_weight(1.0)) if poly \
            else trivial_admissible_weight()
        kern = _factored_kernel(grid, np.random.default_rng(5))
        plain = Kernel(kern.evaluator)          # no factors: the caller's path
        for k in (kern, plain):
            reps = [am_norm(k, m, grid, threads=t) for t in (1, 2, 3)]
            assert _bits(reps[0]) == _bits(reps[1]) == _bits(reps[2])
            ref = reference_am_norm(k, m, grid)
            for key in ("row_sup", "col_sup", "a1_norm", "am_norm"):
                assert getattr(reps[2], key) == pytest.approx(
                    ref[key], rel=1e-13, abs=0.0), key

    def test_trivial_weight_is_marked_by_construction(self):
        assert trivial_admissible_weight().trivial
        assert not weight_from_w(polynomial_weight(1.0)).trivial
        # a weight of ones built by hand is not marked: it is evaluated
        ones = AdmissibleWeight(lambda p, q: np.ones((p.shape[0], q.shape[0])),
                                descriptor="trivial")
        assert not ones.trivial

    def test_non_finite_factor_raises_on_a_worker(self, gabor_small, monkeypatch):
        monkeypatch.setattr(kernel_algebra, "_GEMM_ROWS", 16)
        fam, grid = gabor_small
        R = gram_kernel(fam, grid, rel_cut=0.2)
        c, h = R.node_factors()
        bad = c.copy()
        bad[:, 20] = np.nan         # row 20: row block 1 of 16, a worker's,
        # rejected by the one factor check before any block runs
        R.node_factors = lambda: (bad, h)
        with pytest.raises(KernelError, match="non-finite"):
            am_norm(R, trivial_admissible_weight(), grid, threads=2)

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_factored_pass_holds_one_block_pair_per_thread(self, gabor_small,
                                                           mirrored):
        # each block in flight holds one GEMM and one moduli array of
        # _GEMM_ROWS rows; every other array is O(M): accumulators and sums.
        # A mirror half streams the representatives' columns of C, gathered
        # once, and its blocks span only those columns
        fam, grid = gabor_small
        if mirrored:
            grid = default_index_grid(fam, bounds=[[-4.125, 4.125]] * 2,
                                      resolution=[33, 33])
        R = gram_kernel(fam, grid, rel_cut=0.2)
        assert (R.mirror is not None) == mirrored
        factors = R.node_factors()          # resolved before the trace
        M, itemsize = grid.size, np.result_type(*factors).itemsize
        tracemalloc.start()
        try:
            am_norm(R, trivial_admissible_weight(), grid, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.size > 2 * kernel_algebra._GEMM_ROWS
        if not mirrored:
            assert peak <= 2 * kernel_algebra._GEMM_ROWS * M * (itemsize + 8) \
                + 16 * M * 8
            return
        half = int(np.sum(R.mirror >= np.arange(M)))
        c_rep = factors[0].shape[0] * half * factors[0].itemsize
        assert peak <= c_rep + 2 * kernel_algebra._GEMM_ROWS * half * (itemsize + 8) \
            + 16 * M * 8

    def test_pool_folds_in_order_on_at_most_the_usable_cores(self):
        # blocks yield between their start and end, so the threads
        # interleave and finish out of order; the fold stays in block order
        ran, folded = set(), []

        def work(block):
            ran.add(threading.get_ident())
            time.sleep(0)
            return block

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _on_pool(list(range(400)), 8, work, folded.append)
        finally:
            sys.setswitchinterval(old)
        assert folded == list(range(400))
        assert len(ran) <= min(8, kernel_algebra._usable_cores())

    def test_pool_is_capped_by_the_usable_cores(self, monkeypatch):
        # a process pinned to one core (taskset, a container's cpuset) runs
        # every block on the calling thread, whatever the CPU count
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        ran = set()

        def work(block):
            ran.add(threading.get_ident())
            return block

        _on_pool(list(range(16)), 4, work)
        assert ran == {threading.get_ident()}

    def test_pool_threads_claim_blocks_as_they_free_up(self, monkeypatch):
        # block 0 waits until every other block has run: a free thread
        # claims the next block at once, where one that waited for a round
        # of `threads` blocks to end would leave them unrun
        monkeypatch.setattr(kernel_algebra, "_usable_cores", lambda: 2)
        blocks = list(range(12))
        others = threading.Event()
        ran, lock = [], threading.Lock()

        def work(block):
            if block == 0:
                return others.wait(timeout=10)
            with lock:
                ran.append(block)
                if len(ran) == len(blocks) - 1:
                    others.set()
            return block

        folded = []
        _on_pool(blocks, 2, work, folded.append)
        assert others.is_set()
        assert folded == [True] + blocks[1:]

    def test_pool_error_in_a_worker_stops_the_claims(self, monkeypatch):
        # a worker's block raises; the caller's block waits until that
        # worker has ended, and then no block is claimed any more
        monkeypatch.setattr(kernel_algebra, "_usable_cores", lambda: 2)
        caller = threading.current_thread()
        failing, started = [], []
        raised = threading.Event()

        def work(block):
            started.append(block)
            if threading.current_thread() is not caller:
                failing.append(threading.current_thread())
                raised.set()
                raise RuntimeError(f"block {block} failed")
            assert raised.wait(timeout=10)
            failing[0].join(timeout=10)
            return block

        with pytest.raises(RuntimeError, match="failed"):
            _on_pool(list(range(100)), 2, work)
        assert len(failing) == 1 and not failing[0].is_alive()
        # the failing block and at most one the caller ran meanwhile
        assert len(started) <= 2

    def test_pool_claims_every_block_once_under_stress(self, monkeypatch):
        # eight threads on however few cores, switching every microsecond:
        # a lost update to the shared claim counter would run a block twice
        # or never, and a lost result would stall or misorder the fold
        monkeypatch.setattr(kernel_algebra, "_usable_cores", lambda: 8)
        blocks = list(range(3000))
        runs = [0] * len(blocks)
        folded = []

        def work(block):
            runs[block] += 1                # each block runs on one thread
            return block

        call = threading.Thread(target=_on_pool, args=(
            blocks, 8, work, folded.append))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            call.start()
            call.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not call.is_alive()
        assert runs == [1] * len(blocks)
        assert folded == blocks

    @pytest.mark.parametrize("fails", [False, True])
    def test_pool_threads_end_with_the_call(self, monkeypatch, fails):
        monkeypatch.setattr(kernel_algebra, "_usable_cores", lambda: 4)
        before = set(threading.enumerate())
        ran = set()

        def work(block):
            ran.add(threading.current_thread())
            if fails and block == 40:
                raise ValueError("block 40")
            time.sleep(0.001)
            return block

        if fails:
            with pytest.raises(ValueError, match="block 40"):
                _on_pool(list(range(64)), 4, work)
        else:
            _on_pool(list(range(64)), 4, work)
        assert set(threading.enumerate()) == before
        assert len(ran) > 1 and not any(t.is_alive() for t in ran - before)

    def test_threads_below_one_rejected(self, unit_grid_1d, m_trivial):
        with pytest.raises(KernelError, match="threads"):
            am_norm(gaussian_kernel(), m_trivial, unit_grid_1d, threads=0)


# Entries are zero or of modulus at least 2**-100, so every product and
# partial sum in the double integral stays a normal float.  Below the normal
# range IEEE arithmetic is accurate only to an absolute 2**-1074, and no
# bound relative to the moduli of the terms can hold there.
_unit = (st.just(0.0) | st.floats(2.0 ** -100, 1.0)
         | st.floats(-1.0, -2.0 ** -100))


@st.composite
def _kernel_triple(draw):
    """A small 1-D grid with positive weights and three complex matrices."""
    n = draw(st.integers(1, 10))
    density = draw(arrays(np.float64, (n,), elements=st.floats(0.25, 4.0)))
    mats = [draw(arrays(np.float64, (n, n), elements=_unit))
            + 1j * draw(arrays(np.float64, (n, n), elements=_unit))
            for _ in range(3)]
    return n, density, mats


@settings(max_examples=100, deadline=None)
@given(_kernel_triple())
def test_compose_is_associative(case):
    n, density, mats = case
    base = build_quad_grid([[0.0, 1.0]], [n])
    grid = QuadGrid(points=base.points, weights=base.weights * density,
                    bounds=base.bounds)
    k1, k2, k3 = (kernel_from_matrix(mat, grid) for mat in mats)
    lhs = compose(compose(k1, k2, grid), k3, grid).matrix(grid)
    rhs = compose(k1, compose(k2, k3, grid), grid).matrix(grid)
    # relative to the sum of the moduli of every term of the double integral
    w = grid.weights[None, :]
    scale = ((np.abs(mats[0]) * w) @ (np.abs(mats[1]) * w) @ np.abs(mats[2])).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


class TestCompose:
    def test_compose_with_zero(self, unit_grid_1d, m_trivial):
        zero = Kernel(lambda p, q: np.zeros((p.shape[0], q.shape[0])) + 0j)
        out = compose(gaussian_kernel(), zero, unit_grid_1d)
        assert np.all(out.matrix(unit_grid_1d) == 0)

    def test_submultiplicative_on_random_pairs(self, rng, m_trivial):
        grid = build_quad_grid([[-3.0, 3.0]], [48])
        m = weight_from_w(polynomial_weight(1.0))
        for _ in range(20):
            k1, k2 = random_kernel(rng), random_kernel(rng)
            prod = compose(k1, k2, grid)
            for weight in (m_trivial, m):
                lhs = am_norm(prod, weight, grid).am_norm
                r1 = am_norm(k1, weight, grid).am_norm
                r2 = am_norm(k2, weight, grid).am_norm
                assert lhs <= r1 * r2 * (1 + 1e-10)

    def test_evaluator_snaps_to_cache(self, unit_grid_1d):
        k = compose(gaussian_kernel(), gaussian_kernel(), unit_grid_1d)
        mat = k.matrix(unit_grid_1d)
        probe = unit_grid_1d.points[5] + 1e-6
        assert k.block(np.array([probe]), np.array([unit_grid_1d.points[7]]))[0, 0] \
            == pytest.approx(mat[5, 7])

    @pytest.mark.parametrize("lookup_entries", [7, 1 << 18])
    def test_evaluator_nearest_node_rule(self, rng, monkeypatch, lookup_entries):
        # entry (i, j) of the wrapped matrix is i * M + j, so a block reads
        # back the nodes each point snapped to; midpoints between lattice
        # nodes tie, and the lowest node index wins
        monkeypatch.setattr(kernel_algebra, "_LOOKUP_ENTRIES", lookup_entries)
        grid = build_quad_grid([[0.0, 3.0], [0.0, 2.0]], [6, 4])
        M, nodes = grid.size, grid.points
        kern = kernel_from_matrix(np.arange(M * M, dtype=float).reshape(M, M), grid)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        pts = np.vstack([nodes, mids, rng.uniform(-0.5, 3.5, size=(40, 2))])
        dist = [np.sum((nodes - p) ** 2, axis=1) for p in pts]
        want = np.array([np.flatnonzero(d == d.min()).min() for d in dist])
        assert np.array_equal(want[:M], np.arange(M))
        assert sum(np.count_nonzero(d == d.min()) > 1 for d in dist) >= M // 2
        assert np.array_equal(kern.block(pts, nodes[:3])[:, 0] // M, want)
        assert np.array_equal(kern.block(nodes[:2], pts)[0] % M, want)

    def test_matrix_recomputes_on_another_grid(self):
        k = gaussian_kernel()
        a = build_quad_grid([[0.0, 1.0]], [16])
        b = build_quad_grid([[0.0, 3.0]], [16])
        for _ in range(8):
            # the first grid is unreferenced once matrix() returns, so an
            # id-keyed cache would meet the second grid at the same address
            m1 = k.matrix(QuadGrid(points=a.points, weights=a.weights,
                                   bounds=a.bounds)).copy()
            g2 = QuadGrid(points=b.points, weights=b.weights, bounds=b.bounds)
            m2 = k.matrix(g2)
            assert np.array_equal(m2, k.block(g2.points, g2.points))
            assert not np.array_equal(m1, m2)


class TestInvolution:
    def test_involution_squares_to_identity(self, unit_grid_1d, rng):
        k = random_kernel(rng)
        mat = k.matrix(unit_grid_1d)
        twice = involution(involution(k)).matrix(unit_grid_1d)
        assert np.array_equal(mat, twice)

    def test_isometry_of_am_norm(self, wide_grid_1d, rng):
        m = weight_from_w(polynomial_weight(1.0))
        for _ in range(5):
            k = random_kernel(rng)
            a = am_norm(k, m, wide_grid_1d).am_norm
            b = am_norm(involution(k), m, wide_grid_1d).am_norm
            assert a == pytest.approx(b, rel=1e-12)


class TestApply:
    def test_zero_kernel_maps_to_zero(self, unit_grid_1d, rng):
        zero = Kernel(lambda p, q: np.zeros((p.shape[0], q.shape[0])) + 0j)
        f = rng.standard_normal(unit_grid_1d.size)
        assert np.all(apply_kernel(zero, f, unit_grid_1d) == 0)

    def test_composition_consistency(self, rng):
        grid = build_quad_grid([[-3.0, 3.0]], [48])
        k1, k2 = random_kernel(rng), random_kernel(rng)
        f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        lhs = apply_kernel(k1, apply_kernel(k2, f, grid), grid)
        rhs = apply_kernel(compose(k1, k2, grid), f, grid)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()

    def test_schur_bound(self, rng):
        # ||K(F)||_{L^p_w} <= ||K|A_m|| ||F||_{L^p_w} with m associated to w
        grid = build_quad_grid([[-4.0, 4.0]], [64])
        w = polynomial_weight(1.0)
        m = weight_from_w(w)
        for _ in range(5):
            k = random_kernel(rng)
            bound = am_norm(k, m, grid).am_norm
            f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            kf = apply_kernel(k, f, grid)
            for p in (1, 2, np.inf):
                assert lp_w_norm(kf, p, w, grid) <= \
                    bound * lp_w_norm(f, p, w, grid) * (1 + 1e-12)

    def test_length_mismatch(self, unit_grid_1d):
        with pytest.raises(GridError):
            apply_kernel(gaussian_kernel(), np.ones(3), unit_grid_1d)

    def test_linearity(self, unit_grid_1d, rng):
        k = random_kernel(rng)
        f = rng.standard_normal(unit_grid_1d.size)
        g = rng.standard_normal(unit_grid_1d.size)
        lhs = apply_kernel(k, 2.0 * f + 3.0 * g, unit_grid_1d)
        rhs = 2.0 * apply_kernel(k, f, unit_grid_1d) + \
            3.0 * apply_kernel(k, g, unit_grid_1d)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


class TestLpNorm:
    def test_zero(self, unit_grid_1d):
        assert lp_w_norm(np.zeros(unit_grid_1d.size), 2, trivial_weight(),
                         unit_grid_1d) == 0.0

    def test_constant_one_l1(self, unit_grid_1d):
        assert lp_w_norm(np.ones(unit_grid_1d.size), 1, trivial_weight(),
                         unit_grid_1d) == pytest.approx(1.0, abs=1e-14)

    def test_half_indicator_l2(self):
        grid = build_quad_grid([[0.0, 1.0]], [128])
        f = (grid.points[:, 0] < 0.5).astype(float)
        assert lp_w_norm(f, 2, trivial_weight(), grid) == \
            pytest.approx(np.sqrt(0.5), abs=1e-3)

    def test_bad_p(self, unit_grid_1d):
        with pytest.raises(KernelError):
            lp_w_norm(np.ones(unit_grid_1d.size), 3, trivial_weight(), unit_grid_1d)


class TestExport:
    def test_csv_cells_quoted(self, tmp_path, unit_grid_1d):
        grid = build_quad_grid([[0.0, 1.0]], [8])
        path = tmp_path / "k.csv"
        export_kernel_csv(gaussian_kernel(), grid, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 8
        first = lines[0].split('","')
        assert len(first) == 8
        re_part, im_part = first[0].lstrip('"').split(",")
        assert float(re_part) == pytest.approx(1.0)
        assert float(im_part) == 0.0

    def test_cache_bound(self, m_trivial):
        big = build_quad_grid([[0.0, 1.0], [0.0, 1.0]], [70, 70])  # 4900 > 4096
        with pytest.raises(KernelError):
            gaussian_kernel().matrix(big)
