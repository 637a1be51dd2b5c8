import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coorbit.coverings import Covering, build_covering, refine_covering
from coorbit.frame_families import default_index_grid, gram_kernel, make_family
import coorbit.oscillation as osc
from conftest import cell_lists, cell_z_samples_loop, emptied, reindexed
from coorbit.kernel_algebra import Kernel, KernelError, _even_blocks, am_norm
from coorbit.measure_space import (SignalGrid, build_quad_grid,
                                   polynomial_weight,
                                   trivial_admissible_weight, weight_from_w)
from coorbit.oscillation import (OscillationError, _cell_z_samples,
                                 _column_chunks, _pair_osc, _Scratch,
                                 osc_matrix,
                                 osc_norm_streaming, property_D_check,
                                 refine_until)


@pytest.fixture(scope="module")
def sinc_setup():
    sg = SignalGrid(8.0, 128)
    fam = make_family("sinc_rkhs", {"bandlimit": np.pi / 2}, sg)
    from coorbit.frame_families import default_index_grid
    grid = default_index_grid(fam, resolution=[128])
    return fam, grid


class TestOscKernel:
    def test_constant_kernel_has_zero_oscillation(self, unit_grid_1d, m_trivial):
        # rank 1: U, V and the column factor are all ones
        def ones(p):
            return np.ones((1, np.atleast_2d(p).shape[0]))
        const = Kernel(lambda p, q: ones(p).T @ ones(q) + 0j,
                       native_grid=unit_grid_1d, col_factor=ones,
                       node_factors=lambda: (ones(unit_grid_1d.points).T,
                                             ones(unit_grid_1d.points), 1.0))
        cov = build_covering(unit_grid_1d, 0.25, overlap_fraction=0.5)
        for comparison in ("strict", "phase_aligned"):
            vals = osc_matrix(const, cov, unit_grid_1d, comparison=comparison)
            assert np.abs(vals).max() == 0.0
        assert osc_norm_streaming(const, cov, unit_grid_1d, m_trivial) == 0.0

    def test_nonnegative(self, sinc_setup, m_trivial):
        fam, grid = sinc_setup
        R = gram_kernel(fam, grid)
        cov = build_covering(grid, 1.0)
        vals = osc_matrix(R, cov, grid, z_per_cell=3)
        assert vals.shape == (grid.size, grid.size)
        assert np.all(vals >= 0.0)

    def test_tiny_cells_give_small_oscillation(self, sinc_setup, m_trivial):
        # single-node cells: Q_y degenerates toward {y} and osc -> 0
        fam, grid = sinc_setup
        R = gram_kernel(fam, grid)
        coarse = osc_norm_streaming(R, build_covering(grid, 1.0), grid, m_trivial,
                                    z_per_cell=3)
        tiny = osc_norm_streaming(R, build_covering(grid, 0.125), grid, m_trivial,
                                  z_per_cell=3)
        assert tiny <= 0.2 * coarse

    def test_monotone_in_z_samples(self, sinc_setup, m_trivial):
        # nested z-streams: adding samples never decreases the sampled sup
        fam, grid = sinc_setup
        R = gram_kernel(fam, grid)
        cov = build_covering(grid, 1.0)
        norms = [osc_norm_streaming(R, cov, grid, m_trivial, z_per_cell=z, seed=5)
                 for z in (1, 3, 6)]
        assert norms[0] <= norms[1] <= norms[2]

    def test_aligned_below_strict(self, gabor_small, m_trivial):
        fam, grid = gabor_small
        R = gram_kernel(fam, grid, rel_cut=0.2)
        cov = build_covering(grid, 0.625)
        strict = osc_norm_streaming(R, cov, grid, m_trivial, comparison="strict")
        aligned = osc_norm_streaming(R, cov, grid, m_trivial,
                                     comparison="phase_aligned")
        assert aligned <= strict + 1e-12
        # the phase quotient removes the position-growing gauge term
        assert aligned <= 0.7 * strict

    def test_streaming_matches_pointwise_кernel(self, sinc_setup, m_trivial,
                                               reference_osc_matrix):
        fam, grid = sinc_setup
        R = gram_kernel(fam, grid)
        cov = build_covering(grid, 1.0)
        mat = reference_osc_matrix(R, cov, grid, z_per_cell=3, seed=2)
        w = grid.weights
        norm_dense = max(float((mat @ w).max()), float((w @ mat).max()))
        norm_stream = osc_norm_streaming(R, cov, grid, m_trivial, z_per_cell=3,
                                         seed=2)
        assert norm_dense == pytest.approx(norm_stream, rel=1e-12)


@pytest.fixture(scope="module")
def z_coverings(unit_grid_1d, gabor_small):
    """d -> covering: 40 cells of [0, 1] at overlap 0.5, and 100 cells of a
    Gabor box."""
    return {1: build_covering(unit_grid_1d, 0.05, overlap_fraction=0.5),
            2: build_covering(gabor_small[1], 1.0)}


class TestCellZSamples:
    @pytest.mark.parametrize("seed", [0, 37, 2024, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 70])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("z_per_cell", [1, 3, 5])
    def test_replays_the_per_cell_generators_bit_for_bit(self, z_coverings, seed,
                                                         d, z_per_cell):
        cov = z_coverings[d]
        assert cov.cells.shape[1] == d
        assert np.array_equal(_cell_z_samples(cov, z_per_cell, seed),
                              cell_z_samples_loop(cov.cells, z_per_cell, seed))

    @pytest.mark.parametrize("seed", [0, 2 ** 32 + 5])
    def test_streams_are_nested(self, z_coverings, seed):
        # a larger z_per_cell only appends samples to every cell
        for cov in z_coverings.values():
            five = _cell_z_samples(cov, 5, seed)
            for z in (1, 3):
                assert np.array_equal(_cell_z_samples(cov, z, seed), five[:, :z])

    def test_samples_lie_in_their_cells(self, z_coverings):
        for cov in z_coverings.values():
            z = _cell_z_samples(cov, 5, 11)
            assert np.all(z >= cov.cells[:, None, :, 0])
            assert np.all(z <= cov.cells[:, None, :, 1])

    @pytest.mark.parametrize("z_per_cell, seed", [(0, 0), (2, -1)])
    def test_rejects_empty_streams_and_negative_seeds(self, z_coverings,
                                                      z_per_cell, seed):
        with pytest.raises(OscillationError):
            _cell_z_samples(z_coverings[1], z_per_cell, seed)


def _reference_osc_sups(R, cov, grid, m, z_per_cell, comparison, seed):
    """The per-cell streaming loop: two R.block calls per cell, the (M, Y, Z)
    difference tensor, and a per-node running max on overlapping coverings.
    Returns the row and the column sup of the weighted oscillation."""
    def pair(r_y, r_z):
        if comparison == "phase_aligned":
            return np.abs(np.abs(r_y)[:, :, None]
                          - np.abs(r_z)[:, None, :]).max(axis=2)
        return np.abs(r_y[:, :, None] - r_z[:, None, :]).max(axis=2)

    z_sets = _cell_z_samples(cov, z_per_cell, seed)
    pts, w = grid.points, grid.weights
    remaining = np.bincount(cov.members.flat, minlength=grid.size)
    row_acc = np.zeros(grid.size)
    col_val = np.zeros(grid.size)
    osc_cols = {}
    for i, idx in enumerate(cell_lists(cov.members)):
        if idx.size == 0:
            continue
        part = pair(R.block(pts, pts[idx]), R.block(pts, z_sets[i]))
        for col_pos, node in enumerate(idx):
            prev = osc_cols.get(node)
            cur = part[:, col_pos]
            osc_cols[node] = cur if prev is None else np.maximum(prev, cur)
            remaining[node] -= 1
            if remaining[node] == 0:
                vals = osc_cols.pop(node)
                mm = m(pts, pts[node:node + 1])[:, 0]
                row_acc += vals * mm * w[node]
                col_val[node] = float(np.dot(w, vals * mm))
    return float(row_acc.max()), float(col_val.max())


def _plan(cov, grid, z_per_cell):
    """(row tiles, column chunks) of the stream over cov, at the unit sizes
    `_TILE_ROWS` and `_CHUNK_COLS` in force."""
    return (_even_blocks(grid.size, osc._TILE_ROWS),
            _column_chunks(cov.node_cells(), z_per_cell, osc._CHUNK_COLS))


def _column_chunks_unique(table, z_per_cell, cols):
    """`_column_chunks` as written with np.unique: the reference."""
    order = np.argsort(table[:, 0], kind="stable")
    first, starts = np.unique(table[order, 0], return_index=True)
    bounds = np.append(starts, table.shape[0])
    chunks = []
    if first[0] < 0:
        nodes = order[:bounds[1]]
        chunks.append((nodes, first[:0], table[nodes]))
        bounds = bounds[1:]
    for k0, k1 in osc._chunks(np.diff(bounds) + z_per_cell, cols):
        nodes = order[bounds[k0]:bounds[k1]]
        rows = table[nodes]
        cells = np.unique(rows)
        chunks.append((nodes, cells, np.searchsorted(cells, rows)))
    return chunks


@pytest.fixture(scope="module")
def gabor_blocks():
    """Gabor box whose Gramian streams in four row tiles and four or more
    column chunks."""
    fam = make_family("gabor", None, SignalGrid(8.0, 64))
    from coorbit.frame_families import default_index_grid
    grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-5.0, 5.0]],
                              resolution=[40, 40])
    return fam, grid, gram_kernel(fam, grid, rel_cut=0.2)


def _peaked_setup():
    """A 64-node grid with unequal quadrature weights and a kernel whose
    rows peak at 0.3, so that its row sup exceeds its column sup.  The
    kernel is separable, f(p) g(q): its node factors are U = f and V = g,
    its column factor g."""
    grid = build_quad_grid([[0.0, 1.0]], [64],
                           measure=lambda p: 1.0 + 3.0 * p[:, 0])

    def f(p):
        return 10.0 * np.exp(-200.0 * (p[:, 0] - 0.3) ** 2)

    def g(q):
        return (np.exp(1j * 9.0 * q[:, 0] ** 2) * np.sin(20.0 * q[:, 0]))

    def ev(p, q):
        return f(p)[:, None] * g(q)[None, :]
    pts = grid.points
    return grid, Kernel(ev, native_grid=grid,
                        node_factors=lambda: (f(pts)[:, None],
                                              g(pts)[None, :], 1.0),
                        col_factor=lambda q: g(np.atleast_2d(q))[None, :])


class TestStreamingBlocks:
    @pytest.mark.parametrize("overlap", [0.0, 0.3])
    @pytest.mark.parametrize("comparison", ["strict", "phase_aligned"])
    def test_matches_per_cell_loop(self, gabor_blocks, overlap, comparison):
        _, grid, R = gabor_blocks
        cov = build_covering(grid, 0.625, overlap_fraction=overlap)
        tiles, chunks = _plan(cov, grid, 3)
        # several tiles in flight, each against several chunks
        assert len(tiles) >= 4 and len(chunks) >= 4
        m = weight_from_w(polynomial_weight(1.0))
        ref = max(_reference_osc_sups(R, cov, grid, m, 3, comparison, seed=7))
        got = [osc_norm_streaming(R, cov, grid, m, z_per_cell=3,
                                  comparison=comparison, seed=7, threads=t)
               for t in (1, 2, 3)]
        assert got[0] == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert got[1] == got[0] and got[2] == got[0]

    @pytest.mark.parametrize("overlap", [0.0, 0.3])
    @pytest.mark.parametrize("comparison", ["strict", "phase_aligned"])
    def test_row_sums_match_per_cell_loop(self, monkeypatch, overlap,
                                          comparison):
        # a peaked row factor makes the row sup the larger one, small units
        # stream the 64-node grid in four tiles and many chunks, and the
        # density and weight make every node's quadrature weight and
        # m-column distinct
        monkeypatch.setattr(osc, "_TILE_ROWS", 16)
        monkeypatch.setattr(osc, "_CHUNK_COLS", 12)
        grid, K = _peaked_setup()
        m = weight_from_w(polynomial_weight(1.0))
        cov = build_covering(grid, 1.0 / 16, overlap_fraction=overlap)
        tiles, chunks = _plan(cov, grid, 2)
        assert len(tiles) >= 4 and len(chunks) >= 8
        row_sup, col_sup = _reference_osc_sups(K, cov, grid, m, 2,
                                               comparison, seed=3)
        assert row_sup > col_sup
        for t in (1, 2, 3):
            got = osc_norm_streaming(K, cov, grid, m, z_per_cell=2,
                                     comparison=comparison, seed=3, threads=t)
            assert got == pytest.approx(row_sup, rel=1e-13, abs=0.0)

    def test_chunks_are_consecutive_cells_within_budget(self, gabor_blocks):
        # every node once, ordered by first cell and then by index; a chunk
        # is a run of first cells whose nodes and z-samples fit the budget
        _, grid, R = gabor_blocks
        for overlap in (0.0, 0.3):
            cov = build_covering(grid, 0.625, overlap_fraction=overlap)
            table = cov.node_cells()
            chunks = _plan(cov, grid, 3)[1]
            nodes = np.concatenate([c[0] for c in chunks])
            assert np.array_equal(np.sort(nodes), np.arange(grid.size))
            assert np.all(np.diff(table[nodes, 0] * grid.size + nodes) > 0)
            firsts = [np.unique(table[c[0], 0]) for c in chunks]
            assert np.array_equal(np.concatenate(firsts),
                                  np.unique(table[:, 0]))
            for (idx, cells, slots), first in zip(chunks, firsts):
                assert idx.size + 3 * first.size <= osc._CHUNK_COLS
                assert np.all(np.diff(cells) > 0)
                assert np.array_equal(cells[slots], table[idx])

    @pytest.mark.parametrize("case", ["partition", "overlap", "unheld"])
    def test_chunks_match_the_np_unique_reference(self, gabor_blocks, case):
        # the run starts replace np.unique (which imports numpy.ma): the
        # same nodes, cells and slots in the same order
        _, grid, _ = gabor_blocks
        cov = build_covering(grid, 0.625, overlap_fraction=0.0 if
                             case == "partition" else 0.25)
        if case == "unheld":
            cov = _drop_cells(cov, [17, 18, 33, 34])
        table = cov.node_cells()
        assert np.any(table[:, 0] < 0) == (case == "unheld")
        got = _column_chunks(table, 3, osc._CHUNK_COLS)
        ref = _column_chunks_unique(table, 3, osc._CHUNK_COLS)
        assert len(got) == len(ref) > 1
        for a, b in zip(got, ref):
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_row_tiles_cover_the_grid(self, gabor_blocks):
        _, grid, R = gabor_blocks
        tiles, _ = _plan(build_covering(grid, 0.625), grid, 3)
        assert tiles[0][0] == 0 and tiles[-1][1] == grid.size
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        assert max(b - a for a, b in tiles) <= osc._TILE_ROWS

    def test_chunk_count_does_not_grow_with_the_grid(self):
        # the reference box: 458 x 914 nodes in 229 x 457 = 104653 cells of
        # 2 x 2 nodes.  A chunk budget that shrank as 1 / M would give every
        # cell a chunk of its own; the chunks hold about _CHUNK_COLS nodes
        # and z-samples whatever M is
        grid = build_quad_grid([[-8.0, 8.0], [-16.0, 16.0]], [458, 914])
        i, j = np.divmod(np.arange(grid.size), 914)
        table = ((i // 2) * 457 + j // 2)[:, None]
        tiles = _even_blocks(grid.size, osc._TILE_ROWS)
        chunks = _column_chunks(table, 4, osc._CHUNK_COLS)
        cols = grid.size + 4 * 104653
        assert len(tiles) == -(-grid.size // osc._TILE_ROWS)
        # each chunk but the last leaves fewer columns free than one cell
        # (4 nodes and 4 z-samples) takes
        assert len(chunks) <= cols // (osc._CHUNK_COLS - 8) + 1
        assert sum(c[0].size for c in chunks) == grid.size

    def test_threads_must_be_positive(self, gabor_blocks, m_trivial):
        _, grid, R = gabor_blocks
        with pytest.raises(OscillationError, match="threads"):
            osc_norm_streaming(R, build_covering(grid, 1.25), grid, m_trivial,
                               threads=0)


@pytest.fixture(scope="module", params=["gabor", "cwt", "peaked"])
def fold_case(request, gabor_blocks):
    """(grid, kernel, cell size): a Gramian on equal weights whose overlap-0
    covering is a partition; a Gramian on unequal weights whose closed cells
    share boundary nodes; a separable, not Hermitian kernel on unequal
    weights."""
    if request.param == "gabor":
        _, grid, R = gabor_blocks
        return grid, R, 0.625
    if request.param == "cwt":
        fam = make_family("cwt", None, SignalGrid(8.0, 32))
        grid = default_index_grid(fam)
        return grid, gram_kernel(fam, grid, rel_cut=0.2), [1.0, 2.0]
    return (*_peaked_setup(), 1.0 / 16)


class TestFoldedRNorm:
    """||R | A_m|| summed from the streamed y-columns against the plain
    row-block loop over the whole grid."""

    @pytest.mark.parametrize("overlap", [0.0, 0.25])
    @pytest.mark.parametrize("poly", [False, True])
    @pytest.mark.parametrize("comparison", ["strict", "phase_aligned"])
    def test_matches_row_block_loop(self, fold_case, monkeypatch, overlap,
                                    poly, comparison, reference_am_norm):
        grid, K, cell = fold_case
        monkeypatch.setattr(osc, "_TILE_ROWS", grid.size // 4)
        # the 64-node peaked grid needs narrow chunks to stream in several
        monkeypatch.setattr(osc, "_CHUNK_COLS", 64 if grid.size > 64 else 20)
        cov = build_covering(grid, cell, overlap_fraction=overlap)
        tiles, chunks = _plan(cov, grid, 2)
        assert len(chunks) >= 4 and len(tiles) >= 4
        if overlap:
            assert cov.node_cells().shape[1] > 1
        m = weight_from_w(polynomial_weight(1.0)) if poly \
            else trivial_admissible_weight()
        ref = reference_am_norm(K, m, grid)["am_norm"]
        got = [osc_norm_streaming(K, cov, grid, m, z_per_cell=2,
                                  comparison=comparison, seed=1,
                                  threads=t).r_norm for t in (1, 2, 3)]
        assert got[0] == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert got[1] == got[0] and got[2] == got[0]

    def test_nodes_no_cell_holds_still_count(self, reference_am_norm):
        # empty the cells around the row peak: without their columns the
        # row sums, and with them the norm, would fall
        import dataclasses
        grid, K = _peaked_setup()
        m = weight_from_w(polynomial_weight(1.0))
        cov = build_covering(grid, 1.0 / 16)
        cov = dataclasses.replace(cov, members=emptied(cov.members, [4, 5, 6]))
        got = osc_norm_streaming(K, cov, grid, m, z_per_cell=2)
        ref = reference_am_norm(K, m, grid)
        assert ref["row_sup"] > ref["col_sup"]
        assert got.r_norm == pytest.approx(ref["am_norm"], rel=1e-13, abs=0.0)

    def test_property_d_reports_the_streamed_r_norm(self, gabor_small,
                                                    reference_am_norm):
        fam, grid = gabor_small
        cov = build_covering(grid, 1.25)
        m = trivial_admissible_weight()
        rep = property_D_check(fam, cov, m, grid, z_per_cell=2, rel_cut=0.2)
        R = gram_kernel(fam, grid, rel_cut=0.2)
        streamed = osc_norm_streaming(R, cov, grid, m, z_per_cell=2,
                                      comparison="phase_aligned")
        assert type(rep.delta_est) is float and rep.delta_est == streamed
        assert rep.r_norm == streamed.r_norm
        assert rep.r_norm == pytest.approx(
            reference_am_norm(R, m, grid)["am_norm"], rel=1e-13, abs=0.0)


_parts = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def _node_slots(draw):
    """Real or complex y-rows, the z-rows of C cells with Z samples each
    (the same dtype), and per y-row an ascending row of cells padded by
    repeating its last."""
    M = draw(st.integers(1, 5))
    C = draw(st.integers(1, 4))
    Z = draw(st.integers(1, 4))
    K = draw(st.integers(1, C))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        cells = sorted(draw(st.sets(st.integers(0, C - 1), min_size=1,
                                    max_size=K)))
        rows.append(cells + cells[-1:] * (K - len(cells)))

    real = draw(st.booleans())

    def values(shape):
        re = draw(arrays(np.float64, shape, elements=_parts))
        if real:
            return re
        return re + 1j * draw(arrays(np.float64, shape, elements=_parts))
    return values((len(rows), M)), values((C, Z, M)), np.array(rows)


@settings(max_examples=200, deadline=None)
@given(_node_slots())
def test_pair_osc_is_the_difference_tensor_max(case):
    r_y, r_z, slots = case
    Y, M = r_y.shape
    scratch = _Scratch()
    for aligned in (True, False):
        a, b = r_y, r_z[slots].reshape(Y, -1, M)         # (Y, K Z, M)
        if aligned:
            a, b = np.abs(a), np.abs(b)
        ref = np.abs(a[:, None, :] - b).max(axis=1)
        assert np.array_equal(_pair_osc(r_y, r_z, slots, aligned), ref)
        # the same bits from a thread's scratch memory, twice over
        for _ in range(2):
            scratch.reset()
            assert np.array_equal(
                _pair_osc(r_y, r_z, slots, aligned, buf=scratch), ref)


def test_scratch_hands_out_disjoint_arrays_and_reuses_them():
    scratch = _Scratch()
    for unit in range(3):
        scratch.reset()
        parts = [scratch((5, 7), float), scratch((3, 4), complex),
                 scratch((1,), float), scratch((2, 3), np.complex128),
                 scratch((4,), np.float64)]
        for k, part in enumerate(parts):
            part.fill(k + 1)
        assert [np.all(p == k + 1) for k, p in enumerate(parts)] == \
            [True] * 5
        assert [p.dtype for p in parts] == [np.float64, np.complex128] * 2 + \
            [np.float64]
        # after the first unit grew the buffer, every array is carved from it
        carved = [np.shares_memory(p, scratch.data) for p in parts]
        assert carved == [unit > 0] * 5


def _exact_kernel(grid):
    """A rank-3 kernel K = s U V on the unit square whose every value any
    GEMM split gives is exact: the real and imaginary parts of U, V and the
    column factor are multiples of 1/8 of modulus at most 2, and s = 0.5,
    so every partial sum is a multiple of 1/64 far below 2^53 / 64.  The
    evaluator and the stream then agree bit for bit."""
    def factor(p, freq):                          # (3, P)
        ang = np.atleast_2d(p) @ freq
        return ((np.round(16.0 * np.cos(ang))
                 + 1j * np.round(16.0 * np.sin(ang))) / 8.0).T

    left = np.array([[3.0, -5.0, 7.0], [4.0, 6.0, -2.0]])
    right = np.array([[-6.0, 2.0, 9.0], [5.0, -8.0, 3.0]])

    def col_factor(q):
        return factor(q, right)

    def ev(p, q):
        return 0.5 * (factor(p, left).T @ col_factor(q))
    return Kernel(ev, native_grid=grid, col_factor=col_factor,
                  node_factors=lambda: (factor(grid.points, left).T,
                                        col_factor(grid.points), 0.5))


def _drop_cells(cov, drop):
    """The covering without the cells `drop`: the nodes only they held lie
    in no cell."""
    keep = np.setdiff1d(np.arange(cov.size), drop)
    return Covering(
        cells=cov.cells[keep], sample_points=cov.sample_points[keep],
        grid=cov.grid, members=reindexed(cov.members, keep),
        measures=cov.measures[keep], neighbors=cov.neighbors,
        overlap_count=cov.overlap_count, min_measure=cov.min_measure,
        measure_ratio=cov.measure_ratio)


def _stream_matrix(K, cov, grid, comparison, threads):
    """The values `osc_matrix` keeps, as `_osc_stream` yields them on
    `threads`; every entry is written exactly by some unit."""
    out = np.full((grid.size, grid.size), np.nan)

    def reduce(rows, nodes, vals, amp):
        out[rows, nodes] = vals.T

    osc._osc_stream(K, cov, grid, 3, comparison, 4, reduce, threads=threads)
    assert not np.isnan(out).any()
    return out


class TestThreadInvariance:
    """The units run on the pool and are folded in tile order, then chunk
    order, so the bits do not depend on `threads`: for a Gramian, and for
    the exact rank-3 kernel."""

    @pytest.mark.parametrize("kind", ["factored", "exact"])
    @pytest.mark.parametrize("unheld", [False, True])
    @pytest.mark.parametrize("overlap", [0.0, 0.3])
    @pytest.mark.parametrize("comparison", ["strict", "phase_aligned"])
    def test_bits_do_not_depend_on_threads(self, gabor_blocks, monkeypatch,
                                           kind, unheld, overlap, comparison):
        if kind == "factored":
            _, grid, K = gabor_blocks
            cell, drop = 0.625, [17, 18, 33, 34]
        else:
            grid = build_quad_grid([[0.0, 1.0], [0.0, 1.0]], [12, 12])
            K = _exact_kernel(grid)
            cell, drop = 0.25, [5, 6, 9, 10]
            monkeypatch.setattr(osc, "_TILE_ROWS", 36)
            monkeypatch.setattr(osc, "_CHUNK_COLS", 24)
        cov = build_covering(grid, cell, overlap_fraction=overlap)
        if unheld:
            cov = _drop_cells(cov, drop)
        assert np.any(cov.node_cells()[:, 0] < 0) == unheld
        tiles, chunks = _plan(cov, grid, 3)
        assert len(tiles) >= 4 and len(chunks) >= 4
        mats = [_stream_matrix(K, cov, grid, comparison, t) for t in (1, 2, 3)]
        assert mats[0].tobytes() == mats[1].tobytes() == mats[2].tobytes()
        assert np.array_equal(mats[0], osc_matrix(
            K, cov, grid, z_per_cell=3, comparison=comparison, seed=4))
        for m in (trivial_admissible_weight(),
                  weight_from_w(polynomial_weight(1.0))):
            got = [osc_norm_streaming(K, cov, grid, m, z_per_cell=3,
                                      comparison=comparison, seed=4, threads=t)
                   for t in (1, 2, 3)]
            assert len({(float(g).hex(), g.r_norm.hex()) for g in got}) == 1

    @pytest.mark.parametrize("overlap", [0.0, 0.3])
    def test_real_sinc_gramian_strict_bits(self, sinc_setup, monkeypatch,
                                           overlap):
        # a family with real atoms streams float64 GEMMs and, under the
        # strict comparison, float64 differences in the thread's scratch
        fam, grid = sinc_setup
        K = gram_kernel(fam, grid, rel_cut=1e-6)
        assert K.node_factors()[0].dtype == np.float64
        monkeypatch.setattr(osc, "_TILE_ROWS", 32)
        monkeypatch.setattr(osc, "_CHUNK_COLS", 24)
        cov = build_covering(grid, 1.0, overlap_fraction=overlap)
        tiles, chunks = _plan(cov, grid, 3)
        assert len(tiles) >= 4 and len(chunks) >= 4
        mats = [_stream_matrix(K, cov, grid, "strict", t) for t in (1, 2, 3)]
        assert mats[0].tobytes() == mats[1].tobytes() == mats[2].tobytes()
        m = weight_from_w(polynomial_weight(1.0))
        got = [osc_norm_streaming(K, cov, grid, m, z_per_cell=3,
                                  comparison="strict", seed=4, threads=t)
               for t in (1, 2, 3)]
        assert len({(float(g).hex(), g.r_norm.hex()) for g in got}) == 1

    def test_real_cwt_gramian_am_norm_bits(self):
        # am_norm's row blocks of a real Gramian: float64 GEMM buffers on
        # every thread
        fam = make_family("cwt", None, SignalGrid(16.0, 128))
        grid = default_index_grid(fam, band_spacing=0.9, scales_per_octave=6)
        K = gram_kernel(fam, grid, rel_cut=1e-6)
        assert K.node_factors()[0].dtype == np.float64
        assert grid.size > 3 * 256             # four or more row blocks
        for m in (trivial_admissible_weight(),
                  weight_from_w(polynomial_weight(1.0))):
            reps = [am_norm(K, m, grid, threads=t) for t in (1, 2, 3)]
            assert len({(r.am_norm.hex(), r.a1_norm.hex()) for r in reps}) == 1

    def test_non_finite_factor_in_a_workers_tile(self, gabor_blocks,
                                                 m_trivial):
        # row 500 lies in row tile 1, which a worker takes at two threads;
        # the factors are checked once, before any unit runs
        _, grid, R = gabor_blocks
        cov = build_covering(grid, 0.625)
        tiles, _ = _plan(cov, grid, 3)
        assert [a <= 500 < b for a, b in tiles].index(True) % 2 == 1
        u, c, h = R.node_factors()
        bad_u = u.copy()
        bad_u[500] = np.nan

        def bad_col_factor(points):
            v = R.col_factor(points)
            v[0, -1] = np.inf
            return v

        for factors, col_factor in (((bad_u, c, h), R.col_factor),
                                    ((u, c, h), bad_col_factor)):
            K = Kernel(R.evaluator, provenance="gramian", native_grid=grid,
                       node_factors=lambda f=factors: f, col_factor=col_factor)
            with pytest.raises(KernelError, match="non-finite"):
                osc_norm_streaming(K, cov, grid, m_trivial, z_per_cell=3,
                                   threads=2)


class TestOscMatrix:
    @pytest.mark.parametrize("case", ["partition", "overlap", "unheld"])
    @pytest.mark.parametrize("comparison", ["strict", "phase_aligned"])
    def test_matches_pointwise_reference(self, monkeypatch, case, comparison,
                                         reference_osc_matrix):
        grid = build_quad_grid([[0.0, 1.0], [0.0, 1.0]], [12, 12])
        cov = build_covering(grid, 0.25, overlap_fraction=0.0 if
                             case == "partition" else 0.3)
        if case == "unheld":
            cov = _drop_cells(cov, [5, 6, 9, 10])
        table = cov.node_cells()
        assert (table.shape[1] > 1) == (case != "partition")
        assert np.any(table[:, 0] < 0) == (case == "unheld")
        monkeypatch.setattr(osc, "_TILE_ROWS", 36)
        monkeypatch.setattr(osc, "_CHUNK_COLS", 24)
        K = _exact_kernel(grid)
        tiles, chunks = _plan(cov, grid, 3)
        assert len(tiles) >= 4 and len(chunks) >= 4
        got = osc_matrix(K, cov, grid, z_per_cell=3, comparison=comparison,
                         seed=4)
        ref = reference_osc_matrix(K, cov, grid, z_per_cell=3,
                                   comparison=comparison, seed=4)
        assert np.array_equal(got, ref)

    def test_unknown_comparison_is_rejected(self, gabor_small, m_trivial):
        fam, grid = gabor_small
        cov = build_covering(grid, 1.25)
        R = gram_kernel(fam, grid, rel_cut=0.2)
        for run in (lambda: osc_matrix(R, cov, grid, comparison="aligned"),
                    lambda: osc_norm_streaming(R, cov, grid, m_trivial,
                                               comparison="aligned"),
                    lambda: property_D_check(fam, cov, m_trivial, grid,
                                             comparison="aligned",
                                             rel_cut=0.2)):
            with pytest.raises(OscillationError, match="comparison"):
                run()

    def test_only_factored_kernels_on_their_grid_stream(self, gabor_small,
                                                        m_trivial):
        # the stream multiplies node factors and column factors; a kernel
        # without either, or a Gramian on a grid equal to its own but not
        # it, is refused before any unit runs
        fam, grid = gabor_small
        R = gram_kernel(fam, grid, rel_cut=0.2)
        no_nodes = Kernel(R.evaluator, native_grid=grid,
                          col_factor=R.col_factor)
        no_cols = Kernel(R.evaluator, native_grid=grid,
                         node_factors=R.node_factors)
        other = default_index_grid(fam, bounds=[[-5.0, 5.0], [-5.0, 5.0]],
                                   resolution=[56, 56])
        assert np.array_equal(other.points, grid.points)
        for K, g in ((no_nodes, grid), (no_cols, grid), (R, other)):
            cov = build_covering(g, 1.25)
            for run in (lambda: osc_matrix(K, cov, g),
                        lambda: osc_norm_streaming(K, cov, g, m_trivial)):
                with pytest.raises(OscillationError, match="node factors"):
                    run()


class TestPropertyD:
    def test_report_is_consistent(self, gabor_small, m_trivial):
        fam, grid = gabor_small
        cov = build_covering(grid, 1.25)
        rep = property_D_check(fam, cov, m_trivial, grid, z_per_cell=3,
                               rel_cut=0.2)
        assert rep.sigma == pytest.approx(
            max(rep.c_m_u * rep.r_norm, rep.r_norm + rep.delta_est))
        assert rep.cond_value == pytest.approx(
            rep.delta_est * (rep.r_norm + rep.sigma))
        assert rep.full == (rep.cond_value <= 1.0)
        assert rep.atomic_only == (rep.delta_est <= 1.0)
        assert rep.banach_only == (rep.delta_est <= 1.0 / rep.r_norm)
        assert rep.comparison == "phase_aligned"   # gabor drops the torus phase
        assert rep.sigma >= rep.r_norm

    def test_strict_for_real_kernel_families(self, sinc_setup, m_trivial):
        fam, grid = sinc_setup
        cov = build_covering(grid, 1.0)
        rep = property_D_check(fam, cov, m_trivial, grid, z_per_cell=3)
        assert rep.comparison == "strict"

    def test_weighted_weight_norm_grows(self, gabor_small):
        fam, grid = gabor_small
        cov = build_covering(grid, 1.25)
        m1 = trivial_admissible_weight()
        ms = weight_from_w(polynomial_weight(1.0))
        r1 = property_D_check(fam, cov, m1, grid, z_per_cell=2, rel_cut=0.2)
        rs = property_D_check(fam, cov, ms, grid, z_per_cell=2, rel_cut=0.2)
        assert rs.r_norm > r1.r_norm
        assert rs.delta_est >= r1.delta_est
        assert rs.c_m_u > 1.0


class TestRefineUntil:
    def test_ladder_reaches_full_flag(self, gabor_ladder):
        rep = gabor_ladder["report"]
        traj = gabor_ladder["trajectory"]
        assert rep.full
        assert traj[-1].level <= 8
        deltas = [s.report.delta_est for s in traj]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_banach_no_later_than_full(self, gabor_ladder, m_trivial):
        fam = gabor_ladder["family"]
        _, rep_b, traj_b = refine_until(
            fam, gabor_ladder["domain"], m_trivial, target="banach",
            max_levels=8, initial_cell=0.9, z_per_cell=3, seed=0, rel_cut=0.2)
        assert rep_b.banach_only
        assert traj_b[-1].level <= gabor_ladder["trajectory"][-1].level

    def test_zero_levels_rejected(self, gabor_ladder, m_trivial):
        with pytest.raises(OscillationError):
            refine_until(gabor_ladder["family"], gabor_ladder["domain"],
                         m_trivial, max_levels=0)

    def test_unreachable_target_reports_trajectory(self, gabor_small, m_trivial):
        fam, _ = gabor_small
        with pytest.raises(OscillationError, match="trajectory"):
            refine_until(fam, [[-4.0, 4.0], [-4.0, 4.0]], m_trivial,
                         target="full", max_levels=1, initial_cell=2.0,
                         z_per_cell=2, rel_cut=0.2)

    def test_osc_norm_decreases_across_families(self, m_trivial):
        # dyadic covering refinement on a fixed grid, three levels each
        sg = SignalGrid(8.0, 64)
        cases = []
        fam_g = make_family("gabor", None, sg)
        from coorbit.frame_families import default_index_grid
        grid_g = default_index_grid(fam_g, bounds=[[-4, 4], [-4, 4]],
                                    resolution=[32, 32])
        cases.append((fam_g, grid_g, 2.0))
        fam_s = make_family("sinc_rkhs", {"bandlimit": np.pi / 2}, sg)
        grid_s = default_index_grid(fam_s, resolution=[64])
        cases.append((fam_s, grid_s, 4.0))
        fam_a = make_family("alpha_mod", {"alpha": 0.5}, sg)
        grid_a = default_index_grid(fam_a, bounds=[[-4, 4], [-4, 4]],
                                    resolution=[32, 32])
        cases.append((fam_a, grid_a, 2.0))
        for fam, grid, cell in cases:
            R = gram_kernel(fam, grid, rel_cut=0.2)
            cov = build_covering(grid, cell)
            comparison = "phase_aligned" if fam.phase_quotient else "strict"
            norms = []
            for lvl in range(3):
                norms.append(osc_norm_streaming(R, cov, grid, m_trivial,
                                                z_per_cell=2,
                                                comparison=comparison))
                if lvl < 2:
                    cov = refine_covering(cov)
            assert norms[0] > norms[1] > norms[2], fam.tag

    def test_osc_norm_decreases_wavelet(self, m_trivial):
        sg = SignalGrid(10.0, 256)
        fam = make_family("cwt", None, sg)
        from coorbit.frame_families import default_index_grid
        grid = default_index_grid(fam, bounds=[[0.5, 4.0], [-5.0, 5.0]],
                                  scales_per_octave=12, band_spacing=0.2)
        R = gram_kernel(fam, grid, rel_cut=0.2)
        cov = build_covering(grid, [0.6, 1.2])
        norms = []
        for lvl in range(3):
            norms.append(osc_norm_streaming(R, cov, grid, m_trivial,
                                            z_per_cell=2))
            if lvl < 2:
                cov = refine_covering(cov)
        assert norms[0] > norms[1] > norms[2]
