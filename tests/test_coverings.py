import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coorbit import coverings
from coorbit.coverings import (Covering, CoveringError, _open_overlap,
                               build_covering, build_pu, m_equivalent, q_set,
                               refine_covering, verify_moderate,
                               weight_sup_on_cells)
from coorbit.frame_families import default_index_grid, make_family
from coorbit.measure_space import (AdmissibleWeight, QuadGrid, SignalGrid,
                                   build_quad_grid, polynomial_weight,
                                   trivial_admissible_weight, weight_from_w)


@pytest.fixture(scope="module")
def line_grid():
    return build_quad_grid([[0.0, 4.0]], [128])


class TestBuildCovering:
    def test_partition_has_no_open_overlap(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        assert cov.size == 8
        assert cov.overlap_count == 1
        assert all(len(nb) == 1 for nb in cov.neighbors)

    def test_half_overlap_has_three_neighbors(self, line_grid):
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.5)
        inner = [len(cov.neighbors[i]) for i in range(2, cov.size - 2)]
        assert max(inner) == 3
        assert cov.overlap_count == 3

    def test_uniform_lattice_measure_ratio_one(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        assert abs(cov.measure_ratio - 1.0) <= 1e-12

    def test_cell_below_resolution_rejected(self):
        grid = build_quad_grid([[0.0, 1.0]], [8])   # spacing 0.125
        with pytest.raises(CoveringError):
            build_covering(grid, 0.01)

    def test_every_node_covered(self, line_grid):
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.3)
        covered = np.zeros(line_grid.size, dtype=bool)
        for idx in cov.members:
            covered[idx] = True
        assert covered.all()

    def test_overlap_fraction_range(self, line_grid):
        with pytest.raises(CoveringError):
            build_covering(line_grid, 0.5, overlap_fraction=1.0)

    def test_measures_tile_on_partition(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        assert np.sum(cov.measures) == pytest.approx(line_grid.measure(), abs=1e-10)

    def test_overlap_multiplies_measures(self, line_grid):
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.5)
        assert np.sum(cov.measures) > line_grid.measure() * 1.5

    def test_random_sample_points_inside_cells(self, line_grid):
        cov = _random_samples(build_covering(line_grid, 0.5), seed=4)
        assert np.all(cov.sample_points[:, 0] >= cov.cells[:, 0, 0])
        assert np.all(cov.sample_points[:, 0] <= cov.cells[:, 0, 1])
        idx = cov.sample_node_index
        assert all(idx[i] in cov.members[i] for i in range(cov.size))

    def test_refine_halves_cells(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        fine = refine_covering(cov)
        assert fine.size == 2 * cov.size


class TestVerifyModerate:
    def test_trivial_weight_c_is_one(self, line_grid, m_trivial):
        cov = build_covering(line_grid, 0.5)
        rep = verify_moderate(cov, m_trivial)
        assert rep.c_m_u == pytest.approx(1.0)
        assert rep.moderate and rep.admissible

    def test_c_m_u_decreases_under_refinement(self, line_grid):
        m = weight_from_w(polynomial_weight(1.0))
        cov = build_covering(line_grid, 1.0)
        vals = []
        for _ in range(3):
            vals.append(weight_sup_on_cells(cov, m))
            cov = refine_covering(cov)
        assert vals[0] > vals[1] > vals[2] > 1.0

    def test_trivial_weight_is_not_evaluated(self, line_grid):
        # m = 1 by construction: C_{m,U} is 1 without a single evaluation
        def refuse(p, q):
            raise AssertionError("the trivial weight was evaluated")
        m = AdmissibleWeight(refuse, descriptor="trivial", trivial=True)
        for overlap in (0.0, 0.5):
            cov = build_covering(line_grid, 0.5, overlap_fraction=overlap)
            assert weight_sup_on_cells(cov, m) == 1.0
            assert verify_moderate(cov, m).c_m_u == 1.0

    def test_zero_measure_cell_reported(self, line_grid, m_trivial):
        cov = build_covering(line_grid, 0.5)
        broken = Covering(
            cells=cov.cells, sample_points=cov.sample_points, grid=cov.grid,
            members=cov.members, measures=cov.measures,
            neighbors=cov.neighbors, overlap_count=cov.overlap_count,
            min_measure=0.0, measure_ratio=cov.measure_ratio)
        rep = verify_moderate(broken, m_trivial)
        assert not rep.min_measure_positive
        assert not rep.moderate


class TestPartitionOfUnity:
    def test_indicator_on_partition_is_characteristic(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        pu = build_pu(cov)
        for val, idx in zip(pu.values, cov.members):
            assert np.all(val == 1.0)
        assert np.allclose(pu.masses, cov.measures, atol=1e-12)

    @pytest.mark.parametrize("flavor", ["indicator", "tent"])
    def test_sums_to_one(self, line_grid, flavor):
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.5)
        pu = build_pu(cov, flavor)
        assert np.abs(pu.sum_at_nodes() - 1.0).max() <= 1e-12

    def test_half_overlap_masses(self, line_grid):
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.5)
        pu = build_pu(cov)
        interior = range(2, cov.size - 2)
        for i in interior:
            assert pu.masses[i] == pytest.approx(cov.measures[i] / 2, rel=0.15)

    def test_masses_tile_measure(self, line_grid):
        for ov in (0.0, 0.5):
            cov = build_covering(line_grid, 0.5, overlap_fraction=ov)
            pu = build_pu(cov)
            assert np.sum(pu.masses) == pytest.approx(line_grid.measure(), abs=1e-10)

    def test_pu_mass_below_cell_measure(self, line_grid):
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.5)
        for flavor in ("indicator", "tent"):
            pu = build_pu(cov, flavor)
            assert np.all(pu.masses <= cov.measures + 1e-12)


def _tent_per_cell(cov):
    """Reference tent PU: per-axis hats cell by cell (sheet axes skipped),
    totals added cell by cell, then renormalized."""
    pts, raw = cov.grid.points, []
    total = np.zeros(cov.grid.size)
    for i, idx in enumerate(cov.members):
        t = np.ones(idx.size)
        for k in range(cov.grid.dim):
            lo, hi = cov.cells[i, k]
            if hi <= lo:
                continue
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            t = t * np.maximum(1e-9, 1.0 - np.abs(pts[idx, k] - mid) / (half + 1e-300))
        raw.append(t)
        total[idx] += t
    return [t / total[idx] for t, idx in zip(raw, cov.members)]


def test_tent_matches_per_cell_loop(uneven_covering):
    # the flat tent evaluation has the bits of the per-cell loop, sheet cells
    # of the banded grid (a [0, 0] scale axis) included
    case, cov = uneven_covering
    if case == "banded":
        assert np.any(cov.cells[:, 0, 1] <= cov.cells[:, 0, 0])
    pu = build_pu(cov, "tent")
    ref = _tent_per_cell(cov)
    assert len(pu.values) == len(ref)
    for got, want in zip(pu.values, ref):
        assert got.tobytes() == want.tobytes()


class TestQSet:
    def test_partition_gives_single_cell(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        assert len(q_set(cov, [0.7])) == 1

    def test_shared_boundary_belongs_to_both(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        assert len(q_set(cov, [0.5])) == 2

    def test_half_overlap_spans_two(self, line_grid):
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.5)
        assert 2 <= len(q_set(cov, [1.1])) <= 2

    def test_outside_rejected(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        with pytest.raises(CoveringError):
            q_set(cov, [9.0])


class TestMEquivalent:
    def test_self_equivalence(self, line_grid, m_trivial):
        cov = build_covering(line_grid, 0.5)
        rep = m_equivalent(cov, cov, m_trivial)
        assert rep.c1 == rep.c2 == 1.0
        assert rep.equivalent
        assert rep.c_prime == pytest.approx(weight_sup_on_cells(cov, m_trivial))

    def test_enlarged_lattice_equivalent(self, m_trivial):
        # same lattice, cells stretched by 50% overlap: same index set,
        # measures comparable within a factor 2
        grid = build_quad_grid([[0.0, 4.0]], [128])
        cov_a = build_covering(grid, 0.5)
        cov_b = build_covering(grid, 0.5, overlap_fraction=0.5)
        rep = m_equivalent(cov_a, cov_b, m_trivial)
        assert rep.equivalent
        assert rep.c1 >= 1.0 - 1e-12 and rep.c2 <= 2.0 + 1e-12

    def test_far_relabeling_constant_grows(self):
        m = weight_from_w(polynomial_weight(2.0))
        c_primes = []
        for half in (4.0, 16.0):
            grid = build_quad_grid([[0.0, 2 * half]], [256])
            cov_a = build_covering(grid, half)      # two cells
            cov_b = Covering(
                cells=cov_a.cells[::-1].copy(),
                sample_points=cov_a.sample_points[::-1].copy(), grid=grid,
                members=cov_a.members[::-1], measures=cov_a.measures[::-1].copy(),
                neighbors=cov_a.neighbors,
                overlap_count=cov_a.overlap_count,
                min_measure=cov_a.min_measure, measure_ratio=cov_a.measure_ratio)
            c_primes.append(m_equivalent(cov_a, cov_b, m).c_prime)
        assert c_primes[1] > 5.0 * c_primes[0]

    def test_size_mismatch(self, line_grid, m_trivial):
        cov_a = build_covering(line_grid, 0.5)
        cov_b = build_covering(line_grid, 1.0)
        with pytest.raises(CoveringError):
            m_equivalent(cov_a, cov_b, m_trivial)


_SPATIAL_PROBE = """
import sys
import numpy as np
from coorbit.frame_families import make_family
from coorbit.measure_space import SignalGrid, trivial_admissible_weight
from coorbit.oscillation import refine_until
fam = make_family("gabor", {}, SignalGrid(8.0, 64))
cov, rep, traj = refine_until(fam, [[-4.0, 4.0], [-4.0, 4.0]],
                              trivial_admissible_weight(), target="banach",
                              initial_cell=0.9, z_per_cell=3, rel_cut=0.2)
assert rep.banach_only and len(traj) > 1
idx = cov.sample_node_index
for i, members in enumerate(cov.members):
    d = np.sum((cov.grid.points[members] - cov.sample_points[i]) ** 2, axis=1)
    assert idx[i] == members[d == d.min()].min()
assert "scipy.spatial" not in sys.modules, "property-d imported scipy.spatial"
"""

_CLI_SPATIAL_PROBE = """
import json, sys, tempfile
from pathlib import Path
from coorbit import cli
cfg = {"family": {"tag": "gabor", "params": {}},
       "signal_grid": {"T": 8.0, "n": 64},
       "index_domain": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                        "resolution": [16, 16]},
       "covering": {"cell_size": 1.0}, "weight": {"type": "trivial"},
       "stable_cut": 0.2, "battery_size": 2, "seed": 0,
       "tasks": ["discretize", "reconstruct", "localize"]}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(str(path), str(Path(tmp) / "out")) == 0
    tasks = json.loads((Path(tmp) / "out" / "report.json").read_text())["tasks"]
    assert set(tasks) == set(cfg["tasks"]), sorted(tasks)
assert "scipy.spatial" not in sys.modules, "a sampling task imported scipy.spatial"
"""


def _fresh_interpreter(code):
    src = str(Path(coverings.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_property_d_does_not_import_kdtree():
    # a fresh interpreter: refinement to the banach flag, then the sampled
    # nodes by the in-cell rule, never load scipy.spatial
    proc = _fresh_interpreter(_SPATIAL_PROBE)
    assert proc.returncode == 0, proc.stderr


def test_sampling_tasks_do_not_import_scipy_spatial():
    # the tasks that sample nodes (discretize, reconstruct, localize) run
    # through cli.run on a small Gabor box without scipy.spatial
    proc = _fresh_interpreter(_CLI_SPATIAL_PROBE)
    assert proc.returncode == 0, proc.stderr


class TestSerialization:
    def test_json_round_trip(self, line_grid):
        import json
        cov = build_covering(line_grid, 0.5, overlap_fraction=0.25)
        payload = json.loads(cov.to_json())
        assert payload["overlap_count"] == cov.overlap_count
        assert len(payload["cells"]) == cov.size


# ---------------------------------------------------------------------------
# the sweep against the dense construction
# ---------------------------------------------------------------------------
def _dense_contains(cells, points):
    """Reference: (N_c, P) closed-box membership, every cell x every node."""
    lo = cells[:, :, 0][:, None, :]
    hi = cells[:, :, 1][:, None, :]
    p = points[None, :, :]
    return np.all((p >= lo - 1e-12) & (p <= hi + 1e-12), axis=-1)


def _dense_open_overlap(cells):
    """Reference: every cell against every cell."""
    lo = cells[:, :, 0]
    hi = cells[:, :, 1]
    neighbors = []
    for i in range(cells.shape[0]):
        ov = np.all((lo[i][None, :] < hi) & (lo < hi[i][None, :]), axis=-1)
        deg = hi[i] <= lo[i]
        if np.any(deg):
            same = np.all(np.abs(lo[:, deg] - lo[i][deg][None, :]) < 1e-12, axis=-1) & \
                np.all(np.abs(hi[:, deg] - hi[i][deg][None, :]) < 1e-12, axis=-1)
            rest = ~deg
            ov = same & np.all((lo[:, rest] < hi[i][rest][None, :]) &
                               (lo[i][rest][None, :] < hi[:, rest]), axis=-1)
        neighbors.append(np.flatnonzero(ov))
    return neighbors


def _dense_sample_nodes(cov):
    """Reference: per cell, every member's float64 squared distance to the
    sample point, and the lowest node index at the minimum."""
    pts = cov.grid.points
    idx = np.empty(cov.size, dtype=int)
    for i in range(cov.size):
        members = cov.members[i]
        d = np.sum((pts[members] - cov.sample_points[i]) ** 2, axis=1)
        idx[i] = np.min(members[d == np.min(d)])
    return idx


def _random_samples(cov, seed=0):
    """The covering with seeded uniform sample points inside its cells, in
    place of the cell centers."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    lo, hi = cov.cells[:, :, 0], cov.cells[:, :, 1]
    pts = lo + rng.random(lo.shape) * (hi - lo)
    return dataclasses.replace(cov, sample_points=pts)


def _assert_matches_dense(cov):
    grid = cov.grid
    mem = _dense_contains(cov.cells, grid.points)
    assert len(cov.members) == cov.size
    for i in range(cov.size):
        ref = np.flatnonzero(mem[i])
        assert cov.members[i].dtype == ref.dtype
        assert np.array_equal(cov.members[i], ref)
        assert cov.measures[i] == float(np.sum(grid.weights[ref]))
    ref_nb = _dense_open_overlap(cov.cells)
    for got, ref in zip(cov.neighbors, ref_nb, strict=True):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert cov.overlap_count == max(len(v) for v in ref_nb)
    ref_nodes = _dense_sample_nodes(cov)
    assert np.array_equal(cov.sample_node_index, ref_nodes)
    assert mem[np.arange(cov.size), ref_nodes].all()


@st.composite
def lattice_grids(draw, min_cells=1, min_split=1):
    """Shuffled node lattices whose nodes sit on the covering's cell edges:
    exact, so whole node columns share an axis-0 coordinate, or with some
    nodes moved by up to 2e-12 (across the closed-box tolerance)."""
    d = draw(st.integers(1, 3))
    strides, splits, lo, hi, axes = [], [], [], [], []
    for _ in range(d):
        stride = draw(st.sampled_from([0.25, 0.5, 1.0]))
        n = draw(st.integers(min_cells, 5 if d < 3 else 4))
        split = draw(st.sampled_from([s for s in (1, 2, 3, 4) if s >= min_split]))
        a = draw(st.integers(-4, 4)) * stride
        strides.append(stride)
        splits.append(split)
        lo.append(a)
        hi.append(a + n * stride)
        axes.append(a + np.arange(n * split + 1) * (stride / split))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    seed = draw(st.integers(0, 2 ** 16))
    gen = np.random.default_rng(seed)
    jitter = gen.choice([0.0, 0.0, 1e-12, -1e-12, 0.5e-12, -0.5e-12, 2e-12, -2e-12],
                        size=pts.shape)
    if not draw(st.booleans()):
        jitter[:] = 0.0
    # along an axis with one node per stride every node is a cell corner, and
    # moving a cell's corners out of it past the tolerance leaves it without
    # nodes, which build_covering rightly rejects: stay within the tolerance
    corner = np.array(splits) == 1
    jitter[:, corner] = np.clip(jitter[:, corner], -1e-12, 1e-12)
    pts = np.clip(pts + jitter, lo, hi)[gen.permutation(pts.shape[0])]
    grid = QuadGrid(points=pts, weights=gen.uniform(0.5, 1.5, pts.shape[0]),
                    bounds=np.column_stack([lo, hi]))
    return grid, strides


class TestSweepExactness:
    @settings(max_examples=60, deadline=None)
    @given(lattice_grids(), st.sampled_from([0.0, 0.2, 0.5]),
           st.sampled_from(["center", "random"]))
    def test_random_lattice_matches_dense(self, case, overlap, sample):
        grid, strides = case
        cov = build_covering(grid, strides, overlap)
        _assert_matches_dense(_random_samples(cov) if sample == "random" else cov)

    @pytest.mark.parametrize("overlap", [0.0, 0.25])
    def test_banded_grid_with_sheet_cells_matches_dense(self, overlap):
        fam = make_family("inhom_wavelet", None, SignalGrid(16.0, 128))
        grid = default_index_grid(fam, band_spacing=0.9, scales_per_octave=6)
        cov = build_covering(grid, [0.5, 2.0], overlap)
        sheet = (cov.cells[:, 0, 0] == 0.0) & (cov.cells[:, 0, 1] == 0.0)
        assert 1 < sheet.sum() < cov.size
        _assert_matches_dense(cov)

    @pytest.mark.parametrize("overlap", [0.0, 0.25])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_refinement_ladder_grids_match_dense(self, level, overlap):
        # the gabor_refinement levels (81/324/1296 cells): unjittered
        # lattices, where every node column shares one axis-0 coordinate
        fam = make_family("gabor", {}, SignalGrid(8.0, 64))
        res = 18 * 2 ** level
        grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                  resolution=[res, res])
        cov = build_covering(grid, 0.9 / 2 ** level, overlap)
        assert cov.size == 81 * 4 ** level
        _assert_matches_dense(cov)

    def test_blocked_sweep_matches_dense(self, monkeypatch):
        # blocks far smaller than one query's runs: every block boundary
        # case of the sweep on a banded grid and on a lattice whose nodes
        # lie in 2 or 4 cells
        monkeypatch.setattr(coverings, "_BLOCK_PAIRS", 3)
        fam = make_family("inhom_wavelet", None, SignalGrid(16.0, 128))
        grid = default_index_grid(fam, band_spacing=0.9, scales_per_octave=6)
        _assert_matches_dense(build_covering(grid, [0.5, 2.0], 0.25))
        fam = make_family("gabor", {}, SignalGrid(8.0, 64))
        grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                  resolution=[36, 36])
        cov = build_covering(grid, 0.9, 0.25)
        assert np.bincount(np.concatenate(cov.members)).max() >= 2
        _assert_matches_dense(cov)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(1, 3), st.integers(2, 40))
    def test_open_overlap_matches_dense_on_degenerate_cells(self, seed, d, n):
        # lattice intervals, some collapsed to sheets (also inverted, and
        # off by less than the 1e-12 coincidence tolerance)
        gen = np.random.default_rng(seed)
        lo = gen.integers(-3, 3, size=(n, d)) * 0.5
        hi = lo + gen.integers(1, 3, size=(n, d)) * 0.5
        sheet = gen.random((n, d)) < 0.4
        base = gen.integers(-3, 3, size=(n, d)) * 0.5
        lo = np.where(sheet, base + gen.choice([0.0, 4e-13, -4e-13], (n, d)), lo)
        hi = np.where(sheet, base - gen.choice([0.0, 0.0, 3e-13, 0.5], (n, d)), hi)
        cells = np.stack([lo, hi], axis=-1)
        for got, ref in zip(_open_overlap(cells), _dense_open_overlap(cells),
                            strict=True):
            assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# the sampled node of each cell
# ---------------------------------------------------------------------------
class TestSampleNodeRule:
    """x_i is the member of U_i nearest to its sample point, the lowest node
    index among equal float64 distances."""

    def test_two_by_two_cells_take_lowest_of_four_ties(self):
        # dyadic node lattice with two nodes per axis in every cell: the four
        # members lie at exactly the same distance from the cell center, and
        # shuffled node indices put the lowest one at different corners
        axis = (np.arange(8) + 0.5) * 0.25
        mesh = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        pts = pts[np.random.default_rng(5).permutation(pts.shape[0])]
        grid = QuadGrid(points=pts, weights=np.full(pts.shape[0], 1.0 / 16),
                        bounds=np.array([[0.0, 2.0], [0.0, 2.0]]))
        cov = build_covering(grid, 0.5)
        idx = cov.sample_node_index
        assert cov.size == 16
        for i, members in enumerate(cov.members):
            d = np.sum((pts[members] - cov.sample_points[i]) ** 2, axis=1)
            assert members.size == 4 and np.all(d == d[0])
            assert idx[i] == members.min()
        corners = np.sign(pts[idx] - cov.sample_points)
        assert len({tuple(c) for c in corners}) > 1
        assert np.array_equal(idx, _dense_sample_nodes(cov))

    @pytest.mark.parametrize("sample", ["center", "random"])
    def test_clipped_edge_cells_match_reference(self, sample):
        # half overlap enlarges the cells, and those at the box edge are
        # clipped to it, so their sample points move off the lattice
        fam = make_family("gabor", {}, SignalGrid(8.0, 64))
        grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                  resolution=[36, 36])
        cov = build_covering(grid, 0.9, 0.5)
        if sample == "random":
            cov = _random_samples(cov, seed=3)
        width = cov.cells[:, :, 1] - cov.cells[:, :, 0]
        clipped = np.any(width < width.max() - 1e-9, axis=1)
        assert 0 < clipped.sum() < cov.size
        _assert_matches_dense(cov)

    def test_nearest_member_not_nearest_node(self):
        # the cell [0, 1] holds the nodes 0.2 and 0.5; from its sample point
        # 0.95 the nearest node overall is 1.05, a member of [1, 2] only
        pts = np.array([[0.2], [0.5], [1.05], [1.5], [1.9]])
        grid = QuadGrid(points=pts, weights=np.full(5, 0.4),
                        bounds=np.array([[0.0, 2.0]]))
        cov = dataclasses.replace(build_covering(grid, 1.0),
                                  sample_points=np.array([[0.95], [1.02]]))
        assert np.array_equal(cov.sample_node_index, [1, 2])

    def test_cell_without_members_rejected(self, line_grid):
        cov = build_covering(line_grid, 0.5)
        members = list(cov.members)
        members[3] = members[3][:0]
        with pytest.raises(CoveringError):
            dataclasses.replace(cov, members=members).sample_node_index

    @pytest.mark.parametrize("tag", ["cwt", "inhom_wavelet"])
    def test_banded_grids_match_reference(self, tag):
        # scale-banded coverings; inhom_wavelet adds low-pass sheet cells,
        # whose scale interval is [0, 0] and whose members are sheet nodes
        fam = make_family(tag, None, SignalGrid(16.0, 128))
        grid = default_index_grid(fam, band_spacing=0.9, scales_per_octave=6)
        cov = build_covering(grid, [0.5, 2.0], 0.25)
        sheet = (cov.cells[:, 0, 0] == 0.0) & (cov.cells[:, 0, 1] == 0.0)
        assert (sheet.sum() > 1) == (tag == "inhom_wavelet")
        idx = cov.sample_node_index
        assert np.array_equal(idx, _dense_sample_nodes(cov))
        assert all(idx[i] in cov.members[i] for i in range(cov.size))
        assert np.all(grid.points[idx[sheet], 0] == 0.0)
        assert np.all(grid.points[idx[~sheet], 0] > 0.0)


# ---------------------------------------------------------------------------
# invariants of the paper's coverings
# ---------------------------------------------------------------------------
class TestCoveringInvariants:
    @settings(max_examples=40, deadline=None)
    @given(lattice_grids(), st.sampled_from([0.0, 0.2, 0.5]),
           st.sampled_from(["indicator", "tent"]))
    def test_partition_of_unity_sums_to_one(self, case, overlap, flavor):
        grid, strides = case
        pu = build_pu(build_covering(grid, strides, overlap), flavor)
        assert np.abs(pu.sum_at_nodes() - 1.0).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(lattice_grids(), st.sampled_from([0.0, 0.2, 0.5]))
    def test_segmented_passes_match_cell_loops(self, case, overlap):
        # the node->cells table, the PU sums and the weight sups are one
        # pass each; per-cell loops give the same bits, also with a cell
        # emptied so that nodes lie in no cell
        from coorbit.sequence_spaces import cell_weight_sups
        grid, strides = case
        cov = build_covering(grid, strides, overlap)
        w = polynomial_weight(1.0)
        vals = w(grid.points)
        assert np.array_equal(cell_weight_sups(cov, w),
                              [np.max(vals[idx]) for idx in cov.members])
        count = np.zeros(grid.size)
        for idx in cov.members:
            count[idx] += 1.0
        for idx, val in zip(cov.members, build_pu(cov).values):
            assert np.array_equal(val, 1.0 / count[idx])
        for flavor in ("indicator", "tent"):
            pu = build_pu(cov, flavor)
            total = np.zeros(grid.size)
            for idx, val in zip(cov.members, pu.values):
                total[idx] += val
            assert np.array_equal(pu.sum_at_nodes(), total)
        emptied = dataclasses.replace(cov, members=[cov.members[0][:0]]
                                      + cov.members[1:])
        for c in (cov, emptied):
            held = [[] for _ in range(grid.size)]
            for i, idx in enumerate(c.members):
                for k in idx:
                    held[k].append(i)
            table = c.node_cells()
            assert table.shape[1] == max(1, max(len(h) for h in held))
            for row, cells in zip(table.tolist(), held):
                pad = (cells[-1:] or [-1]) * (len(row) - len(cells))
                assert row == cells + pad

    @settings(max_examples=30, deadline=None)
    @given(lattice_grids(min_cells=3, min_split=3), st.sampled_from([0.0, 0.2, 0.5]))
    def test_refinement_stays_moderate(self, case, overlap):
        # with at least three cells per axis the parent already shows the
        # interior overlap number, which halving the cells cannot raise; with
        # three or more nodes per stride every halved cell keeps a node off
        # its edges (at two, its only nodes are edge nodes, which the 2e-12
        # jitter can push out of it, and build_covering rightly rejects it)
        grid, strides = case
        m = trivial_admissible_weight()
        cov = build_covering(grid, strides, overlap)
        fine = refine_covering(cov)
        assert verify_moderate(cov, m).moderate
        assert verify_moderate(fine, m).moderate
        assert fine.overlap_count <= cov.overlap_count
