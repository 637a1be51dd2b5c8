import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coorbit import discretization, frame_families
from coorbit._linalg import hermitian_gram, restricted_rayleigh_bounds
from coorbit.coverings import build_covering, build_pu, PartitionOfUnity
from coorbit.discretization import (DUAL_CAP, DiscretizationError,
                                    atomic_coefficients,
                                    banach_frame_reconstruct, build_uphi,
                                    dual_frame)
from coorbit.frame_families import (_interior_probes, analyze_V,
                                    default_index_grid, frame_bounds_continuous,
                                    gram_kernel, make_battery, make_family)
from coorbit.kernel_algebra import apply_kernel
from coorbit.measure_space import SignalGrid


CUT = 0.2


@pytest.fixture(scope="module")
def small_pipeline():
    """Gabor box with a mid-size covering: full pipeline in seconds."""
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                              resolution=[64, 64])
    cov = build_covering(grid, 0.25)
    pu = build_pu(cov)
    R = gram_kernel(fam, grid, rel_cut=CUT)
    op = build_uphi(fam, pu, CUT)
    return fam, grid, cov, pu, R, op


@pytest.fixture(scope="module")
def node_limit():
    """Single-node cells: every quadrature node is a sample point."""
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                              resolution=[20, 20])
    cov = build_covering(grid, 8.0 / 20)
    pu = build_pu(cov)
    R = gram_kernel(fam, grid, rel_cut=CUT)
    op = build_uphi(fam, pu, CUT)
    return fam, grid, cov, pu, R, op


class TestSampleFrame:
    def test_node_partition_samples_every_node(self, node_limit):
        fam, grid, cov, pu, R, op = node_limit
        assert op.node_index.size == cov.size == grid.size
        assert np.array_equal(np.sort(op.node_index), np.arange(grid.size))

    def test_cell_count_matches(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        assert op.node_index.size == cov.size
        assert op.atoms.shape == (fam.signal_grid.n, cov.size)

    @pytest.mark.parametrize("tag,T,cell", [
        ("gabor", 8.0, 1.0), ("cwt", 16.0, [0.5, 2.0]),
        ("inhom_wavelet", 16.0, [0.5, 2.0]), ("sinc_rkhs", 8.0, 2.0),
        ("alpha_mod", 8.0, 1.0)])
    def test_operator_atoms_equal_synthesized_atoms(self, tag, T, cell):
        # UPhiOperator.atoms is the sampled grid's atom matrix; its bits
        # equal the atoms the family synthesizes at the sample nodes
        fam = make_family(tag, None, SignalGrid(T, 64))
        grid = default_index_grid(fam)
        cov = build_covering(grid, cell)
        pu = build_pu(cov)
        op = build_uphi(fam, pu, CUT)
        atoms = fam.atoms(grid.points[cov.sample_node_index])
        assert np.array_equal(op.atoms, atoms)
        assert op.atoms.flags.c_contiguous == atoms.flags.c_contiguous
        assert np.array_equal(op.node_index, cov.sample_node_index)
        assert np.array_equal(op.masses, pu.masses)


class TestUPhi:
    def test_zero_field(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        assert np.all(op.apply(np.zeros(grid.size, dtype=complex)) == 0)

    def test_node_limit_matches_kernel_application(self, node_limit, small_pipeline):
        # with c_i = node weights, U_Phi is the quadrature application of R;
        # the coarser covering has a visible gap, the node limit none
        fam, grid, cov, pu, R, op = node_limit
        f = make_battery(fam, grid, 1, seed=3)[0]
        F = op.project(analyze_V(fam, f, grid).values)
        gap_fine = _mu_norm(op.apply(F) - apply_kernel(R, F, grid), grid)
        famc, gridc, covc, puc, Rc, opc = small_pipeline
        fc = make_battery(famc, gridc, 1, seed=3)[0]
        Fc = opc.project(analyze_V(famc, fc, gridc).values)
        gap_coarse = _mu_norm(opc.apply(Fc) - apply_kernel(Rc, Fc, gridc), gridc)
        assert gap_fine <= 1e-10
        assert gap_coarse > 10 * gap_fine

    def test_spot_check_against_direct_sum(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        k = 37
        F = R.block(grid.points, grid.points[op.node_index[k]:op.node_index[k] + 1])[:, 0]
        out = op.apply(F)
        # independent summation at a handful of nodes
        samples = F[op.node_index]
        cols = R.block(grid.points[::301], grid.points[op.node_index])
        direct = cols @ (op.masses * samples)
        assert np.abs(out[::301] - direct).max() <= 1e-10 * np.abs(direct).max()

    def test_commutation_identity(self, small_pipeline):
        # <U_Phi F, W psi_x> = <F, U_Phi W psi_x> in L2(mu) for F in ran R
        fam, grid, cov, pu, R, op = small_pipeline
        w = grid.weights
        f = make_battery(fam, grid, 1, seed=8)[0]
        F = op.project(analyze_V(fam, f, grid).values)
        for k in (10, 100, 480):
            col = R.block(grid.points, grid.points[op.node_index[k]:op.node_index[k] + 1])[:, 0]
            lhs = np.sum(w * op.apply(F) * np.conj(col))
            rhs = np.sum(w * F * np.conj(op.apply(col)))
            assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30)


def _mu_norm(G, grid):
    return float(np.sqrt(np.sum(grid.weights * np.abs(G) ** 2)))


@pytest.fixture(scope="module", params=[0.0, 0.5], ids=["partition", "overlap"])
def small_uphi(request):
    """U_Phi on a 24 x 24 Gabor grid, partition and half-overlap covering."""
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam, bounds=[[-3.0, 3.0], [-3.0, 3.0]],
                              resolution=[24, 24])
    cov = build_covering(grid, 0.5, overlap_fraction=request.param)
    return build_uphi(fam, build_pu(cov), CUT)


def _random_fields(seed, size, cols):
    rng = np.random.default_rng(seed)
    shape = (size,) if cols == 0 else (size, cols)
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2)]


def _mu_inner(F, G, grid):
    """<F, G>_mu per column."""
    return np.sum((grid.weights * (F * np.conj(G)).T).T, axis=0)


class TestUPhiAdjoint:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 3]))
    def test_self_adjoint_on_range(self, small_uphi, seed, cols):
        # <U_Phi F, G>_mu = <F, U_Phi G>_mu for F, G in ran R: the identity
        # that makes U_Phi on ran R the Hermitian r x r matrix K
        op = small_uphi
        F, G = (op.project(X) for X in _random_fields(seed, op.grid.size, cols))
        UF, UG = op.apply(F), op.apply(G)
        lhs, rhs = _mu_inner(UF, G, op.grid), _mu_inner(F, UG, op.grid)
        scale = (_mu_inner(UF, UF, op.grid).real * _mu_inner(G, G, op.grid).real) ** 0.5 + \
            (_mu_inner(F, F, op.grid).real * _mu_inner(UG, UG, op.grid).real) ** 0.5
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 3]))
    def test_project_idempotent_and_self_adjoint(self, small_uphi, seed, cols):
        op = small_uphi
        F, G = _random_fields(seed, op.grid.size, cols)
        PF, PG = op.project(F), op.project(G)
        f_norm = _mu_inner(F, F, op.grid).real ** 0.5
        g_norm = _mu_inner(G, G, op.grid).real ** 0.5
        assert np.all(_mu_inner(op.project(PF) - PF, op.project(PF) - PF,
                                op.grid).real ** 0.5 <= 1e-12 * f_norm)
        assert np.all(np.abs(_mu_inner(PF, G, op.grid) - _mu_inner(F, PG, op.grid))
                      <= 1e-12 * f_norm * g_norm)


class TestDefect:
    def test_node_limit_defect_vanishes(self, node_limit):
        fam, grid, cov, pu, R, op = node_limit
        assert op.defect <= 1e-8

    def test_passing_covering_below_one(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        assert op.defect < 1.0

    def test_dense_reference(self, small_uphi):
        # the spectral norm of W^(1/2) P (Id - U_Phi) P W^(-1/2), built
        # column by column from `apply` and `project` on all 576 nodes
        op = small_uphi
        PE = op.project(np.eye(op.grid.size, dtype=complex))
        T = op.project(PE - op.apply(PE))
        sq = np.sqrt(op.grid.weights)
        dense = np.linalg.norm(sq[:, None] * T / sq[None, :], 2)
        assert abs(op.defect - dense) <= 1e-12 * dense

    def test_at_least_power_iteration(self, small_uphi, small_pipeline,
                                      reference_defect_power_iteration):
        # the power iteration is a Rayleigh quotient of the exact value; a
        # converged one meets it up to rounding
        for op in (small_uphi, small_pipeline[-1]):
            power = reference_defect_power_iteration(op)
            assert op.defect >= power * (1.0 - 1e-13)

    def test_coarse_covering_refuses_neumann(self):
        sg = SignalGrid(8.0, 64)
        fam = make_family("gabor", None, sg)
        grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                  resolution=[32, 32])
        cov = build_covering(grid, 4.0)        # 2x2 cells
        pu = build_pu(cov)
        op = build_uphi(fam, pu, CUT)
        assert op.defect >= 1.0
        with pytest.raises(DiscretizationError):
            op.solve(np.ones(grid.size, dtype=complex))

    def test_defect_bound_on_small_ladder(self, gabor_ladder,
                                          reference_defect_power_iteration):
        """||P (Id - U_Phi) P|| <= delta (||R|| + sigma) at ladder levels 0-2,
        and the exact defect is at least the power-iteration estimate."""
        fam = gabor_ladder["family"]
        domain = np.asarray(gabor_ladder["domain"])
        steps = [s for s in gabor_ladder["trajectory"] if s.level <= 2]
        assert [s.level for s in steps] == [0, 1, 2]
        for step in steps:
            cell = 0.9 / 2 ** step.level
            res = [round((hi - lo) / cell) * 2 for lo, hi in domain]
            grid = default_index_grid(fam, bounds=domain.tolist(), resolution=res)
            cov = build_covering(grid, cell)
            assert cov.size == step.cells
            op = build_uphi(fam, build_pu(cov), gabor_ladder["rel_cut"])
            rep = step.report
            assert op.defect <= rep.delta_est * (rep.r_norm + rep.sigma), step.level
            power = reference_defect_power_iteration(op)
            assert op.defect >= power * (1.0 - 1e-13), step.level


class TestSolve:
    def test_node_limit_is_identity_on_range(self, node_limit):
        fam, grid, cov, pu, R, op = node_limit
        f = make_battery(fam, grid, 1, seed=13)[0]
        F = op.project(analyze_V(fam, f, grid).values)
        out = op.solve(F)
        assert _mu_norm(out - F, grid) <= 1e-8 * _mu_norm(F, grid)

    def test_matches_neumann_series(self, small_pipeline, reference_neumann):
        fam, grid, cov, pu, R, op = small_pipeline
        f = make_battery(fam, grid, 1, seed=14)[0]
        F = op.project(analyze_V(fam, f, grid).values)
        u1, u2 = reference_neumann(op, F), op.solve(F)
        assert _mu_norm(u1 - u2, grid) <= 1e-8 * _mu_norm(u1, grid)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0, 3]))
    def test_residual(self, small_uphi, seed, cols):
        # ||P U_Phi solve(F) - P F||_mu <= 1e-12 ||P F||_mu, per column
        op = small_uphi
        F = _random_fields(seed, op.grid.size, cols)[0]
        PF = op.project(F)
        res = op.project(op.apply(op.solve(F))) - PF
        assert np.all(_mu_inner(res, res, op.grid).real ** 0.5 <=
                      1e-12 * _mu_inner(PF, PF, op.grid).real ** 0.5)


class TestAtomicDecomposition:
    def test_atom_round_trip(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        k = int(np.argmin(np.sum(cov.sample_points ** 2, axis=1)))
        f = fam.atom(grid.points[op.node_index[k]])
        lam, rep = atomic_coefficients(f, op)
        assert rep.relative_error <= 1e-3

    def test_zero_signal(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        lam, rep = atomic_coefficients(np.zeros(fam.signal_grid.n, dtype=complex), op)
        assert np.all(lam == 0)

    def test_battery_round_trip_and_ratios(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        for seed in range(3):
            f = make_battery(fam, grid, 1, seed=seed)[0]
            lam, rep = atomic_coefficients(f, op)
            assert rep.relative_error <= 1e-3
            assert 0.5 <= rep.norm_ratios["natural_l2"] <= 2.0


class TestDualFrame:
    def test_node_limit_duals_are_rescaled_atoms(self, node_limit):
        # tight frame, U_Phi -> R: e_i -> a_i S^+ psi_i ~ a_i psi_i away from
        # the truncation boundary
        fam, grid, cov, pu, R, op = node_limit
        duals = dual_frame(op)
        dev = np.sqrt(fam.signal_grid.h * np.sum(
            np.abs(duals - op.atoms * cov.measures[None, :]) ** 2, axis=0))
        box = fam.interior_box(grid.bounds)
        pts = grid.points[op.node_index]
        interior = np.all((pts >= box[:, 0]) & (pts <= box[:, 1]), axis=1)
        assert dev[interior].max() <= 5e-3

    def test_duals_reconstruct(self, node_limit):
        fam, grid, cov, pu, R, op = node_limit
        sg = fam.signal_grid
        duals = dual_frame(op)
        f = make_battery(fam, grid, 1, seed=4)[0]
        coeffs = sg.h * (duals.conj().T @ f)
        rec = op.atoms @ coeffs
        assert sg.norm(rec - f) <= 1e-3 * sg.norm(f)

    def test_dual_coefficients_match_atomic(self, node_limit):
        fam, grid, cov, pu, R, op = node_limit
        sg = fam.signal_grid
        idx = np.array([45, 200, 350])
        duals = dual_frame(op, indices=idx)
        f = make_battery(fam, grid, 1, seed=6)[0]
        lam, _ = atomic_coefficients(f, op)
        inner = sg.h * (duals.conj().T @ f)
        assert np.abs(inner - lam[idx]).max() <= 1e-6

    def test_zero_mass_gives_zero_dual(self, node_limit):
        fam, grid, cov, pu, R, op = node_limit
        masses = pu.masses.copy()
        masses[7] = 0.0
        pu0 = PartitionOfUnity(covering=cov, values=pu.values, masses=masses)
        op0 = build_uphi(fam, pu0, CUT)
        duals = dual_frame(op0, indices=np.array([7]))
        assert np.abs(duals[:, 0]).max() == 0.0


def test_banach_frame_is_the_dual_atoms(small_uphi):
    # both are P^H K^{-1} C_X diag(c) s, associated differently: measured
    # at most 4.5e-16 of the largest entry on the partition and the
    # half-overlap covering (144 cells each, within DUAL_CAP)
    op = small_uphi
    assert op.covering.size <= DUAL_CAP
    rng = np.random.default_rng(5)
    s = rng.standard_normal((op.covering.size, 4)) + \
        1j * rng.standard_normal((op.covering.size, 4))
    rec, _ = banach_frame_reconstruct(s, op)
    ref = dual_frame(op) @ s
    assert np.abs(rec - ref).max() <= 1e-14 * np.abs(ref).max()


class TestBanachReconstruct:
    def test_atom_recovery(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        k = int(np.argmin(np.sum((cov.sample_points -
                                  np.array([0.7, -0.4])) ** 2, axis=1)))
        f = fam.atom(grid.points[op.node_index[k]])
        samples = analyze_V(fam, f, grid).values[op.node_index]
        rec, rep = banach_frame_reconstruct(samples, op, f_true=f)
        assert rep.relative_error <= 1e-3

    def test_zero_samples(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        rec, rep = banach_frame_reconstruct(np.zeros(cov.size), op)
        assert np.all(rec == 0)

    def test_norm_bracket_logged(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        ratios = []
        for seed in range(5):
            f = make_battery(fam, grid, 1, seed=seed)[0]
            samples = analyze_V(fam, f, grid).values[op.node_index]
            _, rep = banach_frame_reconstruct(samples, op, f_true=f)
            ratios.append(rep.norm_ratios["flat_l2_over_f"])
        assert max(ratios) / min(ratios) <= 1.1


@pytest.fixture(scope="module")
def level3_uphi():
    """The reconstruct workload's U_Phi: the level-3 Gabor covering (cell
    0.1125 on 142 x 142 nodes, 5041 cells) at the shipped cut 0.2."""
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", {}, sg)
    grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                              resolution=[142, 142])
    cov = build_covering(grid, 0.1125)
    op = build_uphi(fam, build_pu(cov), 0.2)
    return fam, grid, op


# block and one-signal products round differently; the widest gaps measured
# on the level-3 operator are 2.3e-13 on the errors (a residual about 1e-3
# of ||f||, so its rounding weighs 1e3 times more) and 3.6e-15 elsewhere
BLOCK_TOL = 1e-12


def _rel_gap(got, ref) -> float:
    return float(np.max(np.abs(np.asarray(got) - ref)) / np.max(np.abs(ref)))


class TestBlockBattery:
    @pytest.mark.parametrize("seed", [2024, 37])
    def test_block_matches_one_signal_at_a_time(self, level3_uphi, seed):
        fam, grid, op = level3_uphi
        battery = make_battery(fam, grid, 10, seed=seed)
        block = np.stack(battery, axis=1)
        lam, rep = atomic_coefficients(block, op)
        samples = fam.signal_grid.h * (op.atoms.conj().T @ block)
        rec, brep = banach_frame_reconstruct(samples, op, f_true=block)
        assert lam.shape == (op.covering.size, len(battery))
        assert rep.relative_error.shape == brep.relative_error.shape == (len(battery),)
        for b, f in enumerate(battery):
            lam1, rep1 = atomic_coefficients(f, op)
            rec1, brep1 = banach_frame_reconstruct(samples[:, b], op, f_true=f)
            assert _rel_gap(lam[:, b], lam1) <= BLOCK_TOL
            assert _rel_gap(rec[:, b], rec1) <= BLOCK_TOL
            pairs = [(rep.relative_error, rep1.relative_error),
                     (brep.relative_error, brep1.relative_error)]
            pairs += [(rep.norm_ratios[k], rep1.norm_ratios[k])
                      for k in ("natural_l2", "natural_l1_v")]
            pairs.append((brep.norm_ratios["flat_l2_over_f"],
                          brep1.norm_ratios["flat_l2_over_f"]))
            for block_vals, one in pairs:
                assert type(one) is float
                assert _rel_gap(block_vals[b], one) <= BLOCK_TOL

    def test_banach_block_without_truth_reports_nan(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        _, rep = banach_frame_reconstruct(np.zeros((cov.size, 2)), op)
        assert rep.relative_error.shape == (2,)
        assert np.all(np.isnan(rep.relative_error))
        assert np.all(rep.norm_ratios["flat_l2_over_f"] == 0.0)


class TestHilbertBounds:
    """The sampled system's bounds are `frame_bounds_continuous` on the
    covering's sampling measure (`Covering.sampled_grid`)."""

    def test_bounds_ordered_and_near_tight(self, small_pipeline):
        fam, grid, cov, pu, R, op = small_pipeline
        rep = frame_bounds_continuous(fam, cov.sampled_grid)
        assert rep.c1 <= rep.c2
        assert 0.5 <= rep.c1 and rep.c2 <= 2.0
        assert "interior" in rep.subspace

    def test_sinc_shannon_bounds_ordered(self):
        # the sinc_shannon configuration: a tight sampled frame, whose two
        # bounds differ only by rounding and must still come out ordered
        sg = SignalGrid(10.0, 512)
        fam = make_family("sinc_rkhs", {"bandlimit": np.pi / 2}, sg)
        grid = default_index_grid(fam, resolution=[100])
        cov = build_covering(grid, 1.0)
        rep = frame_bounds_continuous(fam, cov.sampled_grid)
        assert rep.c1 <= rep.c2

    @pytest.mark.parametrize("tag,T,cell", [
        ("gabor", 8.0, 1.0), ("sinc_rkhs", 8.0, 2.0), ("alpha_mod", 8.0, 1.0),
        ("inhom_wavelet", 16.0, [0.5, 2.0])])
    def test_bounds_of_the_sampled_frame_operator(self, tag, T, cell):
        # S_d = h Psi_X diag(a) Psi_X^H on the span of the interior sampled
        # atoms, F-ordered as a column slice of the sampled atoms: the same
        # bits (inhom_wavelet's interior takes in its low-pass sheet)
        fam = make_family(tag, None, SignalGrid(T, 64))
        grid = default_index_grid(fam)
        cov = build_covering(grid, cell)
        pts, h = grid.points[cov.sample_node_index], fam.signal_grid.h
        atoms = fam.atoms(pts)
        idx = _interior_probes(fam, grid, pts)
        probes = atoms[:, idx]
        assert probes.flags.f_contiguous and not probes.flags.c_contiguous
        c1, c2, rank = restricted_rayleigh_bounds(
            probes, hermitian_gram(atoms, cov.measures, h), h)
        rep = frame_bounds_continuous(fam, cov.sampled_grid)
        assert (rep.c1.hex(), rep.c2.hex(), rep.rank, rep.probe_count) == \
            (c1.hex(), c2.hex(), rank, idx.size)
        if tag == "inhom_wavelet":
            assert np.any(pts[idx, 0] == 0.0)


def _gram_calls(monkeypatch, module) -> list:
    """Record every `hermitian_gram` result `module` forms."""
    calls = []

    def spy(x, w, h, threads=1):
        g = hermitian_gram(x, w, h, threads)
        calls.append(g)
        return g

    monkeypatch.setattr(module, "hermitian_gram", spy)
    return calls


def _one_gemm(x, w, h):
    g = h * ((x * w[None, :]) @ x.conj().T)
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("tag,T,cell", [("gabor", 8.0, 1.0), ("sinc_rkhs", 8.0, 2.0),
                                        ("alpha_mod", 8.0, 1.0)])
class TestOneGramRoutine:
    """S_d and K are `hermitian_gram`s; they match the one-GEMM formulas
    they replaced."""

    def _op(self, tag, T, cell):
        fam = make_family(tag, None, SignalGrid(T, 64))
        grid = default_index_grid(fam)
        cov = build_covering(grid, cell)
        return build_uphi(fam, build_pu(cov), CUT)

    def test_sampled_frame_operator(self, monkeypatch, tag, T, cell):
        op = self._op(tag, T, cell)
        calls = _gram_calls(monkeypatch, frame_families)
        frame_bounds_continuous(op.calc.family, op.covering.sampled_grid)
        assert len(calls) == 1
        ref = _one_gemm(op.atoms, op.covering.measures, op.calc.family.signal_grid.h)
        assert calls[0].dtype == op.atoms.dtype
        assert np.abs(calls[0] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(calls[0], calls[0].conj().T)

    def test_uphi_on_the_range(self, monkeypatch, tag, T, cell):
        op = self._op(tag, T, cell)
        calls = _gram_calls(monkeypatch, discretization)
        kappa = op._spectrum[0]
        assert len(calls) == 1
        ref = _one_gemm(op._c_nodes, op.masses, op.calc.family.signal_grid.h)
        assert np.abs(calls[0] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(calls[0], calls[0].conj().T)
        assert np.array_equal(kappa, np.linalg.eigh(calls[0])[0])
