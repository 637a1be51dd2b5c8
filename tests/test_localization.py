import numpy as np
import pytest

from coorbit.coverings import build_covering
from coorbit.frame_families import default_index_grid, make_family
from coorbit.localization import (LocalizationError, _pinv_factor,
                                  a_flat_norm, cross_gramian,
                                  empirical_pseudoinverse,
                                  gab_domination_check)
from conftest import cell_lists
from coorbit.measure_space import (SignalGrid, polynomial_weight,
                                   weight_from_w)


@pytest.fixture(scope="module")
def gabor_samples():
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                              resolution=[32, 32])
    cov = build_covering(grid, 0.5)
    return fam, grid, cov, grid.points[cov.sample_node_index]


class TestCrossGramian:
    def test_self_gramian_hermitian(self, gabor_samples):
        fam, grid, cov, pts = gabor_samples
        gram = cross_gramian(fam, fam, pts, pts)
        assert np.abs(gram.matrix - gram.matrix.conj().T).max() <= 1e-10

    def test_conjugate_transpose_relation(self, gabor_samples, rng):
        fam, grid, cov, pts = gabor_samples
        fam2 = make_family("gabor", None, fam.signal_grid)
        pts_a = pts[:40]
        pts_b = pts[100:150]
        ab = cross_gramian(fam, fam2, pts_a, pts_b)
        ba = cross_gramian(fam2, fam, pts_b, pts_a)
        assert np.abs(ab.matrix - ba.matrix.conj().T).max() <= 1e-12

    def test_zero_family(self, gabor_samples):
        fam, grid, cov, pts = gabor_samples
        zero = type(fam)(**{**fam.__dict__,
                            "atom_fn": lambda pts, threads=1: np.zeros(
                                (fam.signal_grid.n, pts.shape[0]), dtype=complex),
                            "_ops": {}})
        gram = cross_gramian(zero, fam, pts[:10], pts[:10])
        assert np.all(gram.matrix == 0)

    def test_signal_grid_mismatch(self, gabor_samples):
        fam, grid, cov, pts = gabor_samples
        other = make_family("gabor", None, SignalGrid(8.0, 128))
        with pytest.raises(LocalizationError):
            cross_gramian(fam, other, pts[:2], pts[:2])

    def test_gaussian_decay_matches_metric(self, gabor_samples):
        # |Lambda_ij| = exp(-d^2/4): correlation of log|Lambda| with -d^2
        fam, grid, cov, pts = gabor_samples
        gram = cross_gramian(fam, fam, pts, pts)
        d = grid.metric(pts, pts)
        amp = np.abs(gram.matrix)
        mask = amp > 1e-10 * amp.max()
        x = -d[mask] ** 2
        y = np.log(amp[mask])
        corr = np.corrcoef(x, y)[0, 1]
        assert corr >= 0.99


class TestAFlatNorm:
    def test_zero_matrix(self, gabor_samples, m_trivial):
        fam, grid, cov, pts = gabor_samples
        gram = cross_gramian(fam, fam, pts, pts)
        gram.matrix = np.zeros_like(gram.matrix)
        assert a_flat_norm(gram, cov, m_trivial).a_flat_norm == 0.0

    def test_identity_pattern_on_uniform_cells(self, gabor_samples, m_trivial):
        fam, grid, cov, pts = gabor_samples
        gram = cross_gramian(fam, fam, pts, pts)
        gram.matrix = np.eye(cov.size, dtype=complex)
        rep = a_flat_norm(gram, cov, m_trivial)
        assert rep.a_flat_norm == pytest.approx(cov.measures[0], rel=1e-12)

    def test_transpose_invariance(self, gabor_samples, rng):
        fam, grid, cov, pts = gabor_samples
        m = weight_from_w(polynomial_weight(1.0))
        gram = cross_gramian(fam, fam, pts, pts)
        a = a_flat_norm(gram, cov, m).a_flat_norm
        gram.matrix = gram.matrix.conj().T
        b = a_flat_norm(gram, cov, m).a_flat_norm
        assert a == pytest.approx(b, rel=1e-12)

    def test_finite_and_stable_under_refinement(self, m_trivial):
        # trivial weight: the norm is a Riemann sum of the continuum value 2
        # and is refinement-stable; the polynomial weight stays finite but its
        # point-sampled denominator drifts O(cell) (see the decisions ledger)
        sg = SignalGrid(8.0, 64)
        fam = make_family("gabor", None, sg)
        m2 = weight_from_w(polynomial_weight(2.0))
        norms = []
        for res, cell in ((32, 0.5), (64, 0.25)):
            grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                      resolution=[res, res])
            cov = build_covering(grid, cell)
            pts = grid.points[cov.sample_node_index]
            gram = cross_gramian(fam, fam, pts, pts)
            assert a_flat_norm(gram, cov, m2).finite
            norms.append(a_flat_norm(gram, cov, m_trivial).a_flat_norm)
        assert abs(norms[1] - norms[0]) <= 0.05 * norms[0]
        assert norms[1] == pytest.approx(2.0, rel=0.02)

    def test_submultiplicative(self, gabor_samples, rng, m_trivial):
        fam, grid, cov, pts = gabor_samples
        gram = cross_gramian(fam, fam, pts, pts)
        lam = np.abs(gram.matrix)
        prod_gram = cross_gramian(fam, fam, pts, pts)
        # (Lambda o Lambda)_{ij} = sum_k lam_{ik} lam_{kj} mu(U_k)
        prod_gram.matrix = (lam * cov.measures[None, :]) @ lam
        n_prod = a_flat_norm(prod_gram, cov, m_trivial).a_flat_norm
        n = a_flat_norm(gram, cov, m_trivial).a_flat_norm
        assert n_prod <= n * n * (1 + 1e-10)

    def test_m_flat_comparable_to_m(self, gabor_samples, rng):
        # C^-2 m(x,y) <= m(x_i, x_j) <= C^2 m(x,y) for x in U_i, y in U_j
        from coorbit.coverings import weight_sup_on_cells
        fam, grid, cov, pts = gabor_samples
        m = weight_from_w(polynomial_weight(1.0))
        c = weight_sup_on_cells(cov, m)
        members = cell_lists(cov.members)
        gen = np.random.default_rng(3)
        for _ in range(50):
            i, j = gen.integers(0, cov.size, 2)
            xi = grid.points[gen.choice(members[i])]
            yj = grid.points[gen.choice(members[j])]
            m_flat = m(pts[i][None, :], pts[j][None, :])[0, 0]
            m_xy = m(xi[None, :], yj[None, :])[0, 0]
            assert m_flat <= c ** 2 * m_xy + 1e-12
            assert m_flat >= m_xy / c ** 2 - 1e-12


class TestDomination:
    def test_sinc_dominated_to_rounding(self):
        sg = SignalGrid(8.0, 64)
        fam = make_family("sinc_rkhs", {"bandlimit": np.pi / 2}, sg)
        grid = default_index_grid(fam, resolution=[64])
        cov = build_covering(grid, 1.0)
        assert gab_domination_check(fam, fam, cov) <= 1e-10

    def test_gabor_dominated(self):
        sg = SignalGrid(8.0, 64)
        fam = make_family("gabor", None, sg)
        grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                  resolution=[16, 16])
        cov = build_covering(grid, 2.0)   # 4x4 cells
        assert gab_domination_check(fam, fam, cov, rel_cut=0.2) <= 1e-10

    def test_dropping_oscillation_breaks_the_bound(self, monkeypatch):
        import coorbit.oscillation
        monkeypatch.setattr(coorbit.oscillation, "osc_matrix",
                            lambda kern, cov, **kw: np.zeros((cov.grid.size,
                                                              cov.grid.size)))
        sg = SignalGrid(8.0, 128)
        fam = make_family("sinc_rkhs", {"bandlimit": 5.0}, sg)
        grid = default_index_grid(fam, resolution=[128])
        cov = build_covering(grid, 4.0)
        assert gab_domination_check(fam, fam, cov) > 0.01

    def test_too_many_cells_rejected(self, gabor_samples):
        fam, grid, cov, pts = gabor_samples
        with pytest.raises(LocalizationError):
            gab_domination_check(fam, fam, cov)


@pytest.fixture(scope="module")
def pinv_report():
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-5.0, 5.0]],
                              resolution=[40, 40])
    return fam, grid, empirical_pseudoinverse(fam, grid, rank_tol=0.2)


class TestEmpiricalPseudoInverse:

    def test_projection_identities(self, pinv_report):
        fam, grid, rep = pinv_report
        assert rep.projection_defect <= 1e-6
        assert rep.idempotent_defect <= 1e-6

    def test_dual_gramian_matches_pinv_composition(self, pinv_report):
        fam, grid, rep = pinv_report
        assert rep.dual_gramian_defect <= 1e-6

    def test_tight_family_pinv_agrees_with_gramian(self, pinv_report):
        # A+ = A on ran V for tight families; at truncation the interior
        # entrywise agreement tracks the tightness deficit of the box
        fam, grid, rep = pinv_report
        assert rep.interior_agreement <= 5e-3

    def test_decay_exponents_comparable(self, pinv_report):
        # fit log max-modulus ~ -c d^2 for A and A-pinv; within 2x
        fam, grid, rep = pinv_report
        def fit(edges, prof):
            mids = np.sqrt(edges[:-1] * edges[1:])
            mask = prof > 1e-9 * prof.max()
            return np.polyfit(mids[mask] ** 2, np.log(prof[mask]), 1)[0]
        c_a = -fit(rep.decay_edges_a, rep.decay_a)
        c_p = -fit(rep.decay_edges_pinv, rep.decay_pinv)
        assert c_a > 0 and c_p > 0
        assert 0.5 <= c_p / c_a <= 2.0

    def test_infinite_tolerance_rejected(self, pinv_report):
        fam, grid, _ = pinv_report
        with pytest.raises(LocalizationError):
            empirical_pseudoinverse(fam, grid, rank_tol=np.inf)

    def test_grid_size_guard(self):
        # 4096 nodes, past the 2048-node cap of the former dense route
        sg = SignalGrid(8.0, 64)
        fam = make_family("gabor", None, sg)
        grid = default_index_grid(fam, bounds=[[-4, 4], [-4, 4]],
                                  resolution=[64, 64])
        rep = empirical_pseudoinverse(fam, grid, rank_tol=0.2)
        assert rep.projection_defect <= 1e-6
        assert rep.idempotent_defect <= 1e-6
        assert rep.dual_gramian_defect <= 1e-6


_REFERENCE_GRIDS = {
    "gabor": (SignalGrid(8.0, 64),
              {"bounds": [[-5.0, 5.0], [-5.0, 5.0]], "resolution": [24, 24]}),
    "cwt": (SignalGrid(16.0, 256),
            {"bounds": [[0.2, 10.5], [-16.0, 16.0]], "band_spacing": 1.2,
             "scales_per_octave": 3}),
}


class TestPseudoInverseMatchesDense:
    """The S-spectrum route against the dense (M, M) eigh route, at a cut
    that keeps most eigenvalues and at the fixture's cut.  Not at 1e-10:
    there the dense route itself loses digits to its smallest kept
    eigenvalues."""

    @pytest.mark.parametrize("rank_tol", [1e-3, 0.2])
    @pytest.mark.parametrize("tag", sorted(_REFERENCE_GRIDS))
    def test_matches_dense_route(self, tag, rank_tol, reference_pseudoinverse):
        sg, grid_kw = _REFERENCE_GRIDS[tag]
        fam = make_family(tag, None, sg)
        grid = default_index_grid(fam, **grid_kw)
        assert grid.size <= 800
        ref = reference_pseudoinverse(fam, grid, rank_tol)
        rep = empirical_pseudoinverse(fam, grid, rank_tol)
        d = _pinv_factor(fam.calculus(grid), rank_tol)
        scale = np.abs(ref["pinv"]).max()
        assert rep.rank == ref["rank"] == d.shape[0]
        assert np.abs(sg.h * (d.conj().T @ d) - ref["pinv"]).max() <= 1e-12 * scale
        for name in ("projection_defect", "idempotent_defect",
                     "dual_gramian_defect", "interior_agreement"):
            assert abs(getattr(rep, name) - ref[name]) <= 1e-12 * scale, name
        for name in ("decay_edges_a", "decay_a", "decay_edges_pinv",
                     "decay_pinv"):
            got, want = getattr(rep, name), ref[name]
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


class TestSemieqEcho:
    def test_entrywise_localization_chain(self):
        # |G(E,G)| <= |G(F,G)| o |G(E, F~)| entrywise (quadrature composition)
        # for tight-ish frames with duals through the stable inverse
        sg = SignalGrid(8.0, 64)
        fam_f = make_family("gabor", None, sg)
        grid = default_index_grid(fam_f, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                  resolution=[24, 24])
        h = sg.h
        w = grid.weights
        calc = fam_f.calculus(grid)
        atoms_f = calc.atom_matrix

        def windowed(width):
            def win(t):
                g = np.exp(-0.5 * (t / width) ** 2)
                return g / np.sqrt(np.sqrt(np.pi) * width)
            return make_family("gabor", {"window": win}, sg)

        fam_g = windowed(1.2)
        fam_e = windowed(0.9)
        atoms_g = fam_g.atoms(grid.points)
        atoms_e = fam_e.atoms(grid.points)
        duals_f = calc.s_pinv(atoms_f, 0.05)
        g_eg = np.abs(h * (atoms_g.conj().T @ atoms_e))      # <e_y, g_x>
        g_fg = np.abs(h * (atoms_g.conj().T @ atoms_f))
        g_ef = np.abs(h * (duals_f.conj().T @ atoms_e))      # <e_y, f~_z>
        bound = (g_fg * w[None, :]) @ g_ef
        box = fam_f.interior_box(grid.bounds)
        inner = np.all((grid.points >= box[:, 0]) & (grid.points <= box[:, 1]),
                       axis=1)
        violation = (g_eg - bound)[np.ix_(inner, inner)]
        assert violation.max() <= 1e-6
