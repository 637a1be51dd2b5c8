import csv
import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from coorbit import _linalg, frame_families, kernel_algebra
from coorbit._linalg import GRAM_COLS, SolverError, hermitian_gram, \
    restricted_rayleigh_bounds
from coorbit.coverings import build_covering, build_pu
from coorbit.discretization import atomic_coefficients, \
    banach_frame_reconstruct, build_uphi, hilbert_frame_bounds
from coorbit.frame_families import (FamilyError, FrameCalculus,
                                    GaussDerivProfile, _interior_mask,
                                    _interior_probes, _map_atoms,
                                    _position_blocks,
                                    _real_view, _spectral_atoms,
                                    alpha_admissibility,
                                    analyze_V, analyze_W, default_index_grid,
                                    frame_bounds_continuous,
                                    frame_operator_apply, gaussian_window,
                                    gram_kernel, leakage_report, make_battery,
                                    make_family, random_interior_points)
from coorbit.kernel_algebra import _even_blocks, _mirror_half, _on_pool, \
    am_norm, apply_kernel, compose
from coorbit.localization import cross_gramian
from coorbit.measure_space import QuadGrid, SignalGrid, build_quad_grid, \
    polynomial_weight, trivial_admissible_weight, weight_from_w
from coorbit.oscillation import property_D_check
from conftest import wavelet_admissibility_fft


@pytest.fixture(scope="module")
def sg():
    return SignalGrid(10.0, 512)


class TestMakeFamily:
    def test_gabor_atoms_unit_norm(self, sg, rng):
        fam = make_family("gabor", None, sg)
        pts = np.column_stack([rng.uniform(-5, 5, 8), rng.uniform(-8, 8, 8)])
        norms = sg.h * np.sum(np.abs(fam.atoms(pts)) ** 2, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_unnormalized_window_rejected(self, sg):
        with pytest.raises(FamilyError):
            make_family("gabor", {"window": lambda t: 2.0 * gaussian_window(t)}, sg)

    def test_mexican_hat_admissibility_via_fft(self, sg):
        fam = make_family("cwt", {"wavelet": "mexican_hat"}, sg)
        psi = fam.atom(np.array([1.0, 0.0])).real
        c = wavelet_admissibility_fft(psi, sg)
        assert abs(c - 1.0) <= 1e-3
        assert fam.params["c_psi"] == pytest.approx(1.0, abs=1e-6)

    def test_default_wavelet_admissibility(self, sg):
        fam = make_family("cwt", None, sg)
        psi = fam.atom(np.array([1.0, 0.0])).real
        assert abs(wavelet_admissibility_fft(psi, sg) - 1.0) <= 1e-3
        # the dilated atom picks up the unitary-dilation factor a
        psi2 = fam.atom(np.array([2.0, 0.0])).real
        assert abs(wavelet_admissibility_fft(psi2, sg) - 2.0) <= 2e-3

    def test_sinc_bandlimit_above_nyquist_rejected(self, sg):
        with pytest.raises(FamilyError):
            make_family("sinc_rkhs", {"bandlimit": sg.nyquist * 1.01}, sg)

    def test_alpha_out_of_range_rejected(self, sg):
        with pytest.raises(FamilyError):
            make_family("alpha_mod", {"alpha": 1.0}, sg)

    def test_unknown_tag(self, sg):
        with pytest.raises(FamilyError):
            make_family("fourier", None, sg)

    def test_atoms_vary_continuously(self, sg, rng):
        fam = make_family("gabor", None, sg)
        base = np.column_stack([rng.uniform(-4, 4, 6), rng.uniform(-6, 6, 6)])
        # modulation gradient grows with the time position: d/dw psi = i t psi
        lipschitz = 2.0 + np.abs(base).max()
        for eps in (1e-2, 1e-4):
            shift = base + eps / np.sqrt(2)
            d = fam.atoms(base) - fam.atoms(shift)
            norms = np.sqrt(sg.h * np.sum(np.abs(d) ** 2, axis=0))
            assert norms.max() <= lipschitz * eps


class TestSincReproducing:
    def test_v_is_identity_on_bandlimited(self, sinc_reference, rng):
        fam, grid = sinc_reference
        sg = fam.signal_grid
        # bandlimited signal: random combination of kernel atoms
        centers = rng.uniform(-9, 9, 6)[:, None]
        coef = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = fam.atoms(centers) @ coef
        vf = analyze_V(fam, f, grid).values
        # oracle: trigonometric interpolation of f at the grid's points
        w = sg.fft_freqs()
        spec = np.fft.fft(f)
        phases = np.exp(1j * np.outer(grid.points[:, 0] + sg.half_width,
                                      w)) / sg.n
        oracle = phases @ spec
        assert np.abs(vf - oracle).max() <= 1e-6

    def test_tight_bounds_exact(self, sinc_reference):
        fam, grid = sinc_reference
        rep = frame_bounds_continuous(fam, grid)
        assert rep.c1 == pytest.approx(1.0, abs=1e-6)
        assert rep.c2 == pytest.approx(1.0, abs=1e-6)
        assert rep.c1 <= rep.c2


class TestTransforms:
    def test_v_of_zero(self, gabor_small):
        fam, grid = gabor_small
        vf = analyze_V(fam, np.zeros(fam.signal_grid.n, dtype=complex), grid)
        assert np.all(vf.values == 0)

    def test_v_of_atom_equals_gram_column(self, gabor_small, rng):
        fam, grid = gabor_small
        x0 = np.array([0.7, -1.3])
        f = fam.atom(x0)
        vf = analyze_V(fam, f, grid).values
        nodes = rng.integers(0, grid.size, 5)
        col = cross_gramian(fam, fam, grid.points[nodes], x0[None, :]).matrix[:, 0]
        assert np.abs(vf[nodes] - col).max() <= 1e-10

    def test_plancherel_for_tight_families(self, gabor_small):
        fam, grid = gabor_small
        for seed in range(3):
            f = make_battery(fam, grid, 1, seed=seed)[0]
            vf = analyze_V(fam, f, grid).values
            ratio = np.sum(grid.weights * np.abs(vf) ** 2) / \
                fam.signal_grid.norm(f) ** 2
            assert 0.99 <= ratio <= 1.01

    def test_cauchy_schwarz_bound(self, gabor_small, rng):
        fam, grid = gabor_small
        f = make_battery(fam, grid, 1, seed=5)[0]
        vf = analyze_V(fam, f, grid).values
        norms = np.sqrt(fam.signal_grid.h *
                        np.sum(np.abs(fam.atoms(grid.points)) ** 2, axis=0))
        assert np.all(np.abs(vf) <= norms * fam.signal_grid.norm(f) + 1e-12)

    def test_s_equals_v_star_v(self, gabor_small, rng):
        fam, grid = gabor_small
        sg = fam.signal_grid
        f = make_battery(fam, grid, 1, seed=1)[0]
        g = make_battery(fam, grid, 1, seed=2)[0]
        sf = frame_operator_apply(fam, f, grid)
        lhs = sg.inner(sf, g)
        vf = analyze_V(fam, f, grid).values
        vg = analyze_V(fam, g, grid).values
        rhs = np.sum(grid.weights * vf * np.conj(vg))
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestFrameOperator:
    def test_zero_maps_to_zero(self, gabor_small):
        fam, grid = gabor_small
        out = frame_operator_apply(fam, np.zeros(fam.signal_grid.n), grid)
        assert np.all(out == 0)

    def test_tight_family_acts_as_identity(self, gabor_small):
        fam, grid = gabor_small
        sg = fam.signal_grid
        for seed in range(3):
            f = make_battery(fam, grid, 1, seed=seed)[0]
            sf = frame_operator_apply(fam, f, grid)
            assert sg.norm(sf - f) <= 1e-2 * sg.norm(f)

    def test_rayleigh_quotient_within_bounds(self, gabor_small):
        fam, grid = gabor_small
        sg = fam.signal_grid
        rep = frame_bounds_continuous(fam, grid)
        f = make_battery(fam, grid, 1, seed=9)[0]
        q = np.real(sg.inner(frame_operator_apply(fam, f, grid), f)) / sg.norm(f) ** 2
        assert rep.c1 - 5e-3 <= q <= rep.c2 + 5e-3

    def test_self_adjointness(self, gabor_small):
        fam, grid = gabor_small
        sg = fam.signal_grid
        f = make_battery(fam, grid, 1, seed=3)[0]
        g = make_battery(fam, grid, 1, seed=4)[0]
        lhs = sg.inner(frame_operator_apply(fam, f, grid), g)
        rhs = sg.inner(f, frame_operator_apply(fam, g, grid))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


class TestInverseFrameOperator:
    def test_tight_family_inverse_is_identity(self, gabor_small):
        fam, grid = gabor_small
        sg = fam.signal_grid
        f = make_battery(fam, grid, 1, seed=21)[0]
        # at cut 1e-6: below it lie the box's boundary modes (relative
        # eigenvalues down to 1e-10), whose inverses amplify f's share there
        u = fam.calculus(grid).s_pinv(f, 1e-6)
        assert sg.norm(u - f) <= 1e-2 * sg.norm(f)

    def test_alpha_mod_round_trip(self):
        sg = SignalGrid(10.0, 256)
        fam = make_family("alpha_mod", {"alpha": 0.5}, sg)
        grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-10.0, 10.0]],
                                  resolution=[40, 56])
        f = make_battery(fam, grid, 1, seed=5)[0]
        u = fam.calculus(grid).s_pinv(f)
        sf = frame_operator_apply(fam, u, grid)
        assert sg.norm(sf - f) <= 1.5e-6 * sg.norm(f)


class TestAnalyzeW:
    def test_tight_w_equals_v(self, gabor_small):
        fam, grid = gabor_small
        f = make_battery(fam, grid, 1, seed=31)[0]
        vf = analyze_V(fam, f, grid).values
        wf = analyze_W(fam, f, grid).values
        assert np.abs(wf - vf).max() <= 1e-2 * np.abs(vf).max()

    def test_w_star_inverts(self, gabor_small):
        fam, grid = gabor_small
        sg = fam.signal_grid
        f = make_battery(fam, grid, 1, seed=32)[0]
        wf = analyze_W(fam, f, grid).values
        rec = fam.calculus(grid).synthesize(wf)
        assert sg.norm(rec - f) <= 1e-2 * sg.norm(f)

    def test_zero(self, gabor_small):
        fam, grid = gabor_small
        wf = analyze_W(fam, np.zeros(fam.signal_grid.n, dtype=complex), grid)
        assert np.all(wf.values == 0)

    @pytest.mark.parametrize("tag", ["gabor", "cwt"])
    def test_w_lies_in_gramian_range(self, gabor_small, tag):
        """R(W f) = V S^+ S S^+ f = W f: W lands in ran R at the same cut."""
        if tag == "gabor":
            fam, grid = gabor_small
        else:
            fam = make_family("cwt", None, SignalGrid(8.0, 32))
            grid = default_index_grid(fam)
        cut = 0.2
        eig = fam.calculus(grid).s_eig(cut)
        assert 0 < eig.rank < fam.signal_grid.n
        gen = np.random.default_rng(33)
        f = gen.standard_normal(fam.signal_grid.n) + 1j * gen.standard_normal(fam.signal_grid.n)
        wf = analyze_W(fam, f, grid, rel_cut=cut).values
        rwf = apply_kernel(gram_kernel(fam, grid, rel_cut=cut), wf, grid)
        w = grid.weights
        err = np.sqrt(np.sum(w * np.abs(rwf - wf) ** 2))
        assert err <= 1e-12 * np.sqrt(np.sum(w * np.abs(wf) ** 2))


    @pytest.mark.parametrize("tag", ["gabor", "cwt", "sinc_rkhs",
                                     "inhom_wavelet", "alpha_mod"])
    def test_half_factor_routes_match_the_pseudo_inverse(self, tag):
        # W f = h C^H (P f) against V(S^+ f), and the dual synthesis
        # P^H C (w u) against S^+ V*_mu u, both from the atom matrix:
        # measured at most 1.4e-15 of the largest entry at cut 0.2 and
        # 2.8e-13 at cut 1e-8 (alpha_mod), where 1 / sqrt(lambda) reaches 1e4
        wavelet = tag in ("cwt", "inhom_wavelet")
        fam = make_family(tag, None, SignalGrid(16.0 if wavelet else 8.0, 64))
        grid = default_index_grid(fam)
        calc = fam.calculus(grid)
        gen = np.random.default_rng(7)
        f = gen.standard_normal((64, 3)) + 1j * gen.standard_normal((64, 3))
        u = gen.standard_normal((grid.size, 3)) + \
            1j * gen.standard_normal((grid.size, 3))
        for cut, tol in ((0.2, 1e-14), (1e-8, 3e-12)):
            ref = calc.analyze(calc.s_pinv(f, cut))
            assert np.abs(calc.analyze_dual(f, cut) - ref).max() <= \
                tol * np.abs(ref).max()
            ref = calc.s_pinv(calc.synthesize(u), cut)
            assert np.abs(calc.dual_synthesize(u, cut) - ref).max() <= \
                tol * np.abs(ref).max()


class TestGramKernel:
    def test_self_adjoint(self, gabor_small, rng):
        fam, grid = gabor_small
        R = gram_kernel(fam, grid)
        pts = grid.points[rng.integers(0, grid.size, 64)]
        blk = R.block(pts, pts)
        assert np.abs(blk - blk.conj().T).max() <= 1e-10

    def test_reproducing_on_battery(self, gabor_small):
        fam, grid = gabor_small
        R = gram_kernel(fam, grid)
        for seed in range(3):
            f = make_battery(fam, grid, 1, seed=seed)[0]
            vf = analyze_V(fam, f, grid).values
            rv = apply_kernel(R, vf, grid)
            assert np.abs(rv - vf).max() <= 1e-3 * np.abs(vf).max()

    def test_gabor_modulus_shift_invariant(self, gabor_small, rng):
        fam, grid = gabor_small
        for _ in range(10):
            x = rng.uniform(-2, 2, 2)
            y = rng.uniform(-2, 2, 2)
            shift = rng.uniform(-1, 1, 2)
            a = np.abs(cross_gramian(fam, fam, x + shift, y + shift).matrix)[0, 0]
            b = np.abs(cross_gramian(fam, fam, x, y).matrix)[0, 0]
            assert abs(a - b) <= 1e-8

    def test_idempotent_under_composition(self):
        sg = SignalGrid(8.0, 64)
        fam = make_family("gabor", None, sg)
        grid = default_index_grid(fam, bounds=[[-3.0, 3.0], [-3.0, 3.0]],
                                  resolution=[24, 24])
        R = gram_kernel(fam, grid)
        prod = compose(R, R, grid)
        assert np.abs(prod.matrix(grid) - R.matrix(grid)).max() <= 1e-3

    def test_direct_and_pinv_agree_in_the_interior(self, gabor_small):
        fam, grid = gabor_small
        box = fam.interior_box(grid.bounds)
        pts = np.column_stack([np.linspace(box[0, 0], box[0, 1], 5),
                               np.linspace(box[1, 0], box[1, 1], 5)])
        a = gram_kernel(fam, grid).block(pts, pts)
        b = cross_gramian(fam, fam, pts, pts).matrix
        assert np.abs(a - b).max() <= 5e-3


# small grids whose frame-operator cut keeps all, or only some, eigenvalues
HALF_FACTOR_CASES = [
    ("gabor", None, 4.0, 16, [[-5.0, 5.0], [-8.0, 8.0]], [20, 24], 1e-10, True),
    ("gabor", None, 4.0, 16, [[-5.0, 5.0], [-8.0, 8.0]], [20, 24], 0.6, False),
    ("cwt", None, 8.0, 32, None, None, 1e-6, False),
    ("cwt", None, 8.0, 32, None, None, 0.2, False),
    ("sinc_rkhs", {"bandlimit": np.pi / 2}, 8.0, 32, None, None, 1e-10, False),
    # a mirror-symmetric grid: real S and half map, complex C
    ("gabor", None, 4.0, 16, [[-5.0, 5.0], [-8.0, 8.0]], [16, 16], 1e-9, True),
    ("gabor", None, 4.0, 16, [[-5.0, 5.0], [-8.0, 8.0]], [16, 16], 0.7, False),
]


class TestHalfFactor:
    """R = h * C^H C with C = Lambda_k^(-1/2) Q_k^H Psi, against
    h * conj(S^+ Psi)^T Psi built from the pseudo-inverse."""

    @pytest.fixture(scope="class", params=HALF_FACTOR_CASES,
                    ids=lambda c: f"{c[0]}-cut{c[6]:g}")
    def case(self, request):
        tag, params, T, n, bounds, res, cut, keeps_all = request.param
        fam = make_family(tag, params, SignalGrid(T, n))
        grid = default_index_grid(fam, bounds=bounds, resolution=res)
        calc = fam.calculus(grid)
        eig = calc.s_eig(cut)
        assert bool(eig.kept.all()) == keeps_all
        psi = calc.atom_matrix
        ref = fam.signal_grid.h * (calc.s_pinv(psi, cut).conj().T @ psi)
        return fam, grid, calc, cut, ref

    def test_factor_matches_pinv_gramian(self, case):
        fam, grid, calc, cut, ref = case
        u, c = calc.u_factor(cut), calc.half_factor(cut)
        r = calc.s_eig(cut).rank
        assert u.shape == (grid.size, r) and c.shape == (r, grid.size)
        assert np.abs(fam.signal_grid.h * (u @ c) - ref).max() <= \
            1e-12 * np.abs(ref).max()
        R = gram_kernel(fam, grid, rel_cut=cut)
        assert np.abs(R.block(grid.points, grid.points) - ref).max() <= \
            1e-12 * np.abs(ref).max()

    def test_sliced_and_off_grid_blocks(self, case, rng):
        fam, grid, calc, cut, ref = case
        R = gram_kernel(fam, grid, rel_cut=cut)
        pts, tol = grid.points, 1e-12 * np.abs(ref).max()
        rows = np.sort(rng.choice(grid.size, min(grid.size, 7), replace=False))
        assert np.abs(R.block(pts[rows], pts) - ref[rows]).max() <= tol
        assert np.abs(R.block(pts, pts[rows]) - ref[:, rows]).max() <= tol
        assert np.abs(R.block(pts[2:5], pts[rows]) - ref[2:5][:, rows]).max() <= tol
        # off-grid points inside the box
        box = grid.bounds
        off = box[:, 0] + rng.random((5, grid.dim)) * (box[:, 1] - box[:, 0])
        h, psi, psi_off = fam.signal_grid.h, calc.atom_matrix, fam.atoms(off)
        ref_rows = h * (calc.s_pinv(psi_off, cut).conj().T @ psi)
        ref_cols = h * (calc.s_pinv(psi, cut).conj().T @ psi_off)
        assert np.abs(R.block(off, pts) - ref_rows).max() <= tol
        assert np.abs(R.block(pts, off) - ref_cols).max() <= tol

    def test_node_blocks_slice_the_half_factor(self, case, rng, monkeypatch):
        fam, grid, calc, cut, ref = case
        R = gram_kernel(fam, grid, rel_cut=cut)
        tol = 1e-12 * np.abs(ref).max()
        rows = np.sort(rng.choice(grid.size, min(grid.size, 7), replace=False))
        # grid nodes are columns of C: no atom is synthesized again
        monkeypatch.setattr(fam, "atom_fn", None)
        c, h = R.node_factors()
        u = c.conj().T
        assert np.abs(h * (u[rows] @ c) - ref[rows]).max() <= tol
        assert np.abs(h * (u @ c[:, rows]) - ref[:, rows]).max() <= tol
        assert np.abs(h * (u[2:5] @ c[:, rows]) - ref[2:5][:, rows]).max() <= tol

    def test_node_factors_hold_no_conjugate_copy(self):
        # a complex Gramian off any mirror-closed grid hands out its cached
        # half factor C itself: no M x r conjugate copy is made
        fam = make_family("gabor", None, SignalGrid(8.0, 64))
        grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.5, 3.5]],
                                  resolution=[32, 32])
        R = gram_kernel(fam, grid, rel_cut=0.2)
        calc = R.context["calc"]
        c = calc.half_factor(0.2)
        assert c.dtype == np.complex128 and not calc.mirrored
        tracemalloc.start()
        try:
            factors = R.node_factors()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak == 0
        assert factors[0] is c


# every family, and both built-in wavelets, at n = 256: S has two column
# blocks
S_BLOCK_CASES = [
    ("gabor", None, {"resolution": [16, 20]}),
    ("cwt", None, {"scales_per_octave": 4, "band_spacing": 0.9}),
    ("cwt", {"wavelet": "mexican_hat"}, {"scales_per_octave": 4, "band_spacing": 0.9}),
    ("sinc_rkhs", None, {}),
    ("inhom_wavelet", None, {"scales_per_octave": 4, "band_spacing": 0.9}),
    ("alpha_mod", None, {"resolution": [16, 20]}),
    # 16 midpoints on each axis are mirror-symmetric: the real S
    ("gabor", None, {"resolution": [16, 16]}),
]


# mirror-closed grids: 32 midpoints per axis on [-4, 4] (no node on the
# mirror axis w = 0), and 33 cells of exactly 0.25 on [-4.125, 4.125], whose
# middle row lies on it
MIRROR_GRIDS = {
    "mirrored_even": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "resolution": [32, 32]},
    "mirrored_axis": {"bounds": [[-4.125, 4.125], [-4.125, 4.125]],
                   "resolution": [33, 33]},
}


class TestFrameOperatorBlocks:
    """S = h (Psi W) Psi^H in column blocks on the thread pool."""

    @pytest.mark.parametrize("tag,params,grid_kw", S_BLOCK_CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(S_BLOCK_CASES)])
    def test_blocked_s_matches_one_gemm(self, tag, params, grid_kw):
        fam = make_family(tag, params, SignalGrid(8.0, 256))
        grid = default_index_grid(fam, **grid_kw)
        mats = [FrameCalculus(fam, grid).s_matrix(threads) for threads in (1, 2, 3)]
        assert mats[0].tobytes() == mats[1].tobytes() == mats[2].tobytes()
        psi = fam.atoms(grid.points)
        ref = fam.signal_grid.h * ((psi * grid.weights[None, :]) @ psi.conj().T)
        ref = 0.5 * (ref + ref.conj().T)
        # bit equality with the one-GEMM product depends on the BLAS build
        assert np.abs(mats[0] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(mats[0], mats[0].conj().T)

    @pytest.mark.parametrize("n", [64, 129, 200, 300, 512])
    @pytest.mark.parametrize("kind", ["real", "complex", "real_view"])
    def test_hermitian_gram_matches_one_gemm(self, kind, n):
        rng = np.random.default_rng(n)
        m, h = 301, 0.3
        z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        w = rng.uniform(0.5, 2.0, m)
        if kind == "real":
            x, wx = z.real.copy(), w
        elif kind == "complex":
            x, wx = z, w
        else:
            # [Re z_j, Im z_j] columns with repeated weights: Re(h Z W Z^H)
            x, wx = _real_view(z), np.repeat(w, 2)
        grams = [hermitian_gram(x, wx, h, threads) for threads in (1, 2, 3)]
        assert grams[0].dtype == x.dtype
        assert grams[0].tobytes() == grams[1].tobytes() == grams[2].tobytes()
        ref = h * ((z * w[None, :]) @ z.conj().T) if kind != "real" else \
            h * ((x * w[None, :]) @ x.T)
        ref = 0.5 * (ref + ref.conj().T)
        if kind == "real_view":
            ref = ref.real
        assert np.abs(grams[0] - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(grams[0], grams[0].conj().T)

    @pytest.mark.parametrize("n", [1, 2, 64, 65, 129, 300, 512, 700])
    def test_hermitian_gram_units_pair_the_upper_block_triangle(
            self, n, monkeypatch):
        # each row block takes its columns from its first row on, and runs
        # with its mirror block: every pair costs n + one block of columns,
        # to a row or two, and the units depend on n alone
        seen = []

        def record(units, threads, work, fold=None):
            seen.append(list(units))
            return _on_pool(units, threads, work, fold)

        monkeypatch.setattr(_linalg, "_on_pool", record)
        rng = np.random.default_rng(n)
        x = rng.standard_normal((n, 7))
        for threads in (1, 3):
            hermitian_gram(x, np.ones(7), 1.0, threads)
        assert seen[0] == seen[1]
        blocks = [b for unit in seen[0] for b in unit]
        assert sorted(blocks) == _even_blocks(n, GRAM_COLS // 2)
        # an odd middle block runs alone, at about half a pair's cost
        pairs = [sum(n - j0 for j0, _ in unit) for unit in seen[0] if len(unit) == 2]
        assert all(len(unit) == 2 for unit in seen[0][:-1])
        assert not pairs or max(pairs) - min(pairs) <= 2
        assert not pairs or n - seen[0][-1][0][0] <= min(pairs)

    @pytest.mark.parametrize("case", ["gabor_complex", "alpha_mod_shipped",
                                      "mirrored_even", "mirrored_axis"])
    def test_s_matrix_peak_memory(self, case):
        # S takes one weighted block of at most GRAM_COLS atom rows and
        # n x n arrays, and no full-size copy of the atoms; on a mirrored
        # grid the float64 view of the representatives' atoms, half of them
        if case == "gabor_complex":
            # 72 midpoints per axis are not bitwise symmetric: complex S
            fam = make_family("gabor", None, SignalGrid(8.0, 64))
            grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                      resolution=[72, 72])
        elif case == "alpha_mod_shipped":
            fam = make_family("alpha_mod", {"alpha": 0.5}, SignalGrid(10.0, 512))
            grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-10.0, 10.0]],
                                      resolution=[40, 56])
        else:
            fam = make_family("gabor", None, SignalGrid(8.0, 256))
            grid = default_index_grid(fam, **MIRROR_GRIDS[case])
        calc = FrameCalculus(fam, grid)
        psi = calc.atom_matrix
        tracemalloc.start()
        try:
            s = calc.s_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = min(psi.shape[0], GRAM_COLS) * psi.shape[1] * psi.itemsize
        if case in MIRROR_GRIDS:
            reps = int(np.sum(calc.mirror >= np.arange(grid.size)))
            assert calc.mirrored and s.dtype == np.float64
            view = psi.shape[0] * reps * psi.itemsize
            block = min(psi.shape[0], GRAM_COLS) * 2 * reps * s.itemsize
            assert peak <= view + block + 2 * s.nbytes + 64 * 1024
        else:
            assert not calc.mirrored and s.dtype == np.complex128
            assert peak <= block + 2 * s.nbytes + 64 * 1024

    @pytest.mark.parametrize("case", sorted(MIRROR_GRIDS))
    def test_mirrored_s_matches_the_full_real_view(self, case):
        # the real part of the modulation Gram times the window Gram,
        # against every node's real view: equal up to the order of the sums
        fam = make_family("gabor", None, SignalGrid(8.0, 128))
        grid = default_index_grid(fam, **MIRROR_GRIDS[case])
        calc = FrameCalculus(fam, grid)
        axis = calc.mirror == np.arange(grid.size)
        assert axis.any() == (case == "mirrored_axis")
        s = calc.s_matrix()
        full = hermitian_gram(_real_view(calc.atom_matrix),
                              np.repeat(grid.weights, 2), fam.signal_grid.h)
        assert s.dtype == full.dtype == np.float64
        assert np.array_equal(s, s.T)
        assert np.abs(s - full).max() <= 1e-14 * np.abs(full).max()
        mats = [FrameCalculus(fam, grid).s_matrix(t) for t in (2, 3)]
        assert s.tobytes() == mats[0].tobytes() == mats[1].tobytes()

    def test_even_blocks_never_leave_one_column(self):
        # a one-column (or one-row) operand turns a GEMM into a GEMV
        assert _even_blocks(512, 128) == [(0, 128), (128, 256), (256, 384), (384, 512)]
        assert _even_blocks(129, 128) == [(0, 64), (64, 129)]
        assert _even_blocks(1, 128) == [(0, 1)]
        for total in range(2, 600):
            sizes = [b - a for a, b in _even_blocks(total, 128)]
            assert sum(sizes) == total and max(sizes) <= 128 and min(sizes) >= 2


# separable atoms on tensor grids: every mirror-closed case, and a
# non-square grid off any mirror (an even and an odd 24-row frequency axis
# split, 40 positions: a partial last position block)
SEPARABLE_GRIDS = {**MIRROR_GRIDS,
                   "unmirrored": {"bounds": [[-4.0, 4.0], [-4.5, 3.5]],
                                  "resolution": [40, 24]}}


def _forbid_atom_matrix(monkeypatch):
    """Make `FrameCalculus.atoms`, the only route to the grid's atom
    matrix, fail."""
    def atoms(self, threads=1):
        raise AssertionError("the atom matrix was formed")
    monkeypatch.setattr(FrameCalculus, "atoms", atoms)


class TestSeparableGabor:
    """Gabor atoms on a tensor grid of constant density: S from the two
    axis Grams, C in position blocks, against the atom-matrix path."""

    SG = SignalGrid(8.0, 64)

    def _calc(self, case):
        fam = make_family("gabor", None, self.SG)
        return FrameCalculus(fam, default_index_grid(fam, **SEPARABLE_GRIDS[case]))

    @staticmethod
    def _dense_s(calc, psi):
        """S as the generic path builds it from the atom matrix."""
        w, h = calc.grid.weights, calc.family.signal_grid.h
        if not calc.mirrored:
            return hermitian_gram(psi, w, h)
        rep, axis = _mirror_half(calc.mirror)
        w = np.where(axis, 1.0, 2.0) * w[rep]
        return hermitian_gram(_real_view(np.take(psi, rep, axis=1)),
                              np.repeat(w, 2), h)

    @pytest.mark.parametrize("cut", [0.2, 1e-8])
    @pytest.mark.parametrize("case", sorted(SEPARABLE_GRIDS))
    def test_matches_the_atom_matrix_path(self, case, cut, monkeypatch):
        calc = self._calc(case)
        psi = calc.family.atoms(calc.grid.points)
        _forbid_atom_matrix(monkeypatch)
        s = calc.s_matrix()
        assert calc.mirrored == (case in MIRROR_GRIDS)
        assert s.dtype == (np.float64 if calc.mirrored else np.complex128)
        assert np.array_equal(s, s.conj().T)
        s_ref = self._dense_s(calc, psi)
        # two sums of 24-40 terms against one of 960-1089: measured
        # 1.22e-15 max|S| on all three grids
        assert np.abs(s - s_ref).max() <= 5e-15 * np.abs(s_ref).max()
        c = calc.half_factor(cut)
        c_ref = _map_atoms(calc.half_map(cut), psi)
        assert c.dtype == c_ref.dtype == np.complex128
        # the same map P on the atom matrix: measured 4.4e-16 max|C| at
        # cut 0.2 and 1.4e-13 at cut 1e-8, where P = Lambda^(-1/2) Q^H
        # weights the smallest kept eigenvalues by up to 1e4 and C's
        # entries cancel
        tol = 4e-15 if cut == 0.2 else 1e-12
        assert np.abs(c - c_ref).max() <= tol * np.abs(c_ref).max()

    @pytest.mark.parametrize("case", sorted(MIRROR_GRIDS))
    def test_mirrored_half_factor_is_conjugate_bit_for_bit(self, case):
        # C[:, sigma y] = conj(C[:, y]) in every bit off the mirror axis,
        # which Kernel.mirror relies on; on the axis (the middle frequency
        # row of mirrored_axis) C is real.  One GEMM over all 66 real
        # columns of the 33-row axis rounds its edge tile apart at n = 64
        calc = self._calc(case)
        off = calc.mirror != np.arange(calc.grid.size)
        assert off.all() == (case == "mirrored_even")
        for cut in (0.2, 1e-8):
            c = calc.half_factor(cut)
            assert c[:, calc.mirror][:, off].tobytes() == c[:, off].conj().tobytes()
            assert np.all(c[:, ~off].imag == 0.0)

    @pytest.mark.parametrize("case", sorted(SEPARABLE_GRIDS))
    def test_bytes_do_not_depend_on_threads(self, case, monkeypatch):
        monkeypatch.setattr(kernel_algebra, "_usable_cores", lambda: 4)
        got = []
        for threads in (1, 2, 3):
            calc = self._calc(case)
            got.append((calc.s_matrix(threads).tobytes(),
                        calc.half_factor(0.2, threads).tobytes(),
                        calc.half_factor(1e-8, threads).tobytes()))
        assert got[0] == got[1] == got[2]

    def test_position_blocks(self):
        # ceil(256 / width) positions a block, the last one partial; no
        # more stacked maps than _MAP_ENTRIES entries (gabor_reference:
        # rank 129 at n = 512, 32 representative frequencies)
        assert _position_blocks(40, 24, 13 * 64) == \
            [(0, 11), (11, 22), (22, 33), (33, 40)]
        assert _position_blocks(142, 142, 13 * 64) == \
            [(k, k + 2) for k in range(0, 142, 2)]
        assert _position_blocks(64, 32, 129 * 512) == \
            [(k, min(k + 3, 64)) for k in range(0, 64, 3)]
        assert _position_blocks(3, 1, 1 << 20) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("case", ["scattered", "density", "nudged_weight"])
    def test_other_grids_take_the_generic_path(self, case, monkeypatch):
        fam = make_family("gabor", None, self.SG)
        bounds, res = [[-4.0, 4.0], [-4.5, 3.5]], [16, 12]
        tensor = default_index_grid(fam, bounds=bounds, resolution=res)
        if case == "scattered":
            # the tensor grid's nodes, one moved off its row: not a tensor
            # product, and no recorded layout
            pts = tensor.points.copy()
            pts[5, 1] += 0.01
            grid = QuadGrid(points=pts, weights=tensor.weights,
                            bounds=tensor.bounds)
        elif case == "density":
            grid = build_quad_grid(bounds, res, measure=lambda p: (
                1.0 + 0.01 * p[:, 0] ** 2) / (2.0 * np.pi))
            assert "density" not in grid.structure
        else:
            # the recorded layout kept, one weight one ulp up
            w = tensor.weights.copy()
            w[3] = np.nextafter(w[3], np.inf)
            grid = dataclasses.replace(tensor, weights=w)
        formed = []
        real = FrameCalculus.atoms
        monkeypatch.setattr(FrameCalculus, "atoms", lambda self, threads=1:
                            formed.append(self.grid) or real(self, threads))
        calc = FrameCalculus(fam, grid)
        s, c = calc.s_matrix(), calc.half_factor(0.2)
        assert calc._tensor is None and formed and formed[0] is grid
        assert s.tobytes() == hermitian_gram(
            fam.atoms(grid.points), grid.weights, self.SG.h).tobytes()
        assert c.tobytes() == _map_atoms(calc.half_map(0.2),
                                         calc.atom_matrix).tobytes()
        # the tensor grid itself forms no atom matrix
        FrameCalculus(fam, tensor).half_factor(0.2)
        assert all(g is not tensor for g in formed)

    @pytest.mark.parametrize("case", ["mirrored_even", "unmirrored"])
    def test_run_path_forms_no_atom_matrix(self, case, monkeypatch):
        # M = 3072 nodes >= 16 n: the Gramian, U_Phi, the frame bounds and
        # both reconstructions stay below one n x M complex atom matrix
        fam = make_family("gabor", None, self.SG)
        bounds = {"mirrored_even": [[-4.0, 4.0], [-4.0, 4.0]],
                  "unmirrored": [[-4.0, 4.0], [-4.5, 3.5]]}[case]
        grid = default_index_grid(fam, bounds=bounds, resolution=[48, 64])
        assert grid.size >= 16 * self.SG.n
        cov = build_covering(grid, 0.5)
        pu = build_pu(cov, "indicator")
        battery = np.stack(make_battery(fam, grid, 3, seed=5), axis=1)
        _forbid_atom_matrix(monkeypatch)
        tracemalloc.start()
        try:
            R = gram_kernel(fam, grid, rel_cut=0.2, threads=2)
            R.node_factors()
            frame_bounds_continuous(fam, grid, threads=2)
            op = build_uphi(R, cov, pu, grid, threads=2)
            hilbert_frame_bounds(op)
            _, rep = atomic_coefficients(battery, op)
            samples = self.SG.h * np.conj(op.atoms.T @ np.conj(battery))
            _, brep = banach_frame_reconstruct(samples, op, f_true=battery)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert R.mirror is not None if case == "mirrored_even" else R.mirror is None
        assert peak < self.SG.n * grid.size * 16
        # criterion 6 and 7's bound: measured 1.4e-4 and 1.3e-4
        assert np.max(rep.relative_error) <= 1e-3
        assert np.max(brep.relative_error) <= 1e-3


class TestGaussDerivProfile:
    @pytest.mark.parametrize("order", range(1, 13))
    def test_theta_is_the_regularized_gamma(self, order):
        from scipy.special import gammainc, gammaln
        prof = GaussDerivProfile(order)
        v = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 20001)])
        assert np.abs(prof.theta(v) - gammainc(order, v * v)).max() <= 1e-15
        assert prof.theta(-v).tobytes() == prof.theta(v).tobytes()
        assert prof._sqrt_c == np.exp(0.5 * (np.log(2.0) - gammaln(order)))


class TestFrameBounds:
    def test_gabor_near_tight(self, gabor_small):
        fam, grid = gabor_small
        rep = frame_bounds_continuous(fam, grid)
        assert 0.98 <= rep.c1 <= rep.c2 <= 1.02

    def test_reference_gabor_upper_bound_exact(self, gabor_reference):
        # the unit Gaussian Gabor frame is tight with constant 1; on the
        # interior probe span the reduced operator's top eigenvalue is 1
        fam, grid = gabor_reference
        rep = frame_bounds_continuous(fam, grid)
        assert abs(rep.c2 - 1.0) <= 1e-9

    @pytest.mark.parametrize("tag", ["cwt", "alpha_mod"])
    def test_subspace_names_the_interior_box(self, tag):
        # these interior rules size one axis themselves (the position margin
        # at the largest interior scale, the frequency fixed point), so the
        # report prints the box the probes were drawn from
        fam = make_family(tag, None, SignalGrid(16.0 if tag == "cwt" else 8.0, 64))
        grid = default_index_grid(fam)
        rep = frame_bounds_continuous(fam, grid)
        box = np.round(fam.interior_box(grid.bounds), 3).tolist()
        assert f"interior box {box}," in rep.subspace
        assert "nan" not in rep.subspace

    def test_zero_family_rejected(self, sg):
        fam = make_family("gabor", None, sg)
        fam = type(fam)(**{**fam.__dict__,
                           "atom_fn": lambda pts, threads=1: np.zeros(
                               (sg.n, pts.shape[0]), dtype=complex),
                           "_ops": {}})
        grid = default_index_grid(fam, bounds=[[-4, 4], [-4, 4]], resolution=[16, 16])
        with pytest.raises((FamilyError, SolverError)):
            frame_bounds_continuous(fam, grid)


class TestAlphaAdmissibility:
    def test_sigma_constant_at_alpha_zero(self, sg):
        xi = np.linspace(-20, 20, 81)
        smin, smax, _ = alpha_admissibility(gaussian_window(sg.points), 0.0, xi, sg)
        assert (smax - smin) / smin <= 1e-3
        # in this Fourier convention sigma = ||ghat||^2 = 2 pi for a unit window
        assert smin == pytest.approx(2 * np.pi, rel=1e-3)

    def test_alpha_half_admissible(self, sg):
        xi = np.linspace(-20, 20, 81)
        smin, smax, a_const = alpha_admissibility(gaussian_window(sg.points),
                                                  0.5, xi, sg)
        assert smin > 0
        assert np.isfinite(a_const)
        assert a_const >= smax

    def test_zero_window_rejected(self, sg):
        with pytest.raises(FamilyError):
            alpha_admissibility(np.zeros(sg.n), 0.5, np.array([0.0]), sg)


class TestWaveletFamilies:
    def test_cwt_tight_on_battery(self, cwt_reference):
        fam, grid = cwt_reference
        sg = fam.signal_grid
        calc = fam.calculus(grid)
        f = make_battery(fam, grid, 1, seed=77)[0]
        sf = calc.frame_apply(f)
        assert sg.norm(sf - f) <= 1e-2 * sg.norm(f)

    def test_inhom_low_pass_complements_wavelets(self):
        sg = SignalGrid(10.0, 512)
        fam = make_family("inhom_wavelet", None, sg)
        profile = fam.params["profile"]
        xi = np.linspace(0.01, 30, 400)
        phi_sq = 1.0 - profile.theta(xi)
        # multiplier identity: |phihat|^2 + Theta = 1 by construction, and
        # the low-pass truly cuts off at high frequency
        assert phi_sq.min() >= -1e-12
        assert phi_sq[-1] <= 1e-6
        assert phi_sq[0] == pytest.approx(1.0, abs=1e-9)

    def test_inhom_atoms_equal_the_per_node_spectrum(self):
        # the spectrum runs once per distinct scale; the atoms are those of
        # the spectrum evaluated at every node, bit for bit
        sg = SignalGrid(16.0, 256)
        fam = make_family("inhom_wavelet", None, sg)
        pts = default_index_grid(fam).points
        scale = pts[:, 0]
        lowpass = scale <= 0.0
        assert lowpass.any() and np.unique(scale).size < scale.size // 10
        profile, w = fam.params["profile"], sg.rfft_freqs()
        spec = np.empty((w.size, scale.size))
        spec[:, lowpass] = np.sqrt(np.clip(1.0 - profile.theta(w), 0.0, 1.0))[:, None]
        a = scale[~lowpass]
        spec[:, ~lowpass] = np.sqrt(a[None, :]) * profile.spectrum(a[None, :] * w[:, None])
        direct = _spectral_atoms(sg, spec, pts[:, 1])
        assert fam.atoms(pts).tobytes() == direct.tobytes()

    def test_inhom_tight_on_battery(self):
        sg = SignalGrid(10.0, 512)
        fam = make_family("inhom_wavelet", None, sg)
        grid = default_index_grid(fam)
        f = make_battery(fam, grid, 1, seed=3)[0]
        sf = fam.calculus(grid).frame_apply(f)
        assert sg.norm(sf - f) <= 1e-2 * sg.norm(f)

    @pytest.mark.parametrize("tag", ["gabor", "cwt"])
    def test_atoms_csv_is_what_csv_writer_wrote(self, tag, tmp_path):
        # one join of the reprs, with csv.writer's CRLF line ends
        fam = make_family(tag, None, SignalGrid(8.0, 64))
        pts = default_index_grid(fam).points[[0, 7, 40]]
        frame_families.export_atoms_csv(fam, pts, tmp_path / "atoms.csv")
        atoms, t = fam.atoms(pts), fam.signal_grid.points
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["t"]
            for p in pts:
                label = "_".join(f"{float(c):g}" for c in p)
                header += [f"re_{label}", f"im_{label}"]
            writer.writerow(header)
            for k in range(t.size):
                row = [repr(float(t[k]))]
                for j in range(atoms.shape[1]):
                    row += [repr(float(atoms[k, j].real)),
                            repr(float(atoms[k, j].imag))]
                writer.writerow(row)
        assert (tmp_path / "atoms.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_leakage_report_fields(self, gabor_small):
        fam, grid = gabor_small
        rep = leakage_report(fam, grid, samples=16)
        assert rep["center_atom_norm_sq"] == pytest.approx(1.0, abs=1e-6)
        assert rep["worst_boundary_deficit"] >= 0.0

    @pytest.mark.parametrize("tag", ["gabor", "cwt", "sinc_rkhs",
                                     "inhom_wavelet", "alpha_mod"])
    def test_leakage_report_covers_the_lowpass_sheet(self, tag):
        # only the inhomogeneous family has low-pass atoms, at scale <= 0
        wavelet = tag in ("cwt", "inhom_wavelet")
        fam = make_family(tag, None, SignalGrid(16.0 if wavelet else 8.0, 64))
        rep = leakage_report(fam, default_index_grid(fam), samples=8)
        key = "lowpass_worst_boundary_deficit"
        assert (key in rep) == (tag == "inhom_wavelet")
        if key in rep:
            assert np.isfinite(rep[key]) and rep[key] >= 0.0


def _complex_twin(fam):
    """The same family with every atom stored as complex128 (`atoms + 0j`),
    so that each product after the atoms runs in complex arithmetic."""
    return dataclasses.replace(
        fam, atom_fn=lambda pts, threads=1, real=fam.atom_fn: real(pts, threads) + 0j,
        _ops={})


def _ifft_atoms(sg, spectra, shifts):
    """The full-grid inverse FFT the spectral atoms were once built with:
    spectra on all n FFT frequencies, one complex `ifft`."""
    w = sg.fft_freqs()
    spec = spectra * np.exp(-1j * w[:, None] * (shifts[None, :] + sg.half_width))
    return np.fft.ifft(spec, axis=0) / sg.h


@pytest.mark.parametrize("tag", ["gabor", "cwt", "sinc_rkhs", "inhom_wavelet",
                                 "alpha_mod"])
def test_interior_draws_follow_the_index_geometry(tag):
    # the signal grids of the CLI tests' one-family configs, default boxes
    wavelet = tag in ("cwt", "inhom_wavelet")
    fam = make_family(tag, None, SignalGrid(16.0 if wavelet else 8.0, 64))
    grid = default_index_grid(fam)
    count = 20000
    pts = random_interior_points(fam, grid, count, np.random.default_rng(3))
    assert _interior_mask(fam, grid, pts).all()
    if not wavelet:
        return
    sheet = pts[:, 0] <= 0.0
    # only the inhomogeneous family has a low-pass sheet, hit by about half
    assert sheet.any() == (tag == "inhom_wavelet") and (~sheet).any()
    # log-uniform scales: half the wavelet-sheet draws lie below the
    # geometric mean of the interior scale bounds.  The fraction of N draws
    # has standard deviation 0.5/sqrt(N); the tolerance is four of them,
    # 2/sqrt(N).  Over seeds 0-199 the largest deviation measured
    # 2.01/sqrt(N), at seed 3 at most 0.27/sqrt(N); uniform scale draws
    # would miss by 11 (inhom_wavelet) and 24 (cwt) standard deviations
    (a_lo, a_hi), _ = fam.interior_box(grid.bounds)
    scales = pts[~sheet, 0]
    below = np.mean(scales < np.sqrt(a_lo * a_hi))
    assert abs(below - 0.5) <= 2.0 / np.sqrt(scales.size)


class TestRealAtoms:
    """Atoms carry their family's field, and every product after them
    follows the atoms' dtype."""

    @pytest.mark.parametrize("tag,params,dtype", [
        ("cwt", {"wavelet": "gauss_deriv"}, np.float64),
        ("cwt", {"wavelet": "mexican_hat"}, np.float64),
        ("inhom_wavelet", None, np.float64),
        ("sinc_rkhs", None, np.float64),
        ("alpha_mod", None, np.complex128)])
    def test_atoms_and_factors_follow_the_field(self, tag, params, dtype):
        fam = make_family(tag, params, SignalGrid(16.0, 128))
        if tag == "alpha_mod":
            # complex on every grid, mirror-closed ones too
            # (TestConjugationSymmetry)
            grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                      resolution=[16, 20])
        elif tag == "sinc_rkhs":
            grid = default_index_grid(fam)
        else:
            grid = default_index_grid(fam, band_spacing=0.9,
                                      scales_per_octave=4)
        calc = fam.calculus(grid)
        assert fam.atoms(grid.points[:3]).dtype == dtype
        assert calc.atom_matrix.dtype == dtype
        assert calc.s_matrix().dtype == dtype
        assert calc.s_eig(1e-6).eigvecs.dtype == dtype
        for name in ("half_map", "half_factor", "u_factor"):
            assert getattr(calc, name)(1e-6).dtype == dtype, name
        R = gram_kernel(fam, grid, rel_cut=1e-6)
        assert R.block(grid.points[:4], grid.points[:5]).dtype == dtype

    @pytest.mark.parametrize("tag,params", [
        ("cwt", {"wavelet": "gauss_deriv", "order": 6}),
        ("cwt", {"wavelet": "gauss_deriv", "order": 3}),
        ("inhom_wavelet", None)])
    @pytest.mark.parametrize("T,n", [(16.0, 512), (8.0, 64)])
    def test_irfft_atoms_are_the_real_part_of_the_full_ifft(self, tag, params,
                                                            T, n):
        # one inverse real FFT on the n/2 + 1 non-negative frequencies
        # against the complex ifft on all n: measured within 4.2e-16
        # max|psi| (cwt_reproducing's grid: 2.6e-16, max|psi| 1.70); the
        # ifft's imaginary part is rounding there (1.9e-16) but 0.04 at
        # n = 64, where the unpaired Nyquist bin -pi/h carries weight
        sg = SignalGrid(T, n)
        fam = make_family(tag, params, sg)
        pts = default_index_grid(fam).points
        profile = fam.params["profile"]
        w = sg.fft_freqs()
        a, b = pts[:, 0], pts[:, 1]
        low = a <= 0.0                     # inhom_wavelet's low-pass sheet
        spec = np.empty((n, a.size))
        spec[:, low] = np.sqrt(np.clip(1.0 - profile.theta(w), 0.0, 1.0))[:, None]
        spec[:, ~low] = np.sqrt(a[None, ~low]) * \
            profile.spectrum(a[None, ~low] * w[:, None])
        ref = _ifft_atoms(sg, spec, b)
        got = fam.atoms(pts)
        assert got.dtype == np.float64
        assert np.abs(got - ref.real).max() <= 1e-15 * np.abs(got).max()


def _mirror(points):
    """Index of each node's mirror (x, -w), found by coordinates."""
    where = {tuple(p): i for i, p in enumerate(points.tolist())}
    return np.array([where[(x, -w)] for x, w in points.tolist()])


class TestConjugationSymmetry:
    """A real S only on a mirror-closed separable grid: the calculus reads
    conj(psi_(x, w)) = psi_(x, -w) off the Gabor axis factors, and only
    when the grid carries the mirror exactly."""

    SG = SignalGrid(16.0, 128)
    BOX = [[-4.0, 4.0], [-4.0, 4.0]]

    def _gabor(self, window="gaussian", bounds=BOX):
        fam = make_family("gabor", {"window": window}, self.SG)
        return fam, default_index_grid(fam, bounds=bounds, resolution=[16, 16])

    @pytest.mark.parametrize("case", ["box_16", *sorted(MIRROR_GRIDS),
                                      "gabor_reference"])
    def test_mirror_symmetric_grid_builds_a_real_s(self, case, request):
        # a real window: conj(psi_(x, w)) = psi_(x, -w)
        if case == "box_16":
            fam, grid = self._gabor()
        elif case == "gabor_reference":
            fam, grid = request.getfixturevalue("gabor_reference")
        else:
            fam = make_family("gabor", None, self.SG)
            grid = default_index_grid(fam, **MIRROR_GRIDS[case])
        calc = fam.calculus(grid)
        assert calc.mirrored
        assert np.array_equal(calc.mirror, _mirror(grid.points))
        psi = calc.atom_matrix
        assert psi.dtype == np.complex128
        assert np.array_equal(psi[:, calc.mirror], psi.conj())
        assert calc.s_matrix().dtype == np.float64
        assert calc.s_eig(1e-6).eigvecs.dtype == np.float64
        assert calc.half_map(1e-6).dtype == np.float64
        for name in ("half_factor", "u_factor"):
            assert getattr(calc, name)(1e-6).dtype == np.complex128, name
        R = gram_kernel(fam, grid, rel_cut=1e-6)
        assert R.block(grid.points[:4], grid.points[:5]).dtype == np.complex128
        assert R.col_factor(grid.points[:5]).dtype == np.complex128

    @pytest.mark.parametrize("case", ["asymmetric_box", "nudged_weight",
                                      "asymmetric_widths", "complex_window",
                                      "phased_modulation", "alpha_mod",
                                      "alpha_mod_mirror_closed"])
    def test_broken_symmetry_keeps_the_complex_path(self, case):
        if case == "asymmetric_box":
            fam, grid = self._gabor(bounds=[[-4.0, 4.0], [-3.5, 4.0]])
        elif case == "nudged_weight":
            # one weight one ulp up: its mirrored pair of nodes differs
            fam, grid = self._gabor()
            w = grid.weights.copy()
            w[3] = np.nextafter(w[3], np.inf)
            grid = dataclasses.replace(grid, weights=w)
        elif case == "asymmetric_widths":
            # symmetric frequency midpoints, one width one ulp up, with
            # weights that follow: still a tensor grid, not mirror-closed
            fam, grid = self._gabor()
            (dx, dw), density = grid.structure["widths"], grid.structure["density"]
            dw = dw.copy()
            dw[0] = np.nextafter(dw[0], np.inf)
            grid = dataclasses.replace(
                grid, weights=density * np.multiply.outer(dx, dw).ravel(),
                structure={**grid.structure, "widths": [dx, dw]})
            assert fam.calculus(grid)._tensor is not None
        elif case == "complex_window":
            fam, grid = self._gabor(
                window=lambda t: gaussian_window(t) * np.exp(0.5j * t))
        elif case == "phased_modulation":
            # e^{i(wt + 0.3)}: the atom at -w is no longer the conjugate
            fam, grid = self._gabor()
            window, modulation = fam.separable
            fam = dataclasses.replace(fam, separable=(
                window, lambda w: np.exp(0.3j) * modulation(w)))
        elif case == "alpha_mod":
            # the shipped alpha_modulation grid: its 56 frequency midpoints
            # on [-10, 10] are not bitwise symmetric
            fam = make_family("alpha_mod", {"alpha": 0.5}, SignalGrid(10.0, 512))
            grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-10.0, 10.0]],
                                      resolution=[40, 56])
        else:
            # a mirror-closed grid, but alpha_mod declares no separable
            # factors: complex everywhere
            fam = make_family("alpha_mod", None, self.SG)
            grid = default_index_grid(fam, bounds=self.BOX, resolution=[16, 16])
            mirror = _mirror(grid.points)
            assert grid.weights[mirror].tobytes() == grid.weights.tobytes()
        calc = fam.calculus(grid)
        assert not calc.mirrored and calc.mirror is None
        assert calc.s_matrix().dtype == np.complex128
        assert calc.half_map(1e-6).dtype == np.complex128
        assert calc.half_factor(1e-6).dtype == np.complex128

    def test_mirrored_atoms_are_the_conjugates(self, gabor_reference):
        fam, grid = gabor_reference
        mirror = _mirror(grid.points)
        assert grid.weights[mirror].tobytes() == grid.weights.tobytes()
        psi = fam.calculus(grid).atom_matrix
        # equal as numbers; in bits only the zero imaginary part at t = 0
        # differs in sign (+0 at the mirrored node, -0 in the conjugate)
        assert np.array_equal(psi[:, mirror], psi.conj())

    def test_real_s_and_bounds_match_complex_arithmetic(self, gabor_reference):
        fam, grid = gabor_reference
        calc = fam.calculus(grid)
        assert calc.mirrored
        h, psi = fam.signal_grid.h, calc.atom_matrix
        ref = h * ((psi * grid.weights[None, :]) @ psi.conj().T)
        ref = 0.5 * (ref + ref.conj().T)
        s = calc.s_matrix()
        assert s.dtype == np.float64
        # the real GEMM and the complex one sum 4096 terms per entry in
        # different orders: measured 3.5e-15 max|S| apart, at the center
        # diagonal entry
        assert np.abs(s - ref.real).max() <= 1e-14 * np.abs(s).max()
        lam, lam_ref = calc.s_eig().eigvals, np.linalg.eigvalsh(ref)
        assert np.abs(lam - lam_ref).max() <= 1e-13 * lam_ref[-1]
        # the real probe view spans the probe atoms and their conjugates
        idx, _ = _interior_probes(fam, grid, grid.points)
        probes = psi[:, idx]
        c1, c2, rank = restricted_rayleigh_bounds(
            np.hstack([probes, probes.conj()]), ref, h)
        rep = frame_bounds_continuous(fam, grid)
        assert rep.rank == rank
        assert "conjugates" in rep.subspace
        assert rep.c1 == pytest.approx(c1, rel=1e-12)
        assert rep.c2 == pytest.approx(c2, rel=1e-12)

    def test_mirrored_probes_are_gathered_in_c_order(self, gabor_reference,
                                                     monkeypatch):
        # so their float64 view copies nothing (a column slice of the
        # F-ordered atom matrix would be copied again), and the bounds are
        # those of the view of the column slice, bit for bit
        fam, grid = gabor_reference
        calc = fam.calculus(grid)
        assert calc.mirrored
        s = calc.s_matrix()                     # built before the recording
        gathered = []

        def record(z):
            gathered.append(z)
            return _real_view(z)

        monkeypatch.setattr(frame_families, "_real_view", record)
        rep = frame_bounds_continuous(fam, grid)
        (probes,) = gathered
        assert probes.flags["C_CONTIGUOUS"]
        idx, _ = _interior_probes(fam, grid, grid.points)
        sliced = calc.atom_matrix[:, idx]
        assert not sliced.flags["C_CONTIGUOUS"]
        assert probes.tobytes() == np.ascontiguousarray(sliced).tobytes()
        c1, c2, rank = restricted_rayleigh_bounds(
            _real_view(sliced), s, fam.signal_grid.h)
        assert (rep.c1.hex(), rep.c2.hex(), rep.rank) == (c1.hex(), c2.hex(), rank)

    @pytest.mark.parametrize("tag", ["gabor", "alpha_mod"])
    def test_per_axis_atoms_equal_the_direct_formula(self, tag, rng,
                                                     gabor_reference):
        sg = gabor_reference[0].signal_grid
        fam = make_family(tag, None, sg)
        t = sg.points
        scattered = np.column_stack([rng.uniform(-8, 8, 300),
                                     rng.uniform(-16, 16, 300)])
        for pts in (scattered, gabor_reference[1].points):
            x, w = pts[:, 0], pts[:, 1]
            if tag == "gabor":
                amp = gaussian_window(t[:, None] - x[None, :])
            else:
                s = (1.0 + np.abs(w)) ** (-fam.params["alpha"])
                amp = gaussian_window(t[:, None] / s[None, :] - x[None, :]) / \
                    np.sqrt(s[None, :])
            direct = amp * np.exp(1j * w[None, :] * t[:, None])
            assert np.array_equal(fam.atoms(pts), direct)


class TestRealArithmeticAgrees:
    """A real family against its complex twin (`_complex_twin`): the same
    atoms, every later product in complex arithmetic.

    The values go through S^+, which amplifies rounding by up to
    1 / lambda_min = 1 / cut: at cut 1e-8 a 1e-16 relative change of the
    atoms moves cwt_reproducing's am_norm by about 5e-9 relative.  So the
    comparison runs at cut 1e-6, where rounding reaches about
    eps / cut = 2e-10.  Measured gaps at this cut: frame bounds 3e-15,
    am_norm 6e-11, delta_est 5e-11, r_norm 8e-12 (relative); atomic and
    Banach reconstruction errors 1e-16 and 2.3e-10 (absolute, as fractions
    of ||f||).  The bounds below are 1e-13 for the bounds, which do not
    pass through S^+, and 1e-9 for everything else.
    """

    CUT = 1e-6

    @pytest.fixture(scope="class")
    def wavelets(self):
        sg = SignalGrid(16.0, 128)
        out = []
        for tag in ("cwt", "inhom_wavelet"):
            fam = make_family(tag, None, sg)
            out.append((fam, default_index_grid(fam, band_spacing=0.9,
                                                scales_per_octave=6)))
        return out

    def test_frame_bounds_and_am_norm(self, wavelets):
        for fam, grid in wavelets:
            twin = _complex_twin(fam)
            got, ref = frame_bounds_continuous(fam, grid), \
                frame_bounds_continuous(twin, grid)
            assert got.rank == ref.rank
            assert got.c1 == pytest.approx(ref.c1, rel=1e-13)
            assert got.c2 == pytest.approx(ref.c2, rel=1e-13)
            for m in (trivial_admissible_weight(),
                      weight_from_w(polynomial_weight(1.0))):
                a = am_norm(gram_kernel(fam, grid, self.CUT), m, grid)
                b = am_norm(gram_kernel(twin, grid, self.CUT), m, grid)
                assert a.am_norm == pytest.approx(b.am_norm, rel=1e-9)
                assert a.a1_norm == pytest.approx(b.a1_norm, rel=1e-9)

    @pytest.mark.parametrize("tag", ["cwt", "sinc_rkhs"])
    def test_property_d_and_reconstruction(self, wavelets, tag):
        if tag == "cwt":
            fam, grid = wavelets[0]
            cov = build_covering(grid, [0.25, 1.0])
        else:
            fam = make_family("sinc_rkhs", {"bandlimit": np.pi / 2},
                              SignalGrid(10.0, 128))
            grid = default_index_grid(fam, resolution=[40])
            cov = build_covering(grid, 1.0)
        twin = _complex_twin(fam)
        m = weight_from_w(polynomial_weight(1.0))
        for comparison in ("strict", "phase_aligned"):
            a, b = (property_D_check(f, cov, m, grid, z_per_cell=3, seed=5,
                                     comparison=comparison, rel_cut=self.CUT)
                    for f in (fam, twin))
            assert a.delta_est == pytest.approx(b.delta_est, rel=1e-9)
            assert a.r_norm == pytest.approx(b.r_norm, rel=1e-9)
        battery = np.stack(make_battery(fam, grid, 4, seed=11), axis=1)
        errors = []
        for f in (fam, twin):
            op = build_uphi(gram_kernel(f, grid, self.CUT), cov, build_pu(cov),
                            grid)
            assert op.defect < 1.0
            _, rep = atomic_coefficients(battery, op)
            samples = f.signal_grid.h * (op.atoms.conj().T @ battery)
            _, brep = banach_frame_reconstruct(samples, op, f_true=battery)
            errors.append((rep.relative_error, brep.relative_error))
        for got, ref in zip(*errors):
            assert np.abs(got - ref).max() <= 1e-9


# every family, the inhomogeneous one with points on its low-pass sheet
POOLED_FAMILIES = [("gabor", None), ("cwt", {"wavelet": "gauss_deriv"}),
                   ("cwt", {"wavelet": "mexican_hat"}), ("sinc_rkhs", None),
                   ("inhom_wavelet", None), ("alpha_mod", None)]


def _pooled_points(fam, count, rng):
    """`count` points of the family's default grid, drawn with repeats, so
    that positions, frequencies and scales recur as on a grid."""
    pts = default_index_grid(fam).points
    pts = pts[rng.choice(pts.shape[0], count)]
    if fam.tag == "inhom_wavelet":
        pts[::4, 0] = 0.0
        assert (pts[:, 0] == 0.0).any() and (pts[:, 0] > 0.0).any()
    return pts


def _off_main_pool(calls):
    """A stand-in for `_on_pool` that runs every block on a thread of its
    own, so that a public function called from a block runs off the main
    thread; it records each call's block count and refuses to be entered
    off the main thread, from inside a block (a nested pool)."""
    def pool(blocks, threads, work, fold=None):
        assert threading.current_thread() is threading.main_thread()
        calls.append(len(blocks))
        for block in blocks:
            res, err = [], []

            def run(block=block):
                try:
                    res.append(work(block))
                except BaseException as exc:
                    err.append(exc)

            t = threading.Thread(target=run)
            t.start()
            t.join()
            if err:
                raise err[0]
            if fold is not None:
                fold(res[0])
    return pool


class TestPooledSynthesis:
    """Atoms and the half-factor map are filled in column blocks on the
    pool (`_fill_columns`, `_map_atoms`); the bytes and the layout do not
    depend on the thread count."""

    # two full blocks and a partial one; one block and a one-column tail
    COUNTS = [2 * frame_families._ATOM_COLS + 37, frame_families._ATOM_COLS + 1]

    def test_column_blocks(self):
        cols = frame_families._ATOM_COLS
        assert frame_families._column_blocks(0) == []
        assert frame_families._column_blocks(1) == [(0, 1)]
        assert frame_families._column_blocks(cols + 1) == [(0, cols + 1)]
        assert frame_families._column_blocks(2 * cols + 37) == \
            [(0, cols), (cols, 2 * cols), (2 * cols, 2 * cols + 37)]

    @pytest.mark.parametrize("tag,params", POOLED_FAMILIES)
    @pytest.mark.parametrize("count", COUNTS)
    def test_atoms_do_not_depend_on_threads(self, tag, params, count, rng,
                                            monkeypatch):
        monkeypatch.setattr(kernel_algebra, "_usable_cores", lambda: 4)
        fam = make_family(tag, params, SignalGrid(8.0, 64))
        pts = _pooled_points(fam, count, rng)
        ref = fam.atoms(pts)
        assert ref.shape == (64, count)
        for threads in (2, 3):
            got = fam.atoms(pts, threads)
            assert got.dtype == ref.dtype
            assert got.flags["C_CONTIGUOUS"] == ref.flags["C_CONTIGUOUS"]
            assert got.flags["F_CONTIGUOUS"] == ref.flags["F_CONTIGUOUS"]
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["real map, complex atoms",
                                      "real map, real atoms", "complex map"])
    @pytest.mark.parametrize("count", COUNTS)
    def test_map_atoms_does_not_depend_on_threads(self, kind, count, rng,
                                                  monkeypatch):
        monkeypatch.setattr(kernel_algebra, "_usable_cores", lambda: 4)
        n, r = 64, 40
        p = rng.standard_normal((r, n))
        psi = rng.standard_normal((n, count))
        if kind != "real map, real atoms":
            psi = psi + 1j * rng.standard_normal((n, count))
        if kind == "complex map":
            p = p + 1j * rng.standard_normal((r, n))
        ref = frame_families._map_atoms(p, psi)
        assert ref.dtype == np.result_type(p, psi) and ref.shape == (r, count)
        whole = p @ psi
        assert np.abs(ref - whole).max() <= 1e-13 * np.abs(whole).max()
        for threads in (2, 3):
            got = frame_families._map_atoms(p, psi, threads)
            assert got.dtype == ref.dtype
            assert got.flags["C_CONTIGUOUS"] == ref.flags["C_CONTIGUOUS"]
            assert got.flags["F_CONTIGUOUS"] == ref.flags["F_CONTIGUOUS"]
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("tag,params", POOLED_FAMILIES)
    def test_no_block_calls_a_public_function(self, tag, params, rng,
                                              monkeypatch):
        # the perfbench span recorder wraps every public function with one
        # span stack, which a pool worker must not touch
        on_main = []

        def main_only(fn):
            def wrapper(t):
                assert threading.current_thread() is threading.main_thread()
                on_main.append(fn.__name__)
                return fn(t)
            return wrapper

        for name in ("gaussian_window", "mexican_hat"):
            monkeypatch.setattr(frame_families, name,
                                main_only(getattr(frame_families, name)))
        sg = SignalGrid(8.0, 64)
        ref_fam = make_family(tag, params, sg)
        fam = make_family(tag, params, sg)
        pts = _pooled_points(fam, self.COUNTS[0], rng)
        grid = default_index_grid(fam)
        calls = []
        monkeypatch.setattr(frame_families, "_on_pool", _off_main_pool(calls))
        got = fam.atoms(pts, 2)
        R = gram_kernel(fam, grid, rel_cut=1e-6, threads=2)
        c, _ = R.node_factors()
        v = R.col_factor(pts)
        # the atoms at pts; the grid atoms (not formed for gabor's
        # separable atoms on the tensor grid); the half factor's map; the
        # column factor's atoms and map: every block ran off the main thread
        assert len(calls) == {"gabor": 4}.get(tag, 5)
        assert calls[0] == calls[-1] == 3
        assert tag != "gabor" or "gaussian_window" in on_main
        monkeypatch.undo()
        assert got.tobytes() == ref_fam.atoms(pts).tobytes()
        R_ref = gram_kernel(ref_fam, grid, rel_cut=1e-6)
        assert c.tobytes() == R_ref.node_factors()[0].tobytes()
        assert v.tobytes() == R_ref.col_factor(pts).tobytes()
