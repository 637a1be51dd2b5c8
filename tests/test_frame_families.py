import dataclasses
import tracemalloc

import numpy as np
import pytest

from coorbit._linalg import GRAM_COLS, SolverError, hermitian_gram, \
    restricted_rayleigh_bounds
from coorbit.coverings import build_covering, build_pu
from coorbit.discretization import atomic_coefficients, \
    banach_frame_reconstruct, build_uphi
from coorbit.frame_families import (FamilyError, FrameCalculus,
                                    GaussDerivProfile, _interior_probes,
                                    _real_view,
                                    alpha_admissibility,
                                    analyze_V, analyze_W, default_index_grid,
                                    frame_bounds_continuous,
                                    frame_operator_apply, gaussian_window,
                                    gram_kernel, leakage_report, make_battery,
                                    make_family)
from coorbit.kernel_algebra import _even_blocks, am_norm, apply_kernel, \
    compose
from coorbit.localization import cross_gramian
from coorbit.measure_space import SignalGrid, polynomial_weight, \
    trivial_admissible_weight, weight_from_w
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
        calc.u_factor(cut)
        # grid nodes are columns of C: no atom is synthesized again
        monkeypatch.setattr(fam, "atom_fn", None)
        u, c, h = R.node_factors()
        assert np.abs(h * (u[rows] @ c) - ref[rows]).max() <= tol
        assert np.abs(h * (u @ c[:, rows]) - ref[:, rows]).max() <= tol
        assert np.abs(h * (u[2:5] @ c[:, rows]) - ref[2:5][:, rows]).max() <= tol


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

    @pytest.mark.parametrize("n", [64, 200, 512])
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

    @pytest.mark.parametrize("case", ["gabor_complex", "alpha_mod_shipped"])
    def test_s_matrix_peak_memory(self, case):
        # S takes one weighted block of at most GRAM_COLS atom rows and
        # n x n arrays, and no full-size copy of the atoms
        if case == "gabor_complex":
            # 72 midpoints per axis are not bitwise symmetric: complex S
            fam = make_family("gabor", None, SignalGrid(8.0, 64))
            grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                      resolution=[72, 72])
        else:
            fam = make_family("alpha_mod", {"alpha": 0.5}, SignalGrid(10.0, 512))
            grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-10.0, 10.0]],
                                      resolution=[40, 56])
        calc = FrameCalculus(fam, grid)
        psi = calc.atom_matrix
        tracemalloc.start()
        try:
            s = calc.s_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not calc.mirrored and s.dtype == np.complex128
        block = min(psi.shape[0], GRAM_COLS) * psi.shape[1] * psi.itemsize
        assert peak <= block + 2 * s.nbytes + 64 * 1024

    def test_even_blocks_never_leave_one_column(self):
        # a one-column (or one-row) operand turns a GEMM into a GEMV
        assert _even_blocks(512, 128) == [(0, 128), (128, 256), (256, 384), (384, 512)]
        assert _even_blocks(129, 128) == [(0, 64), (64, 129)]
        assert _even_blocks(1, 128) == [(0, 1)]
        for total in range(2, 600):
            sizes = [b - a for a, b in _even_blocks(total, 128)]
            assert sum(sizes) == total and max(sizes) <= 128 and min(sizes) >= 2


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

    def test_zero_family_rejected(self, sg):
        fam = make_family("gabor", None, sg)
        fam = type(fam)(**{**fam.__dict__,
                           "atom_fn": lambda pts: np.zeros((sg.n, pts.shape[0]),
                                                           dtype=complex),
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

    def test_inhom_tight_on_battery(self):
        sg = SignalGrid(10.0, 512)
        fam = make_family("inhom_wavelet", None, sg)
        grid = default_index_grid(fam)
        f = make_battery(fam, grid, 1, seed=3)[0]
        sf = fam.calculus(grid).frame_apply(f)
        assert sg.norm(sf - f) <= 1e-2 * sg.norm(f)

    def test_leakage_report_fields(self, gabor_small):
        fam, grid = gabor_small
        rep = leakage_report(fam, grid, samples=16)
        assert rep["center_atom_norm_sq"] == pytest.approx(1.0, abs=1e-6)
        assert rep["worst_boundary_deficit"] >= 0.0


def _complex_twin(fam):
    """The same family with every atom stored as complex128 (`atoms + 0j`),
    so that each product after the atoms runs in complex arithmetic."""
    return dataclasses.replace(
        fam, atom_fn=lambda pts, real=fam.atom_fn: real(pts) + 0j, _ops={})


def _ifft_atoms(sg, spectra, shifts):
    """The full-grid inverse FFT the spectral atoms were once built with:
    spectra on all n FFT frequencies, one complex `ifft`."""
    w = sg.fft_freqs()
    spec = spectra * np.exp(-1j * w[:, None] * (shifts[None, :] + sg.half_width))
    return np.fft.ifft(spec, axis=0) / sg.h


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
            # 20 frequency midpoints are not bitwise symmetric, so S keeps
            # the atoms' field; a mirrored grid gives a real S
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
    """A family declares conj(psi_x) = psi_{sigma x}; the calculus takes the
    real S only when the grid carries the mirror exactly."""

    SG = SignalGrid(16.0, 128)
    BOX = [[-4.0, 4.0], [-4.0, 4.0]]

    def _gabor(self, window="gaussian", bounds=BOX):
        fam = make_family("gabor", {"window": window}, self.SG)
        return fam, default_index_grid(fam, bounds=bounds, resolution=[16, 16])

    @pytest.mark.parametrize("tag", ["gabor", "alpha_mod"])
    def test_mirror_symmetric_grid_builds_a_real_s(self, tag):
        # a real window, or alpha_mod's real Gaussian envelope:
        # conj(psi_(x, w)) = psi_(x, -w)
        fam = make_family(tag, None, self.SG)
        grid = default_index_grid(fam, bounds=self.BOX, resolution=[16, 16])
        assert fam.conjugation.tolist() == [1.0, -1.0]
        calc = fam.calculus(grid)
        assert calc.mirrored
        psi = calc.atom_matrix
        assert psi.dtype == np.complex128
        assert np.array_equal(psi[:, _mirror(grid.points)], psi.conj())
        assert calc.s_matrix().dtype == np.float64
        assert calc.s_eig(1e-6).eigvecs.dtype == np.float64
        assert calc.half_map(1e-6).dtype == np.float64
        for name in ("half_factor", "u_factor"):
            assert getattr(calc, name)(1e-6).dtype == np.complex128, name
        R = gram_kernel(fam, grid, rel_cut=1e-6)
        assert R.block(grid.points[:4], grid.points[:5]).dtype == np.complex128
        assert R.col_factor(grid.points[:5]).dtype == np.complex128

    @pytest.mark.parametrize("case", ["asymmetric_box", "nudged_weight",
                                      "complex_window", "alpha_mod"])
    def test_broken_symmetry_keeps_the_complex_path(self, case):
        if case == "asymmetric_box":
            fam, grid = self._gabor(bounds=[[-4.0, 4.0], [-3.5, 4.0]])
        elif case == "nudged_weight":
            # one weight one ulp up: its mirrored pair of nodes differs
            fam, grid = self._gabor()
            w = grid.weights.copy()
            w[3] = np.nextafter(w[3], np.inf)
            grid = dataclasses.replace(grid, weights=w)
        elif case == "complex_window":
            fam, grid = self._gabor(
                window=lambda t: gaussian_window(t) * np.exp(0.5j * t))
            assert fam.conjugation is None
        else:
            # the shipped alpha_modulation grid: its 56 frequency midpoints
            # on [-10, 10] are not bitwise symmetric
            fam = make_family("alpha_mod", {"alpha": 0.5}, SignalGrid(10.0, 512))
            grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-10.0, 10.0]],
                                      resolution=[40, 56])
            assert fam.conjugation.tolist() == [1.0, -1.0]
        calc = fam.calculus(grid)
        assert not calc.mirrored
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
