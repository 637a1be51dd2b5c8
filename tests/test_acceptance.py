"""Acceptance suite: one test per criterion, each printing a pass line.

Reference configuration: Gaussian window, signal grid T=10 n=512, Gabor
index domain [-8,8]x[-16,16] at 64x64.  The refinement experiments
(criteria 4-8) run on a reduced Gabor box ([-4,4]^2, T=8, n=64) with the
stable-subspace cut 0.2: the reference box needs ~10^5 covering cells to
reach the full flag, which is outside desk scale (see the decisions ledger).
"""
import json
import time

import numpy as np
import pytest

from coorbit.coverings import build_covering, build_pu
from coorbit.discretization import (atomic_coefficients,
                                    banach_frame_reconstruct, build_uphi)
from coorbit.frame_families import (alpha_admissibility, analyze_V, analyze_W,
                                    default_index_grid, frame_bounds_continuous,
                                    gaussian_window, gram_kernel, make_battery,
                                    make_family)
from coorbit.kernel_algebra import am_norm, apply_kernel
from coorbit.localization import a_flat_norm, cross_gramian, gab_domination_check
from coorbit.measure_space import (SignalGrid, WeightOnX, build_quad_grid,
                                   polynomial_weight, trivial_admissible_weight,
                                   trivial_weight, weight_from_w)
from coorbit.oscillation import property_D_check, refine_until
from coorbit.sequence_spaces import (SeqSpaceSpec, closed_form_norm, flat_norm,
                                     plus_bound_ratio, plus_theoretical_bound)

LADDER_CUT = 0.2


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  [{detail}]")


# --------------------------------------------------------------------------
def test_criterion_01_gabor_tightness():
    t0 = time.perf_counter()
    sg = SignalGrid(10.0, 512)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam)
    rep = frame_bounds_continuous(fam, grid)
    elapsed = time.perf_counter() - t0
    assert 0.98 <= rep.c1 <= rep.c2 <= 1.02
    assert elapsed < 60.0
    report(1, f"C1={rep.c1:.5f} C2={rep.c2:.5f} in {elapsed:.1f}s")


def test_criterion_02_reproducing_formula(gabor_reference, cwt_reference,
                                          sinc_reference):
    worst = {}
    for name, (fam, grid) in (("gabor", gabor_reference),
                              ("cwt", cwt_reference),
                              ("sinc_rkhs", sinc_reference)):
        R = gram_kernel(fam, grid, rel_cut=1e-8)
        errs = []
        for seed in range(5):
            f = make_battery(fam, grid, 1, seed=100 + seed)[0]
            vf = analyze_V(fam, f, grid).values
            rv = apply_kernel(R, vf, grid)
            errs.append(np.abs(rv - vf).max() / np.abs(vf).max())
        worst[name] = max(errs)
        assert worst[name] <= 1e-3, name
    report(2, " ".join(f"{k}:{v:.2e}" for k, v in worst.items()))


def test_criterion_03_kernel_calculus(gabor_reference, rng):
    fam, grid = gabor_reference
    sg = fam.signal_grid
    R = gram_kernel(fam, grid, rel_cut=1e-8)
    calc = fam.calculus(grid)
    pts = grid.points
    h = sg.h
    u = calc.u_factor(1e-8)              # C^H, (M, r)
    c = calc.half_factor(1e-8)           # C = Lambda_k^(-1/2) Q_k^H Psi, (r, M)

    # self-adjointness, streamed over row blocks
    sa = 0.0
    for start in range(0, grid.size, 512):
        rows = slice(start, min(start + 512, grid.size))
        blk = R.block(pts[rows], pts)
        blk_t = R.block(pts, pts[rows])
        sa = max(sa, float(np.abs(blk - blk_t.conj().T).max()))
    assert sa <= 1e-8

    # R o R - R = h C^H (h C W C^H - I_r) C through the half factor
    core = h * ((c * grid.weights[None, :]) @ u) - np.eye(c.shape[0])
    d_mat = core @ c
    roro = 0.0
    for start in range(0, grid.size, 512):
        rows = slice(start, min(start + 512, grid.size))
        roro = max(roro, float(np.abs(h * (u[rows] @ d_mat)).max()))
    assert roro <= 1e-3

    # submultiplicativity on 20 random kernel pairs
    from coorbit.kernel_algebra import Kernel, compose
    small = build_quad_grid([[-3.0, 3.0]], [48])
    m = weight_from_w(polynomial_weight(1.0))
    gen = np.random.default_rng(5)
    worst_rel = 0.0
    for _ in range(20):
        a1, b1, a2, b2 = gen.uniform(0.5, 2.0, 4)
        k1 = Kernel(lambda p, q, a=a1, b=b1: np.exp(
            -a * (p[:, None, 0] - q[None, :, 0]) ** 2) *
            np.exp(1j * b * (p[:, None, 0] + q[None, :, 0])))
        k2 = Kernel(lambda p, q, a=a2, b=b2: np.exp(
            -a * (p[:, None, 0] - q[None, :, 0]) ** 2) *
            np.cos(b * (p[:, None, 0] - q[None, :, 0])) + 0j)
        lhs = am_norm(compose(k1, k2, small), m, small).am_norm
        bound = am_norm(k1, m, small).am_norm * am_norm(k2, m, small).am_norm
        worst_rel = max(worst_rel, (lhs - bound) / bound)
    assert worst_rel <= 1e-10
    report(3, f"selfadj={sa:.1e} RoR={roro:.1e} submult viol={worst_rel:.1e}")


def test_interior_rows_reach_the_continuum_a1_norm(gabor_reference):
    # Moyal's formula for the unit Gaussian window: |R(x, y)| =
    # exp(-|x - y|^2 / 4), whose integral under dx dw / 2 pi is 2.  A row
    # inside the interior box sees the whole Gaussian; rows near the box's
    # edge do not, and the whole-box norm measures the truncation instead
    fam, grid = gabor_reference
    c, h = gram_kernel(fam, grid, rel_cut=1e-8).node_factors()
    box, pts = fam.interior_box(grid.bounds), grid.points
    inside = np.flatnonzero(np.all((pts >= box[:, 0]) & (pts <= box[:, 1]),
                                   axis=1))
    assert 0 < inside.size < grid.size
    a1 = max(float((h * np.abs(c[:, rows].conj().T @ c) @ grid.weights).max())
             for rows in np.array_split(inside, -(-inside.size // 256)))
    assert abs(a1 - 2.0) <= 1e-3


def test_criterion_04_oscillation_refinement(gabor_ladder):
    traj = gabor_ladder["trajectory"]
    rep = gabor_ladder["report"]
    fam = gabor_ladder["family"]
    cov = gabor_ladder["covering"]
    level = traj[-1].level
    deltas = [s.report.delta_est for s in traj]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert rep.full and level <= 8

    # stability of the passing level across z-sample seeds
    m1 = trivial_admissible_weight()
    for seed in (1, 2):
        rep_seed = property_D_check(fam, cov, m1, z_per_cell=3,
                                    seed=seed, rel_cut=LADDER_CUT)
        assert rep_seed.full

    # polynomial weight s=1: delta decreases and the atomic flag is reached;
    # the full flag at s=1 needs ~1e5 cells (ledger), out of desk scale
    m_s1 = weight_from_w(polynomial_weight(1.0))
    _, rep_s1, traj_s1 = refine_until(
        fam, gabor_ladder["domain"], m_s1, target="atomic", max_levels=8,
        initial_cell=1.8, z_per_cell=3, seed=0, rel_cut=LADDER_CUT)
    d_s1 = [s.report.delta_est for s in traj_s1]
    assert len(d_s1) >= 3
    assert all(a > b for a, b in zip(d_s1, d_s1[1:]))
    assert rep_s1.atomic_only and traj_s1[-1].level <= 8
    report(4, f"full at level {level} (deltas {['%.3f' % d for d in deltas]}); "
              f"s=1 atomic at level {traj_s1[-1].level}")


def test_criterion_05_defect_bound_consistency(gabor_ladder):
    fam = gabor_ladder["family"]
    domain = np.asarray(gabor_ladder["domain"])
    lines = []
    for step in gabor_ladder["trajectory"]:
        cell = 0.9 / 2 ** step.level
        res = [max(1, round((hi - lo) / cell)) * 2 for lo, hi in domain]
        grid = default_index_grid(fam, bounds=domain.tolist(), resolution=res)
        cov = build_covering(grid, cell)
        pu = build_pu(cov)
        op = build_uphi(fam, pu, LADDER_CUT)
        bound = step.report.delta_est * (step.report.r_norm + step.report.sigma)
        assert op.defect <= bound + 1e-6, f"level {step.level}"
        lines.append(f"L{step.level}:{op.defect:.3f}<={bound:.3f}")
    report(5, " ".join(lines))


@pytest.fixture(scope="module")
def passing_pipeline(gabor_ladder):
    """Operators and battery at the first passing level."""
    fam = gabor_ladder["family"]
    cov = gabor_ladder["covering"]
    grid = cov.grid
    pu = build_pu(cov)
    op = build_uphi(fam, pu, LADDER_CUT)
    battery = make_battery(fam, grid, 10, seed=2024)
    return fam, grid, cov, pu, op, battery


def test_criterion_06_atomic_round_trip(passing_pipeline, reference_neumann):
    """The atomic residual f - Psi_X lam(f) stays within 1e-3 of ||f||.  The
    whole of it lies outside the kept span of S at the stable cut: its
    projection onto that span is exact to rounding
    (`test_kept_span_is_reconstructed_exactly`)."""
    fam, grid, cov, pu, op, battery = passing_pipeline
    worst = 0.0
    for f in battery:
        lam, rep = atomic_coefficients(f, op)
        worst = max(worst, rep.relative_error)
    assert worst <= 1e-3

    f = battery[0]
    wf = analyze_W(fam, f, grid, rel_cut=op.rel_cut).values
    u1, u2 = reference_neumann(op, wf), op.solve(wf)
    w = grid.weights
    rel = np.sqrt(np.sum(w * np.abs(u1 - u2) ** 2) / np.sum(w * np.abs(u1) ** 2))
    assert rel <= 1e-8
    report(6, f"max atomic residual {worst:.2e}; neumann-vs-solve {rel:.2e}")


@pytest.mark.parametrize("seed", [2024, 37])
def test_kept_span_is_reconstructed_exactly(passing_pipeline, seed):
    # with Q_k the kept eigenvectors of S: the Banach reconstruction of
    # P_k f = Q_k Q_k^H f and the projection Q_k^H (Psi_X lam(f) - f) of
    # the atomic residual are exact, measured at most 7.7e-16 relative.
    # The atomic residual of P_k f itself is not (3.3e-4 and 4.4e-4):
    # Psi_X lam leaves the kept span
    fam, grid, cov, pu, op, _ = passing_pipeline
    eig = fam.calculus(grid).s_eig(op.rel_cut)
    q = eig.eigvecs[:, eig.kept]
    f = np.stack(make_battery(fam, grid, 10, seed=seed), axis=1)
    pf = q @ (q.conj().T @ f)
    samples = fam.calculus(cov.sampled_grid).analyze(pf)
    _, rep = banach_frame_reconstruct(samples, op, f_true=pf)
    assert np.max(rep.relative_error) <= 1e-12
    lam, _ = atomic_coefficients(f, op)
    in_span = np.linalg.norm(q.conj().T @ (op.atoms @ lam - f), axis=0)
    assert np.all(in_span <= 1e-12 * np.linalg.norm(f, axis=0))


def test_criterion_07_banach_reconstruction(passing_pipeline, gabor_ladder):
    fam, grid, cov, pu, op, battery = passing_pipeline
    worst = 0.0
    brackets = []
    for f in battery:
        samples = analyze_V(fam, f, grid).values[op.node_index]
        rec, rep = banach_frame_reconstruct(samples, op, f_true=f)
        worst = max(worst, rep.relative_error)
        brackets.append(rep.norm_ratios["flat_l2_over_f"])
    assert worst <= 1e-3
    bracket_fine = (min(brackets), max(brackets))

    # one level coarser (banach flag holds there) for bracket stability
    fam_l = gabor_ladder["family"]
    domain = np.asarray(gabor_ladder["domain"])
    level = gabor_ladder["trajectory"][-1].level - 1
    cell = 0.9 / 2 ** level
    res = [max(1, round((hi - lo) / cell)) * 2 for lo, hi in domain]
    grid_c = default_index_grid(fam_l, bounds=domain.tolist(), resolution=res)
    cov_c = build_covering(grid_c, cell)
    pu_c = build_pu(cov_c)
    op_c = build_uphi(fam_l, pu_c, LADDER_CUT)
    brackets_c = []
    for f in battery[:5]:
        samples = analyze_V(fam_l, f, grid_c).values[op_c.node_index]
        _, rep = banach_frame_reconstruct(samples, op_c, f_true=f)
        brackets_c.append(rep.norm_ratios["flat_l2_over_f"])
    mid_fine = 0.5 * (bracket_fine[0] + bracket_fine[1])
    mid_coarse = 0.5 * (min(brackets_c) + max(brackets_c))
    assert abs(mid_fine - mid_coarse) <= 0.10 * mid_fine
    report(7, f"max error {worst:.2e}; bracket {bracket_fine[0]:.4f}.."
              f"{bracket_fine[1]:.4f} vs coarser mid {mid_coarse:.4f}")


def test_criterion_08_hilbert_frame_bounds(passing_pipeline, gabor_reference):
    # the sampled system's bounds: the frame bounds on the sampling measure
    fam, grid, cov, pu, op, battery = passing_pipeline
    sampled = frame_bounds_continuous(fam, op.covering.sampled_grid)
    c1, c2 = sampled.c1, sampled.c2
    assert c1 >= 0.5 and c2 <= 2.0

    # single-node-cell limit on the reference configuration reproduces the
    # continuous bounds of criterion 1 within 2e-2
    fam_r, grid_r = gabor_reference
    cont = frame_bounds_continuous(fam_r, grid_r)
    cov_r = build_covering(grid_r, [0.25, 0.5])
    node_limit = frame_bounds_continuous(fam_r, cov_r.sampled_grid)
    c1_r, c2_r = node_limit.c1, node_limit.c2
    assert abs(c1_r - cont.c1) <= 2e-2 and abs(c2_r - cont.c2) <= 2e-2
    report(8, f"passing level [{c1:.3f}, {c2:.3f}]; node limit "
              f"[{c1_r:.4f}, {c2_r:.4f}] vs continuous [{cont.c1:.4f}, {cont.c2:.4f}]")


def test_criterion_09_shannon_sampling_oracle():
    sg = SignalGrid(10.0, 512)
    fam = make_family("sinc_rkhs", {"bandlimit": np.pi / 2}, sg)
    # node spacing 0.2 puts a node exactly at every cell center
    grid = default_index_grid(fam, resolution=[100])
    cov = build_covering(grid, 1.0)                      # samples at spacing 1
    pu = build_pu(cov)
    op = build_uphi(fam, pu, 1e-10)
    x_s = grid.points[op.node_index, 0]
    assert np.allclose(np.diff(np.sort(x_s)), 1.0, atol=1e-12)

    w = sg.fft_freqs()
    keep = np.abs(w) <= np.pi / 2 + 1e-12
    t = sg.points
    gen = np.random.default_rng(99)
    worst_oracle, worst_truth = 0.0, 0.0
    for _ in range(5):
        spec = np.where(keep, gen.standard_normal(sg.n) +
                        1j * gen.standard_normal(sg.n), 0.0)
        f = np.fft.ifft(spec)
        f /= sg.norm(f)
        samples = analyze_V(fam, f, grid).values[op.node_index]
        rec, _ = banach_frame_reconstruct(samples, op, f_true=f)
        # FFT interpolation oracle, independent of the pipeline: the 20
        # unit-spaced samples determine the 11 active frequencies exactly
        order = np.argsort(x_s)
        xs = x_s[order]
        vals = samples[order]
        freqs = w[keep]
        coef = np.exp(-1j * np.outer(freqs, xs)) @ vals / xs.size
        oracle = (np.exp(1j * np.outer(t, freqs)) @ coef)
        worst_oracle = max(worst_oracle, sg.norm(rec - oracle) / sg.norm(oracle))
        worst_truth = max(worst_truth, sg.norm(rec - f) / sg.norm(f))
    assert worst_oracle <= 1e-6
    assert worst_truth <= 1e-6
    report(9, f"vs oracle {worst_oracle:.2e}; vs truth {worst_truth:.2e}; "
              f"defect {op.defect:.2e}")


def test_criterion_10_sequence_space_closed_forms():
    grid = build_quad_grid([[0.0, 4.0]], [128])
    cov = build_covering(grid, 0.5)
    w = WeightOnX(lambda p: 1.0 + 0.25 * np.floor(p[:, 0] / 0.5),
                  descriptor="cellwise")
    gen = np.random.default_rng(11)
    worst = 0.0
    for p in (1, 2, np.inf):
        spec = SeqSpaceSpec(p=p, weight=w, covering=cov, flavor="flat")
        for _ in range(10):
            lam = gen.standard_normal(cov.size)
            worst = max(worst, abs(flat_norm(lam, spec) -
                                   closed_form_norm(lam, spec)))
    assert worst <= 1e-12

    grid2 = build_quad_grid([[0.0, 8.0]], [256])
    cov2 = build_covering(grid2, 0.5, overlap_fraction=0.5)
    spec2 = SeqSpaceSpec(p=2, weight=trivial_weight(), covering=cov2,
                         flavor="natural")
    bound = plus_theoretical_bound(spec2)
    worst_ratio = 0.0
    for _ in range(100):
        lam = gen.standard_normal(cov2.size)
        worst_ratio = max(worst_ratio, plus_bound_ratio(lam, spec2))
    assert worst_ratio <= bound
    report(10, f"closed-form dev {worst:.2e}; plus ratio {worst_ratio:.3f} "
               f"<= bound {bound:.1f}")


def test_criterion_11_localization():
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    m1 = trivial_admissible_weight()

    grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                              resolution=[32, 32])
    cov = build_covering(grid, 0.5)
    pts = grid.points[cov.sample_node_index]
    gram = cross_gramian(fam, fam, pts, pts)
    d = grid.metric(pts, pts)
    amp = np.abs(gram.matrix)
    mask = amp > 1e-10 * amp.max()
    corr = np.corrcoef(-d[mask] ** 2, np.log(amp[mask]))[0, 1]
    assert corr >= 0.99

    norms = []
    for res, cell in ((32, 0.5), (64, 0.25)):
        g2 = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                resolution=[res, res])
        c2 = build_covering(g2, cell)
        p2 = g2.points[c2.sample_node_index]
        rep = a_flat_norm(cross_gramian(fam, fam, p2, p2), c2, m1)
        assert rep.finite
        norms.append(rep.a_flat_norm)
    assert abs(norms[1] - norms[0]) <= 0.05 * norms[0]

    g3 = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                            resolution=[16, 16])
    c3 = build_covering(g3, 2.0)                     # 16 cells
    viol_g = gab_domination_check(fam, fam, c3, rel_cut=0.2)
    fam_s = make_family("sinc_rkhs", {"bandlimit": np.pi / 2}, sg)
    g4 = default_index_grid(fam_s, resolution=[64])
    c4 = build_covering(g4, 1.0)                     # 16 cells
    viol_s = gab_domination_check(fam_s, fam_s, c4)
    assert viol_g <= 1e-10 and viol_s <= 1e-10
    report(11, f"corr {corr:.4f}; a_flat {norms[0]:.4f}->{norms[1]:.4f}; "
               f"domination gabor {viol_g:.1e} sinc {viol_s:.1e}")


def test_criterion_12_alpha_modulation():
    sg = SignalGrid(10.0, 512)
    g = gaussian_window(sg.points)
    xi = np.linspace(-20.0, 20.0, 161)
    out = {}
    for alpha in (0.0, 0.5):
        smin, smax, a_const = alpha_admissibility(g, alpha, xi, sg)
        assert smin > 0
        out[alpha] = (smin, smax, a_const)
    variation = (out[0.0][1] - out[0.0][0]) / out[0.0][0]
    assert variation <= 1e-3
    report(12, f"alpha=0 variation {variation:.2e}; "
               f"alpha=0.5 sigma in [{out[0.5][0]:.3f}, {out[0.5][1]:.3f}], "
               f"A={out[0.5][2]:.3f}")


def test_criterion_13_determinism(tmp_path):
    from coorbit.cli import run
    cfg = {
        "family": {"tag": "gabor", "params": {}},
        "signal_grid": {"T": 8.0, "n": 64},
        "index_domain": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                         "resolution": [32, 32]},
        "weight": {"type": "trivial"},
        "covering": {"cell_size": 0.5},
        "tasks": ["frame-info", "discretize", "norms"],
        "seed": 31,
        "stable_cut": 0.2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
    blobs = []
    for threads, name in ((1, "a"), (2, "b")):
        out = tmp_path / name
        assert run(str(path), out_dir=str(out), threads=threads) == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    report(13, f"bit-identical report.json ({len(blobs[0])} bytes) across "
               f"thread counts")
