"""Shared fixtures: small deterministic grids and families.

Heavy objects (reference Gabor configuration, refinement ladder) are
session-scoped so the acceptance tests and module tests share one build.
"""
import numpy as np
import pytest

from coorbit.measure_space import SignalGrid, build_quad_grid, \
    trivial_admissible_weight
from coorbit.frame_families import default_index_grid, make_family


def wavelet_admissibility_fft(psi: np.ndarray, sg: SignalGrid) -> float:
    """Admissibility int_0^inf |psihat(u)|^2 du/u from wavelet samples: FFT
    spectrum, log-integrated.

    Independent of the analytic profiles, so it audits the built-ins.
    Zero-padding 8 times refines the frequency sampling of the
    time-localized wavelet.
    """
    n_pad = 8 * sg.n
    w = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=sg.h)
    spec = sg.h * np.fft.fft(psi, n=n_pad)         # |psihat| is phase-free
    pos = w > 0
    order = np.argsort(w[pos])
    wp = w[pos][order]
    p = np.abs(spec[pos][order]) ** 2
    return float(np.trapezoid(p / wp, wp))


def cell_z_samples_loop(cells: np.ndarray, z_per_cell: int, seed: int) -> np.ndarray:
    """The per-cell z-stream loop `oscillation._cell_z_samples` replays:
    one `PCG64([seed, i])` generator per cell i of the (cells, d, 2) box
    array, its first z_per_cell x d doubles mapped onto the box."""
    out = np.empty((cells.shape[0], z_per_cell, cells.shape[1]))
    for i in range(cells.shape[0]):
        rng = np.random.default_rng(np.random.PCG64([seed, i]))
        u = rng.random(out.shape[1:])
        lo = cells[i, :, 0]
        hi = cells[i, :, 1]
        out[i] = lo + u * (hi - lo)
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(np.random.PCG64(1234))


@pytest.fixture(scope="session")
def unit_grid_1d():
    """Lebesgue midpoint grid on [0, 1] with 64 nodes."""
    return build_quad_grid([[0.0, 1.0]], [64])


@pytest.fixture(scope="session")
def wide_grid_1d():
    """Lebesgue grid on [-8, 8], fine enough for Gaussian-kernel oracles."""
    return build_quad_grid([[-8.0, 8.0]], [320])


@pytest.fixture(scope="session")
def m_trivial():
    return trivial_admissible_weight()


@pytest.fixture(scope="session", params=["overlap", "banded"])
def uneven_covering(request):
    """(case, covering): overlapping coverings whose cells hold unequal node
    counts, 25-36 per cell on a Gabor box at overlap 0.25 (nodes in up to 4
    cells) and 3-16 per cell on a banded wavelet grid with low-pass sheet
    cells (nodes in up to 2 cells)."""
    from coorbit.coverings import build_covering
    if request.param == "overlap":
        fam = make_family("gabor", {}, SignalGrid(8.0, 64))
        grid = default_index_grid(fam, bounds=[[-4.0, 4.0], [-4.0, 4.0]],
                                  resolution=[36, 36])
        return request.param, build_covering(grid, 0.9, 0.25)
    fam = make_family("inhom_wavelet", None, SignalGrid(16.0, 128))
    grid = default_index_grid(fam, band_spacing=0.9, scales_per_octave=6)
    return request.param, build_covering(grid, [0.5, 2.0], 0.25)


@pytest.fixture(scope="session")
def gabor_small():
    """Small Gabor configuration used across module tests."""
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam, bounds=[[-5.0, 5.0], [-5.0, 5.0]],
                              resolution=[56, 56])
    return fam, grid


@pytest.fixture(scope="session")
def gabor_reference():
    """The reference configuration: T=10, n=512, box [-8,8]x[-16,16] @ 64x64."""
    sg = SignalGrid(10.0, 512)
    fam = make_family("gabor", None, sg)
    grid = default_index_grid(fam)
    return fam, grid


@pytest.fixture(scope="session")
def cwt_reference():
    sg = SignalGrid(16.0, 512)
    fam = make_family("cwt", None, sg)
    grid = default_index_grid(fam)
    return fam, grid


@pytest.fixture(scope="session")
def sinc_reference():
    sg = SignalGrid(10.0, 512)
    fam = make_family("sinc_rkhs", {"bandlimit": np.pi / 2}, sg)
    grid = default_index_grid(fam)
    return fam, grid


@pytest.fixture(scope="session")
def gabor_ladder():
    """Dyadic refinement of the small Gabor box down to the full flag.

    Used by the oscillation, discretization and acceptance tests; runs once.
    """
    from coorbit.oscillation import refine_until
    sg = SignalGrid(8.0, 64)
    fam = make_family("gabor", None, sg)
    domain = [[-4.0, 4.0], [-4.0, 4.0]]
    cov, rep, traj = refine_until(fam, domain, trivial_admissible_weight(),
                                  target="full", max_levels=8,
                                  initial_cell=0.9, z_per_cell=3,
                                  seed=0, rel_cut=0.2)
    return {"family": fam, "domain": domain, "covering": cov, "report": rep,
            "trajectory": traj, "rel_cut": 0.2, "signal_grid": sg}


@pytest.fixture(scope="session")
def reference_am_norm():
    """The plain row-block am_norm loop: every row block against every
    column through `Kernel.block`, row and column sums of |K| m kept apart.
    Returns {"row_sup", "col_sup", "a1_norm", "am_norm"}."""
    def ref(kern, m, grid, row_block=256):
        pts, w = grid.points, grid.weights
        rows_m, rows_1 = [], []
        col_m, col_1 = np.zeros(grid.size), np.zeros(grid.size)
        for start in range(0, grid.size, row_block):
            rows = slice(start, start + row_block)
            amp = np.abs(kern.block(pts[rows], pts))
            amp_m = amp * m(pts[rows], pts)
            rows_1.append(amp @ w)
            rows_m.append(amp_m @ w)
            col_1 += w[rows] @ amp
            col_m += w[rows] @ amp_m
        row_sup = float(np.concatenate(rows_m).max())
        return {"row_sup": row_sup, "col_sup": float(col_m.max()),
                "a1_norm": max(float(np.concatenate(rows_1).max()),
                               float(col_1.max())),
                "am_norm": max(row_sup, float(col_m.max()))}
    return ref


@pytest.fixture(scope="session")
def reference_osc_matrix():
    """The pointwise oscillation loop the engine used before it streamed
    nodes: per column y, the cells that hold y by `q_set`, one `R.block`
    call for their z-samples and the sup of the (phase-aligned) difference
    against R(., y) from one whole-grid `R.block`.  A node outside every
    cell has an empty Q_y and a zero column."""
    from coorbit.coverings import CoveringError, q_set
    from coorbit.oscillation import _cell_z_samples

    def ref(R, cov, grid, z_per_cell=4, comparison="strict", seed=0):
        z_sets = _cell_z_samples(cov, z_per_cell, seed)
        pts = grid.points
        r_y = R.block(pts, pts)
        out = np.zeros((grid.size, grid.size))
        for j in range(grid.size):
            try:
                cells = q_set(cov, pts[j])
            except CoveringError:
                continue
            a = r_y[:, j:j + 1]
            b = R.block(pts, np.concatenate([z_sets[i] for i in cells]))
            if comparison == "phase_aligned":
                a, b = np.abs(a), np.abs(b)
            out[:, j] = np.abs(a - b).max(axis=1)
        return out
    return ref


@pytest.fixture(scope="session")
def reference_defect_power_iteration():
    """The power-iteration estimate of ||P (Id - U_Phi) P|| on L2(mu) that
    the engine used before the exact U_Phi spectrum: 40 steps on T* T,
    T = P (Id - U_Phi) P, from a seeded complex start vector, with the
    adjoint of U_Phi in the mu-weighted inner product.  A Rayleigh quotient,
    hence a lower bound of the true norm."""
    def ref(op, iters=40, seed=17):
        h = op.calc.family.signal_grid.h
        w = op.grid.weights
        P = op.project

        def adjoint(G):
            y = h * (op._c_nodes.conj().T @ op.calc.half_synthesize(G, op.rel_cut))
            out = np.zeros_like(G)
            out[op.node_index] = op.masses / w[op.node_index] * y
            return out

        def normal(F):
            G = P(F)
            G = P(P(G - op.apply(G)))
            return P(G - adjoint(G))

        rng = np.random.default_rng(np.random.PCG64(seed))
        v = rng.standard_normal(op.grid.size) + 1j * rng.standard_normal(op.grid.size)
        v = v / np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            x = normal(v)
            nx = float(np.sqrt(np.sum(w * np.abs(x) ** 2).real))
            if nx == 0.0:
                return 0.0
            lam = float(np.sum(w * x * np.conj(v)).real)
            v = x / nx
        return float(np.sqrt(max(lam, 0.0)))
    return ref


@pytest.fixture(scope="session")
def reference_neumann():
    """U_Phi^{-1} P F by the Neumann series sum_k (P (Id - U_Phi))^k P F, the
    paper's inversion.  The series stops when the mu-norm of a term falls
    below tol * (1 - defect) * ||P F||_mu (geometric tail bound)."""
    def ref(op, F, tol=1e-12, max_iter=10000):
        w = op.grid.weights

        def mu_norm(G):
            return float(np.sqrt(np.sum((np.abs(G) ** 2).T * w)))

        F = op.project(F)
        thresh = tol * (1.0 - op.defect) * mu_norm(F)
        x, term = F.copy(), F.copy()
        for _ in range(max_iter):
            term = op.project(term - op.apply(term))
            x = x + term
            if mu_norm(term) <= thresh:
                return x
        raise AssertionError(f"Neumann series did not converge in {max_iter} terms")
    return ref


@pytest.fixture(scope="session")
def reference_pseudoinverse():
    """The dense route of `empirical_pseudoinverse` before it moved onto the
    spectrum of S: eigh of the weighted (M, M) self-Gramian
    W^1/2 A W^1/2, its pseudo-inverse A^+ and the defects as (M, M)
    compositions.  Returns the report fields plus "pinv" (A^+)."""
    from coorbit.frame_families import _interior_mask, gram_kernel
    from coorbit.localization import decay_profile

    def ref(family, grid, rank_tol):
        h = family.signal_grid.h
        atoms = family.atoms(grid.points)
        A = h * (atoms.conj().T @ atoms)
        w = grid.weights
        sq = np.sqrt(w)
        sym = sq[:, None] * A * sq[None, :]
        lam, q = np.linalg.eigh(0.5 * (sym + sym.conj().T))
        keep = lam > rank_tol * max(lam.max(), 0)
        qk = q[:, keep]
        A_pinv = ((qk / lam[keep][None, :]) @ qk.conj().T) / sq[:, None] / sq[None, :]

        def comp(K1, K2):
            return (K1 * w[None, :]) @ K2

        pa = comp(A_pinv, A)
        duals = family.calculus(grid).s_pinv(atoms, rank_tol)
        R = gram_kernel(family, grid, rel_cut=rank_tol).matrix(grid)
        pts = grid.points
        inner = _interior_mask(family, grid, pts)
        ii = np.ix_(inner, inner)
        d = grid.metric(pts[inner], pts[inner])
        e_a, p_a = decay_profile(A[ii], d)
        e_p, p_p = decay_profile(A_pinv[ii], d)
        return {
            "pinv": A_pinv, "rank": int(keep.sum()),
            "projection_defect": float(np.max(np.abs(pa - comp(A, A_pinv)))),
            "idempotent_defect": float(np.max(np.abs(comp(pa, pa) - pa))),
            "dual_gramian_defect": float(np.max(np.abs(
                h * (duals.conj().T @ duals) - comp(A_pinv, R)))),
            "interior_agreement": float(np.max(np.abs(A[ii] - A_pinv[ii]))),
            "decay_edges_a": e_a, "decay_a": p_a,
            "decay_edges_pinv": e_p, "decay_pinv": p_p}
    return ref
