"""Crossed Gramians, the discrete matrix algebra and localization profiles.

The sampled cross-Gramian of two frames lives in a matrix algebra indexed by
the covering; its weighted row/column-sum norm is the discrete counterpart
of the kernel-algebra norm, and off-diagonal decay profiles measure how
localized the sampled systems are.  The domination check reproduces, by
brute force on a small instance, the blockwise-constant kernel bound that
transfers localization from the continuous to the sampled frames.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering
from .frame_families import FrameCalculus, FrameFamily, _interior_mask, \
    gram_kernel
from .measure_space import AdmissibleWeight, QuadGrid


class LocalizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# crossed Gramians
# ---------------------------------------------------------------------------
@dataclass
class CrossGramian:
    """Lambda[i, j] = <psi^G at y_j, psi^F at x_i> on a shared signal grid."""

    matrix: np.ndarray
    points_f: np.ndarray
    points_g: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape


def cross_gramian(frame_f: FrameFamily, frame_g: FrameFamily,
                  points_f: np.ndarray, points_g: np.ndarray) -> CrossGramian:
    if frame_f.signal_grid != frame_g.signal_grid:
        raise LocalizationError("frames must share one signal grid")
    points_f = np.atleast_2d(points_f)
    points_g = np.atleast_2d(points_g)
    h = frame_f.signal_grid.h
    a_f = frame_f.atoms(points_f)
    a_g = frame_g.atoms(points_g)
    return CrossGramian(matrix=h * (a_f.conj().T @ a_g),
                        points_f=points_f, points_g=points_g)


# ---------------------------------------------------------------------------
# discrete algebra norm and decay profiles
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DiscreteAlgebraReport:
    a_flat_norm: float
    row_sup: float
    col_sup: float
    decay_bucket_edges: np.ndarray
    decay_bucket_max: np.ndarray
    decay_bucket_mass: np.ndarray      # measure-weighted |Lambda| per bucket
    finite: bool

    def as_dict(self):
        return {
            "a_flat_norm": self.a_flat_norm,
            "row_sup": self.row_sup,
            "col_sup": self.col_sup,
            "decay_bucket_edges": self.decay_bucket_edges.tolist(),
            "decay_bucket_max": self.decay_bucket_max.tolist(),
            "decay_bucket_mass": self.decay_bucket_mass.tolist(),
            "finite": self.finite,
        }


BUCKETS = 16                 # logarithmic distance buckets of a decay profile


def decay_profile(values: np.ndarray, dists: np.ndarray):
    """Max modulus per logarithmic distance bucket."""
    pos = dists > 0
    if not pos.any():
        return np.array([0.0, 1.0]), np.array([float(np.abs(values).max())])
    d_min = max(float(dists[pos].min()), 1e-9)
    d_max = float(dists.max())
    edges = np.geomspace(d_min, d_max * (1 + 1e-12), BUCKETS + 1)
    which = np.clip(np.searchsorted(edges, dists, side="right") - 1, 0, BUCKETS - 1)
    out = np.zeros(BUCKETS)
    amp = np.abs(values)
    for b in range(BUCKETS):
        mask = pos & (which == b)
        if mask.any():
            out[b] = float(amp[mask].max())
    return edges, out


def a_flat_norm(gram: CrossGramian, cov: Covering,
                m: AdmissibleWeight) -> DiscreteAlgebraReport:
    """max of the m-weighted, measure-weighted row and column sums.

    Row/column weights are the cell measures a_i; the decay profile buckets
    max |Lambda_ij| by the covering metric distance of the sample points.
    """
    lam = np.abs(gram.matrix)
    if lam.shape != (cov.size, cov.size):
        raise LocalizationError("cross-Gramian shape does not match the covering")
    mb = m(gram.points_f, gram.points_g)
    a = cov.measures
    weighted = lam * mb
    row = float(np.max(weighted @ a))          # sup_i sum_j |lam| m a_j
    col = float(np.max(a @ weighted))          # sup_j sum_i |lam| m a_i
    dists = cov.grid.metric(gram.points_f, gram.points_g)
    edges, prof = decay_profile(lam, dists)
    which = np.clip(np.searchsorted(edges, dists, side="right") - 1, 0,
                    len(prof) - 1)
    mass_matrix = lam * a[:, None] * a[None, :]
    mass = np.array([float(mass_matrix[which == b].sum())
                     for b in range(len(prof))])
    norm = max(row, col)
    return DiscreteAlgebraReport(
        a_flat_norm=norm, row_sup=row, col_sup=col,
        decay_bucket_edges=edges, decay_bucket_max=prof,
        decay_bucket_mass=mass,
        finite=bool(np.isfinite(norm)))


# ---------------------------------------------------------------------------
# blockwise domination of the sampled Gramian
# ---------------------------------------------------------------------------
def gab_domination_check(frame_f: FrameFamily, frame_g: FrameFamily,
                         cov: Covering, z_per_cell: int = 4, seed: int = 0,
                         rel_cut: float = 1e-10) -> float:
    """Brute-force check of the blockwise-constant domination bound.

    Left side: the cellwise-constant extension of |G(F,G)(x_i, y_j)|.
    Right side: H^G o |G| o (H^F)* with (H^G)* = T_G o L, (H^F)* = T_F o L,
    T = osc_U + |R| and L the overlap-normalized covering kernel.
    Returns max(left - right, 0) over all node pairs of the covering's grid.
    """
    from .oscillation import osc_matrix

    if cov.size > 64:
        raise LocalizationError("domination check is brute-force; use <= 64 cells")
    grid = cov.grid
    pts = grid.points
    M = grid.size
    w = grid.weights

    samples = pts[cov.sample_node_index]
    gram = cross_gramian(frame_f, frame_g, samples, samples)

    # membership matrix C[i, node] and the covering kernel L = C^T diag(1/a) C
    C = np.zeros((cov.size, M))
    C[cov.members.owner, cov.members.flat] = 1.0
    left = C.T @ np.abs(gram.matrix) @ C

    kern_f = gram_kernel(frame_f, grid, rel_cut=rel_cut)
    kern_g = gram_kernel(frame_g, grid, rel_cut=rel_cut)
    osc_f = osc_matrix(kern_f, cov, z_per_cell=z_per_cell, seed=seed)
    osc_g = osc_matrix(kern_g, cov, z_per_cell=z_per_cell, seed=seed)
    t_f = np.abs(kern_f.matrix(grid)) + osc_f
    t_g = np.abs(kern_g.matrix(grid)) + osc_g

    L = C.T @ (C / cov.measures[:, None])
    # compositions with quadrature weights folded in
    h_f_star = (t_f * w[None, :]) @ L            # T_F o L
    h_g_star = (t_g * w[None, :]) @ L
    big_g = np.abs(cross_gramian(frame_f, frame_g, pts, pts).matrix)
    right = (h_g_star.T * w[None, :]) @ big_g
    right = (right * w[None, :]) @ h_f_star
    return float(max(np.max(left - right), 0.0))


# ---------------------------------------------------------------------------
# empirical pseudo-inverse decay
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PseudoInverseReport:
    rank: int
    projection_defect: float        # || A^+ o A - A o A^+ ||_sup
    idempotent_defect: float        # || (A^+ o A) o (A^+ o A) - A^+ o A ||_sup
    dual_gramian_defect: float      # || G(S^+F, S^+F) - A^+ o R ||_sup
    interior_agreement: float       # sup |A - A^+| on interior pairs
    decay_edges_a: np.ndarray
    decay_a: np.ndarray
    decay_edges_pinv: np.ndarray
    decay_pinv: np.ndarray
    label: str = ("empirical (finite truncation; no algebra membership claimed); "
                  "decay profiles taken on the interior block, where the "
                  "truncation's boundary modes do not mask the kernel decay")


# entries of one row block of an (M, M) defect
_BLOCK_ENTRIES = 1 << 18


def _pinv_factor(calc: FrameCalculus, rank_tol: float) -> np.ndarray:
    """D = Lambda_k^-1 Q_k^H Psi of shape (r, M), from the eigenpairs of S
    that `FrameCalculus.s_eig` keeps at `rank_tol`: A^+ = h D^H D."""
    eig = calc.s_eig(rank_tol)
    return calc.half_factor(rank_tol) / np.sqrt(eig.eigvals[eig.kept])[:, None]


def _sup_of_products(pairs) -> float:
    """max |sum_k L_k^H R_k| over all entries of the (M, M) sum, formed in
    row blocks of at most `_BLOCK_ENTRIES` entries."""
    m = pairs[0][0].shape[1]
    step = max(1, _BLOCK_ENTRIES // m)
    sup = 0.0
    for s in range(0, m, step):
        blk = sum(left[:, s:s + step].conj().T @ right for left, right in pairs)
        sup = max(sup, float(np.max(np.abs(blk))))
    return sup


def empirical_pseudoinverse(family: FrameFamily, grid: QuadGrid,
                            rank_tol: float = 1e-10) -> PseudoInverseReport:
    """Spectral pseudo-inverse of the self-Gramian with decay profiles.

    The kernel A(x,y) = <psi_y, psi_x> is treated as an operator on L2(mu)
    through the quadrature weights W.  The nonzero eigenvalues of
    W^1/2 A W^1/2 = h W^1/2 Psi^H Psi W^1/2 are those of the frame operator
    S = h Psi W Psi^H, so with the eigenpairs (Q_k, Lambda_k) of S kept at
    the relative cut `rank_tol`, A^+ = h D^H D for D = Lambda_k^-1 Q_k^H Psi
    (`_pinv_factor`).  Every defect is a composition of D, Psi and W through
    thin (r, n) and (r, r) products, never its algebraic value, so it still
    measures the consistency of S with the atoms; each (M, M) sup is taken
    in row blocks.  A non-finite cut raises LocalizationError; a cut that
    keeps no eigenvalue raises `psd_factorize`'s SolverError.
    """
    if not np.isfinite(rank_tol):
        raise LocalizationError("rank_tol must be finite")
    h = family.signal_grid.h
    w = grid.weights
    calc = family.calculus(grid)
    eig = calc.s_eig(rank_tol)
    psi = calc.atom_matrix
    c = calc.half_factor(rank_tol)                # R = h C^H C
    d = _pinv_factor(calc, rank_tol)
    q = eig.eigvecs[:, eig.kept]
    # A^+ o A = h D^H E, E = (h D W Psi^H) Psi; A o A^+ is its adjoint
    e = (h * ((d * w) @ psi.conj().T)) @ psi
    proj_defect = h * _sup_of_products([(d, e), (e, -d)])
    # (A^+ o A) o (A^+ o A) = h D^H K E, K = h E W D^H
    k = h * ((e * w) @ d.conj().T)
    idem_defect = h * _sup_of_products([(d, k @ e - e)])
    # G(S^+F, S^+F) = h D^H (Q_k^H Q_k) D and A^+ o R = h D^H (h D W C^H) C
    g = (q.conj().T @ q) @ d - (h * ((d * w) @ c.conj().T)) @ c
    dual_defect = h * _sup_of_products([(d, g)])

    pts = grid.points
    inner = _interior_mask(family, grid, pts)
    dist = grid.metric(pts[inner], pts[inner])
    a_in = h * (psi[:, inner].conj().T @ psi[:, inner])
    p_in = h * (d[:, inner].conj().T @ d[:, inner])
    e_a, p_a = decay_profile(a_in, dist)
    e_p, p_p = decay_profile(p_in, dist)
    return PseudoInverseReport(
        rank=eig.rank, projection_defect=proj_defect,
        idempotent_defect=idem_defect, dual_gramian_defect=dual_defect,
        interior_agreement=float(np.max(np.abs(a_in - p_in))),
        decay_edges_a=e_a, decay_a=p_a, decay_edges_pinv=e_p, decay_pinv=p_p)
