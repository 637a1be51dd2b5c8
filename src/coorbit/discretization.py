"""Sampling the continuous frame and reconstructing from the samples.

Sample points snap to quadrature nodes inside their cells (the theorems
allow any point of the cell), which keeps every operator exact on the grid:
fields are sampled by indexing, and U_Phi factorizes through the Gramian's
half factor C (R = h * C^H C, see `FrameCalculus`), so applications cost
O(M r), r the rank of the frame-operator cut, without ever materializing an
M x M matrix.  B = sqrt(h) C^H is a mu-orthonormal basis of ran R, and in
that basis U_Phi is the Hermitian r x r matrix K = h C_X diag(c) C_X^H
(C_X the columns at the sample nodes, c the masses).  Its eigenvalues give
the defect ||P (Id - U_Phi) P|| = max |1 - kappa| exactly, and its inverse
gives U_Phi^{-1} on ran R, so no iteration is needed.  One U_Phi
(`build_uphi`) serves the atomic decomposition, the dual atoms and the
Banach-frame reconstruction.  Their signal-space ends run through the
half factor too, with the half map H = Lambda_k^(-1/2) Q_k^H of S
(`FrameCalculus.half_map`, C = H Psi): W f = V S^+ f = h C^H (H f)
(`FrameCalculus.analyze_dual`, at U_Phi's cut), and the dual syntheses
S^+ Psi (w u) = H^H C (w u) (`FrameCalculus.dual_synthesize`).  The
sampled atoms are synthesized at the sample nodes alone
(`UPhiOperator.atoms`), so for separable (Gabor) atoms on a tensor grid,
whose S and C need no atom matrix either (`FrameCalculus`), no step forms
the grid's n x M atom matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._linalg import PROBE_GRAM_CUT, hermitian_gram, \
    restricted_rayleigh_bounds
from .coverings import Covering, PartitionOfUnity
from .frame_families import FrameCalculus, _interior_probes
from .kernel_algebra import Kernel
from .measure_space import QuadGrid, trivial_weight
from .sequence_spaces import SeqSpaceSpec, flat_norm, natural_norm


class DiscretizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the discretized reproducing operator
# ---------------------------------------------------------------------------
@dataclass
class UPhiOperator:
    """U_Phi F = sum_i c_i F(x_i) R(., x_i) on the index grid.

    Factorized through the Gramian's half factor, R = h * C^H C: column
    R(., x_i) is h * C^H C_{x_i}, so one application costs two thin matrix
    products of inner dimension r, the rank of the frame-operator cut.  On
    ran R it is the r x r matrix K of the module docstring, whose
    eigendecomposition gives the exact `defect` and `solve`.
    """

    calc: FrameCalculus
    covering: Covering
    node_index: np.ndarray
    masses: np.ndarray
    rel_cut: float = 1e-10
    # builds the Gramian factors, K and S_d; never changes a value
    threads: int = 1

    @property
    def grid(self) -> QuadGrid:
        return self.calc.grid

    @cached_property
    def _c_nodes(self) -> np.ndarray:
        """Half-factor columns C_{x_i} at the sample nodes, shape (r, N)."""
        return self.calc.half_factor(self.rel_cut, self.threads)[:, self.node_index]

    @cached_property
    def atoms(self) -> np.ndarray:
        """Sampled atoms psi_{x_i} on the signal grid, shape (n, N), C-ordered
        (`FrameCalculus.node_atoms`): the columns of the grid's atom matrix
        at the sample nodes when it is formed, otherwise synthesized at the
        sample nodes alone on `threads`, with the same bytes.  The grid's
        atom matrix is not formed for them.  C order is the layout of a
        synthesized atom block; an indexed column slice of the C-ordered
        atom matrix comes out F-ordered, and BLAS rounds the block and
        one-signal products on the two layouts differently."""
        return self.calc.node_atoms(self.node_index, self.threads)

    def from_samples(self, samp: np.ndarray) -> np.ndarray:
        """sum_i c_i samp_i R(., x_i) for values samp_i at the sample nodes."""
        h = self.calc.family.signal_grid.h
        pot = self._c_nodes @ (self.masses * samp.T).T if samp.ndim > 1 else \
            self._c_nodes @ (self.masses * samp)
        return h * self.calc.half_adjoint(pot, self.rel_cut)

    def apply(self, F: np.ndarray) -> np.ndarray:
        return self.from_samples(F[self.node_index])

    def project(self, F: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto ran V, realized as the Gramian action
        h C^H C (w F)."""
        h = self.calc.family.signal_grid.h
        return h * self.calc.half_adjoint(
            self.calc.half_synthesize(F, self.rel_cut), self.rel_cut)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of K = h C_X diag(c) C_X^H (`hermitian_gram`): U_Phi on
        ran R in the mu-orthonormal basis sqrt(h) C^H, ascending
        eigenvalues kappa."""
        h = self.calc.family.signal_grid.h
        return np.linalg.eigh(hermitian_gram(self._c_nodes, self.masses, h,
                                             self.threads))

    @cached_property
    def defect(self) -> float:
        """||P (Id - U_Phi) P|| on L2(mu), exactly: max |1 - kappa|.

        Theorem-level consistency is the inequality
        defect <= delta_est (||R|| + sigma).
        """
        return float(np.max(np.abs(1.0 - self._spectrum[0])))

    def solve(self, F: np.ndarray) -> np.ndarray:
        """U_Phi^{-1} P F on ran R, for one field or a block of columns.

        In the basis B = sqrt(h) C^H the coordinates of P F are
        sqrt(h) C (w F), so U_Phi^{-1} P F = h C^H K^{-1} C (w F).  The paper
        inverts U_Phi by its Neumann series, which converges when the defect
        is below 1; a defect >= 1 is refused.
        """
        if self.defect >= 1.0:
            raise DiscretizationError(
                f"U_Phi inversion refused: defect {self.defect:.3f} >= 1")
        kappa, v = self._spectrum
        a = v.conj().T @ self.calc.half_synthesize(F, self.rel_cut)
        a = (a.T / kappa).T
        return self.calc.family.signal_grid.h * \
            self.calc.half_adjoint(v @ a, self.rel_cut)


def build_uphi(R: Kernel, cov: Covering, pu: PartitionOfUnity,
               grid: QuadGrid, threads: int = 1) -> UPhiOperator:
    """Operator closure over the Gramian's analysis factor.

    R must come from gram_kernel (it carries the frame calculus needed to
    realize the columns); a plain kernel has no column support.  `threads`
    builds the Gramian factors and the operator's `hermitian_gram` products.
    """
    ctx = getattr(R, "context", None)
    if not ctx or "calc" not in ctx:
        raise DiscretizationError(
            "build_uphi requires a Gramian kernel from gram_kernel() "
            "(missing R column support for sample points)")
    calc: FrameCalculus = ctx["calc"]
    if calc.grid is not grid:
        raise DiscretizationError("kernel grid does not match the given grid")
    return UPhiOperator(calc=calc, covering=cov,
                        node_index=cov.sample_node_index.copy(),
                        masses=np.asarray(pu.masses, dtype=float),
                        rel_cut=ctx.get("rel_cut", 1e-10), threads=threads)


# ---------------------------------------------------------------------------
# reconstruction pipelines
# ---------------------------------------------------------------------------
@dataclass
class ReconstructionReport:
    """Errors and norm ratios are floats for one signal and arrays with one
    entry per column for a block of signals."""

    relative_error: float | np.ndarray
    defect_estimate: float
    norm_ratios: dict = field(default_factory=dict)


def _columns(a: np.ndarray) -> list:
    """The one signal of an (n,) array, or the columns of an (n, B) block."""
    return [a] if a.ndim == 1 else list(a.T)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _per_signal(vals: list, block: bool):
    """A float for one signal, an array over the columns of a block."""
    return np.array(vals, dtype=float) if block else float(vals[0])


def atomic_coefficients(f: np.ndarray, op: UPhiOperator):
    """Coefficients lam_i(f) = c_i (U_Phi^{-1} W f)(x_i) and the synthesis
    residual of f = sum lam_i psi_{x_i}.

    `f` is one signal (n,) or a block of signals (n, B), decomposed by one
    pass of block products; lam then has one column per signal.  `op` is
    the covering's U_Phi (`build_uphi`), built once and shared by every
    signal.  Returns (lam, ReconstructionReport); the report logs
    `op.defect` and, per signal, the relative error and the natural-norm
    ratios ||lam|Y-natural|| / ||f|| for Y = L^2 and L^1_v, v the trivial
    weight.
    """
    f = np.asarray(f, dtype=complex)
    wf = op.calc.analyze_dual(f, op.rel_cut)
    lam = (op.masses * op.solve(wf)[op.node_index].T).T
    synth = op.atoms @ lam
    sg = op.calc.family.signal_grid
    specs = {name: SeqSpaceSpec(p=p, weight=trivial_weight(), covering=op.covering,
                                flavor="natural")
             for name, p in (("natural_l2", 2), ("natural_l1_v", 1))}
    rel, ratios = [], {name: [] for name in specs}
    for fc, sc, lc in zip(_columns(f), _columns(synth), _columns(lam)):
        f_norm = sg.norm(fc)
        rel.append(_ratio(sg.norm(sc - fc), f_norm))
        for name, spec in specs.items():
            ratios[name].append(_ratio(natural_norm(np.abs(lc), spec), f_norm))
    block = f.ndim > 1
    report = ReconstructionReport(
        relative_error=_per_signal(rel, block), defect_estimate=op.defect,
        norm_ratios={k: _per_signal(v, block) for k, v in ratios.items()})
    return lam, report


DUAL_CAP = 512               # dual atoms computed when no indices are given


def dual_frame(op: UPhiOperator, indices: Optional[np.ndarray] = None) -> np.ndarray:
    """Discrete dual atoms e_i with <f, e_i> = lam_i(f).

    e_i = W*(c_i U_Phi^{-1} W psi_{x_i}), from the covering's U_Phi;
    computed for `indices` (default: all cells when the count is within
    `DUAL_CAP`, otherwise an evenly spaced subset).  Returns the atoms as
    columns on the signal grid.
    """
    n_cells = op.covering.size
    if indices is None:
        if n_cells <= DUAL_CAP:
            indices = np.arange(n_cells)
        else:
            indices = np.linspace(0, n_cells - 1, DUAL_CAP).astype(int)
    indices = np.asarray(indices, dtype=int)
    h = op.calc.family.signal_grid.h
    # W psi_{x_i} = R(., x_i) = h * C^H C_{x_i}
    cols = h * op.calc.half_adjoint(op._c_nodes[:, indices], op.rel_cut)
    e_fields = op.masses[indices] * op.solve(cols)
    return op.calc.dual_synthesize(e_fields, op.rel_cut)


def banach_frame_reconstruct(samples: np.ndarray, op: UPhiOperator,
                             f_true: Optional[np.ndarray] = None):
    """Recover f from its frame samples (V f(x_i))_i.

    `samples` is one sample vector (N,) or a block (N, B), one column per
    signal (`f_true` then has the same number of columns).  Assembles
    G = sum_i c_i samples_i R(., x_i) with the covering's U_Phi, applies
    U_Phi^{-1} (`op.solve`) and synthesizes through W*.  Returns
    (signal, ReconstructionReport); the report logs `op.defect` and, per
    signal, the relative error against `f_true` (nan without it) and the
    flat-norm equivalence ratio ||samples|Y-flat|| / ||f|| at Y = L^2.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape[0] != op.covering.size:
        raise DiscretizationError("one sample per cell required")
    u = op.solve(op.from_samples(samples))
    f_rec = op.calc.dual_synthesize(u, op.rel_cut)
    sg = op.calc.family.signal_grid
    spec = SeqSpaceSpec(p=2, weight=trivial_weight(), covering=op.covering, flavor="flat")
    cols = _columns(samples)
    truth = [None] * len(cols) if f_true is None else _columns(np.asarray(f_true))
    rel, ratios = [], []
    for sc, rc, tc in zip(cols, _columns(f_rec), truth):
        rel.append(float("nan") if tc is None else
                   _ratio(sg.norm(rc - tc), sg.norm(tc)))
        ratios.append(_ratio(flat_norm(np.abs(sc), spec), sg.norm(rc)))
    block = samples.ndim > 1
    report = ReconstructionReport(
        relative_error=_per_signal(rel, block), defect_estimate=op.defect,
        norm_ratios={"flat_l2_over_f": _per_signal(ratios, block)})
    return f_rec, report


# ---------------------------------------------------------------------------
# Hilbert frame bounds of the sampled system
# ---------------------------------------------------------------------------
def hilbert_frame_bounds(op: UPhiOperator):
    """Frame bounds of the sampled system {sqrt(a_i) psi_{x_i}} at the
    operator's sample nodes x_i, a_i = mu(U_i), on the resolvable atom span.

    The discrete frame operator S_d = h Psi_X diag(a) Psi_X^H
    (`hermitian_gram`, Psi_X the sampled atoms) restricted to the span of
    atoms at interior sample points, thinned as in
    `frame_bounds_continuous`; truncation zero-modes are excluded by the
    relative Gram cut.  The bounds are the exact extreme eigenvalues of the
    reduced operator.  Both Grams run on the operator's `threads`.
    Returns (C1, C2, subspace description).
    """
    cov = op.covering
    h = op.calc.family.signal_grid.h
    atoms = op.atoms
    s_mat = hermitian_gram(atoms, cov.measures, h, op.threads)
    idx, interior = _interior_probes(op.calc.family, cov.grid,
                                     cov.grid.points[op.node_index])
    if idx.size == 0:
        raise DiscretizationError("no interior sampled atoms; enlarge the domain")
    c1, c2, _ = restricted_rayleigh_bounds(atoms[:, idx], s_mat, h, op.threads)
    sub = f"span of {interior} interior sampled atoms, Gram cut {PROBE_GRAM_CUT:g}"
    return c1, c2, sub
