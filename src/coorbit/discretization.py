"""Sampling the continuous frame and reconstructing from the samples.

Sample points snap to quadrature nodes inside their cells (the theorems
allow any point of the cell).  U_Phi lives on ran R, R = h * C^H C the
Gramian through its half factor C = P Psi, P = Lambda_k^(-1/2) Q_k^H the
half map of S (`FrameCalculus`).  B = sqrt(h) C^H is a mu-orthonormal
basis of ran R, and in that basis U_Phi is the Hermitian r x r matrix
K = h C_X diag(c) C_X^H, r the rank of the frame-operator cut, C_X = P Psi_X
the half map on the sampled atoms and c the masses.  Its eigenvalues give
the defect ||P (Id - U_Phi) P|| = max |1 - kappa| exactly, and its inverse
gives U_Phi^{-1} on ran R, so no iteration is needed.  One U_Phi
(`build_uphi`) serves the atomic decomposition, the dual atoms and the
Banach-frame reconstruction, and all three stay in the r coordinates of
ran R: W f has the coordinates sqrt(h) P f, and h C W C^H = P S P^H = I_r
takes a field back to its coordinates, so

    lam(f) = c (h C_X^H K^{-1} P f),
    f_rec  = P^H K^{-1} C_X (c s),
    e_i    = c_i P^H K^{-1} C_{x_i},

and none of them forms a field on the index grid or its half factor C.

The sampled system {sqrt(a_i) psi_{x_i}}, a_i the cell measures, is the
family's frame on the sampling measure sum_i a_i delta_{x_i}
(`Covering.sampled_grid`), and its calculus serves it like any other: the
sampled atoms are its atom matrix (`UPhiOperator.atoms`, synthesized at
the sample nodes alone), V f at the sample nodes is its `analyze`, and
its frame operator is S_d, whose Hilbert frame bounds are
`frame_bounds_continuous` on that grid.  So for separable (Gabor) atoms
on a tensor grid, whose S needs no atom matrix either (`FrameCalculus`),
no step forms the index grid's n x M atom matrix.

On the index grid, `UPhiOperator.apply`, `project` and `solve` realize
U_Phi, the projection onto ran R and U_Phi^{-1} as L2(mu) operators
through C, for the library and its invariant checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._linalg import hermitian_gram
from .coverings import Covering, PartitionOfUnity
from .frame_families import FrameCalculus, FrameFamily, _map_atoms
from .measure_space import QuadGrid, trivial_weight
from .sequence_spaces import SeqSpaceSpec, flat_norm, natural_norm


class DiscretizationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the discretized reproducing operator
# ---------------------------------------------------------------------------
@dataclass
class UPhiOperator:
    """U_Phi F = sum_i c_i F(x_i) R(., x_i) on ran R.

    Held as the r x r matrix K = h C_X diag(c) C_X^H of the module
    docstring, whose eigendecomposition gives the exact `defect` and the
    inverse (`_k_solve`).  On the index grid, column R(., x_i) is
    h * C^H C_{x_i}, so one application of `apply` costs two thin matrix
    products of inner dimension r.
    """

    calc: FrameCalculus
    pu: PartitionOfUnity          # the covering, its nodes x_i, masses c_i
    rel_cut: float = 1e-10
    # builds S, the sampled atoms, C_X and K; changes no value
    threads: int = 1

    @property
    def grid(self) -> QuadGrid:
        return self.calc.grid

    @property
    def covering(self) -> Covering:
        return self.pu.covering

    @property
    def node_index(self) -> np.ndarray:
        return self.covering.sample_node_index

    @property
    def masses(self) -> np.ndarray:
        return self.pu.masses

    @cached_property
    def atoms(self) -> np.ndarray:
        """Sampled atoms psi_{x_i} on the signal grid, shape (n, N),
        C-ordered: the atom matrix of the sampled system's calculus
        (`Covering.sampled_grid`), synthesized at the sample nodes alone on
        `threads`.  The index grid's atom matrix is not formed for them."""
        return self.calc.family.calculus(self.covering.sampled_grid).atoms(
            self.threads)

    @cached_property
    def _c_nodes(self) -> np.ndarray:
        """C_X = P Psi_X, the half factor's columns at the sample nodes,
        shape (r, N): the half map on the sampled atoms (`_map_atoms`), S
        on `threads` first.  The index grid's half factor is not formed."""
        self.calc.s_matrix(self.threads)
        return _map_atoms(self.calc.half_map(self.rel_cut), self.atoms,
                          self.threads)

    def from_samples(self, samp: np.ndarray) -> np.ndarray:
        """sum_i c_i samp_i R(., x_i) = h C^H C_X (c samp) on the index grid,
        for values samp_i at the sample nodes."""
        pot = self._c_nodes @ (self.masses * samp.T).T
        return self.calc.family.signal_grid.h * \
            self.calc.half_adjoint(pot, self.rel_cut)

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

    def _k_solve(self, a: np.ndarray) -> np.ndarray:
        """K^{-1} a for coordinates on ran R, one r-vector or a block of
        columns.  The paper inverts U_Phi by its Neumann series, which
        converges when the defect is below 1; a defect >= 1 is refused."""
        if self.defect >= 1.0:
            raise DiscretizationError(
                f"U_Phi inversion refused: defect {self.defect:.3f} >= 1")
        kappa, v = self._spectrum
        return v @ ((v.conj().T @ a).T / kappa).T

    def solve(self, F: np.ndarray) -> np.ndarray:
        """U_Phi^{-1} P F on the index grid, for one field or a block of
        columns: in the basis sqrt(h) C^H the coordinates of P F are
        sqrt(h) C (w F), so U_Phi^{-1} P F = h C^H K^{-1} C (w F)."""
        a = self._k_solve(self.calc.half_synthesize(F, self.rel_cut))
        return self.calc.family.signal_grid.h * \
            self.calc.half_adjoint(a, self.rel_cut)

    def _dual_synthesize(self, x: np.ndarray) -> np.ndarray:
        """P^H K^{-1} x on the signal grid, for coordinates x on ran R."""
        p = self.calc.half_map(self.rel_cut)
        return np.conj(p.T @ np.conj(self._k_solve(x)))


def build_uphi(family: FrameFamily, pu: PartitionOfUnity,
               rel_cut: float = 1e-10, threads: int = 1) -> UPhiOperator:
    """U_Phi of `family` with the partition of unity `pu`, on the grid of
    its covering and on ran R at the stable cut `rel_cut`.  `threads` builds
    S, the sampled atoms, C_X and the operator's `hermitian_gram` products."""
    return UPhiOperator(calc=family.calculus(pu.covering.grid), pu=pu,
                        rel_cut=rel_cut, threads=threads)


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
    sg = op.calc.family.signal_grid
    # lam = c (h C_X^H K^{-1} P f), C_X^H y taken as conj(C_X^T conj(y))
    u = np.conj(op._c_nodes.T @ np.conj(op._k_solve(
        op.calc.half_map(op.rel_cut) @ f)))
    lam = sg.h * (op.masses * u.T).T
    synth = op.atoms @ lam
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

    e_i = W*(c_i U_Phi^{-1} W psi_{x_i}) = c_i P^H K^{-1} C_{x_i}, from the
    covering's U_Phi; computed for `indices` (default: all cells when the
    count is within `DUAL_CAP`, otherwise an evenly spaced subset).
    Returns the atoms as columns on the signal grid.
    """
    n_cells = op.covering.size
    if indices is None:
        if n_cells <= DUAL_CAP:
            indices = np.arange(n_cells)
        else:
            indices = np.linspace(0, n_cells - 1, DUAL_CAP).astype(int)
    indices = np.asarray(indices, dtype=int)
    return op._dual_synthesize(op._c_nodes[:, indices] * op.masses[indices])


def banach_frame_reconstruct(samples: np.ndarray, op: UPhiOperator,
                             f_true: Optional[np.ndarray] = None):
    """Recover f from its frame samples (V f(x_i))_i.

    `samples` is one sample vector (N,) or a block (N, B), one column per
    signal (`f_true` then has the same number of columns).  Assembles
    G = sum_i c_i samples_i R(., x_i) with the covering's U_Phi, applies
    U_Phi^{-1} and synthesizes through W*, all in the coordinates of
    ran R: f = P^H K^{-1} C_X (c samples).  Returns
    (signal, ReconstructionReport); the report logs `op.defect` and, per
    signal, the relative error against `f_true` (nan without it) and the
    flat-norm equivalence ratio ||samples|Y-flat|| / ||f|| at Y = L^2.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape[0] != op.covering.size:
        raise DiscretizationError("one sample per cell required")
    f_rec = op._dual_synthesize(op._c_nodes @ (op.masses * samples.T).T)
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
