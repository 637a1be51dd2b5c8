"""Shared iterative solvers and spectral helpers.

All routines are deterministic: conjugate gradients start from the zero
vector and reductions run in fixed order, so repeated runs give
bit-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative cut on the probe Gram matrix of `restricted_rayleigh_bounds`
PROBE_GRAM_CUT = 1e-2


class SolverError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""


def cg_solve(apply_op, b: np.ndarray, tol: float = 1e-10, max_iter: int = 500,
             weight: float | np.ndarray = 1.0, precond=None):
    """(Preconditioned) conjugate gradients for a self-adjoint positive operator.

    `apply_op` must be self-adjoint w.r.t. the weighted inner product
    <u, v> = sum(weight * u * conj(v)); `precond`, when given, approximates
    its inverse.  Returns (solution, iterations); the stopping rule uses the
    true relative residual.  Raises SolverError on stagnation.
    """
    if max_iter < 1:
        raise SolverError("cg_solve requires max_iter >= 1")
    if tol <= 0.0:
        raise SolverError("cg_solve requires tol > 0")

    def dot(u, v):
        return complex(np.sum(weight * u * np.conj(v)))

    x = np.zeros_like(b)
    r = b.copy()
    z = precond(r) if precond else r
    p = z.copy()
    rz = dot(r, z).real
    b_norm = np.sqrt(dot(b, b).real)
    if b_norm == 0.0:
        return x, 0
    for it in range(1, max_iter + 1):
        Ap = apply_op(p)
        denom = dot(p, Ap).real
        if denom <= 0.0:
            raise SolverError("cg_solve: operator not positive on Krylov space")
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * Ap
        res = np.sqrt(dot(r, r).real)
        if res <= tol * b_norm:
            return x, it
        z = precond(r) if precond else r
        rz_new = dot(r, z).real
        if rz_new <= 0.0 or rz <= 0.0:
            raise SolverError(
                f"cg_solve: residual {res / b_norm:.3e} lies outside the "
                f"preconditioner range (truncation floor); tol {tol:.3e} unreachable")
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"cg_solve stagnated: residual {res / b_norm:.3e} > tol {tol:.3e} "
        f"after {max_iter} iterations")


@dataclass
class HermitianEig:
    """Eigendecomposition of a Hermitian PSD matrix with a stable-rank cut."""

    eigvals: np.ndarray          # ascending
    eigvecs: np.ndarray
    kept: np.ndarray             # boolean mask of retained eigenvalues

    @property
    def rank(self) -> int:
        return int(self.kept.sum())

    def apply_pinv(self, f: np.ndarray) -> np.ndarray:
        """Moore-Penrose pseudo-inverse action restricted to the kept span."""
        q = self.eigvecs[:, self.kept]
        lam = self.eigvals[self.kept]
        return q @ ((q.conj().T @ f).T / lam).T if f.ndim > 1 else \
            q @ ((q.conj().T @ f) / lam)


def psd_factorize(mat: np.ndarray, rel_cut: float = 1e-10) -> HermitianEig:
    """eigh with a relative eigenvalue cut in [0, inf); raises on total rank
    collapse.  A negative cut would keep zero eigenvalues and divide by them."""
    if not (np.isfinite(rel_cut) and rel_cut >= 0.0):
        raise ValueError(f"relative eigenvalue cut must be finite and >= 0, got {rel_cut}")
    lam, q = np.linalg.eigh(mat)
    lam = np.maximum(lam, 0.0)
    top = lam[-1] if lam.size else 0.0
    kept = lam > rel_cut * top if top > 0 else np.zeros_like(lam, dtype=bool)
    if not kept.any():
        raise SolverError("psd_factorize: all eigenvalues below the cut")
    return HermitianEig(eigvals=lam, eigvecs=q, kept=kept)


def restricted_rayleigh_bounds(probes: np.ndarray, s_mat: np.ndarray, h: float):
    """Exact extreme Rayleigh quotients of `s_mat` on the span of `probes`.

    Directions the probe atoms (the k columns of the n x k `probes`, inner
    product weighted by `h`) do not span stably are removed by the relative
    cut `PROBE_GRAM_CUT` on their Gram matrix.  h P^* P (k x k) and
    h P P^* (n x n) share their nonzero eigenvalues, so the smaller one is
    factored.  For n < k the kept eigenvectors of h P P^* are an orthonormal
    basis B of the cut span; otherwise h P^* P = V diag(lam) V^* gives
    B = sqrt(h) P V_kept diag(lam_kept)^(-1/2).  The reduced operator
    B^* S B is Hermitian, and its extreme eigenvalues are the bounds.
    Returns (c1, c2, kept rank).
    """
    wide = probes.shape[0] < probes.shape[1]
    gram = h * (probes @ probes.conj().T if wide else probes.conj().T @ probes)
    gram = 0.5 * (gram + gram.conj().T)
    eig = psd_factorize(gram, rel_cut=PROBE_GRAM_CUT)
    basis = eig.eigvecs[:, eig.kept]
    if not wide:
        basis = np.sqrt(h) * (probes @ (basis / np.sqrt(eig.eigvals[eig.kept])[None, :]))
    reduced = basis.conj().T @ (s_mat @ basis)
    reduced = 0.5 * (reduced + reduced.conj().T)
    lam = np.linalg.eigvalsh(reduced)
    return float(lam[0]), float(lam[-1]), eig.rank
