"""Shared dense helpers: the weighted Hermitian Gram h X W X^H, Hermitian
eigendecompositions with a relative eigenvalue cut, and exact Rayleigh
bounds on a probe span.

The frame operator S, the sampled frame operator S_d, U_Phi on ran R (the
r x r matrix K) and the probe Gram of `restricted_rayleigh_bounds` are each
one `hermitian_gram`, which computes one block triangle of the Hermitian
product and mirrors it.  Beside its input and the n x n results, it holds
at most `threads` blocks' temporaries, one weighted block of at most
`GRAM_COLS // 2` input rows each, and no full-size copy of the input.
Every routine is a fixed sequence of dense LAPACK/BLAS calls with no
iteration or random start, so repeated runs give bit-identical output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel_algebra import _even_blocks, _on_pool

GRAM_COLS = 128              # rows of one `hermitian_gram` unit: two blocks
# relative cut on the probe Gram matrix of `restricted_rayleigh_bounds`
PROBE_GRAM_CUT = 1e-2


class SolverError(RuntimeError):
    """A numerical result is unusable: `psd_factorize` kept no eigenvalue
    above its cut, or a report value is not finite (the CLI exits 3)."""


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


def hermitian_gram(x: np.ndarray, w: np.ndarray, h: float,
                   threads: int = 1) -> np.ndarray:
    """h X diag(w) X^H for the (n, m) array `x`, exactly Hermitian, in
    `x`'s dtype.

    G = conj(X) W X^T = conj(h X W X^H) is filled in its upper block
    triangle only: rows j0:j1, a block of at most `GRAM_COLS // 2`
    (`_even_blocks`), take the columns j0:n, (conj(X[j0:j1]) W) X[j0:]^T,
    with the weighted rows a C-ordered copy of the block's rows, whatever
    X's order; the block's columns below it are then the conjugate
    transpose of its row right of it.  Block k costs n - j0 columns, so
    it runs with block nb - 1 - k as one unit on `threads` (`_on_pool`),
    and every unit costs about the same.  The symmetrization
    0.5 (G^T + conj(G)) is exact off the diagonal blocks and makes those
    exactly Hermitian.  Beside X, G and the symmetrization, a call holds
    at most `threads` blocks' temporaries and no full-size copy of X.
    Blocks and units depend on n alone, so the result does not depend on
    `threads`.
    """
    n = x.shape[0]
    g = np.empty((n, n), dtype=x.dtype)
    blocks = _even_blocks(n, GRAM_COLS // 2)
    nb = len(blocks)
    units = [(blocks[k], blocks[nb - 1 - k]) if k != nb - 1 - k else (blocks[k],)
             for k in range((nb + 1) // 2)]

    def work(unit):
        for j0, j1 in unit:
            xw = np.conjugate(x[j0:j1], order="C")
            xw *= w
            np.matmul(xw, x[j0:].T, out=g[j0:j1, j0:])
            np.conjugate(g[j0:j1, j1:].T, out=g[j1:, j0:j1])

    _on_pool(units, threads, work)
    g *= h
    return 0.5 * (g.T + g.conj())


def psd_factorize(mat: np.ndarray, rel_cut: float = 1e-10) -> HermitianEig:
    """eigh with a relative eigenvalue cut in [0, inf); raises on total rank
    collapse.  A negative cut would keep zero eigenvalues and divide by them.
    A real symmetric matrix takes the real eigh (LAPACK dsyevd) and keeps
    real eigenvectors."""
    if not (np.isfinite(rel_cut) and rel_cut >= 0.0):
        raise ValueError(f"relative eigenvalue cut must be finite and >= 0, got {rel_cut}")
    lam, q = np.linalg.eigh(mat)
    lam = np.maximum(lam, 0.0)
    top = lam[-1] if lam.size else 0.0
    kept = lam > rel_cut * top if top > 0 else np.zeros_like(lam, dtype=bool)
    if not kept.any():
        raise SolverError("psd_factorize: all eigenvalues below the cut")
    return HermitianEig(eigvals=lam, eigvecs=q, kept=kept)


def restricted_rayleigh_bounds(probes: np.ndarray, s_mat: np.ndarray, h: float,
                               threads: int = 1):
    """Exact extreme Rayleigh quotients of `s_mat` on the span of `probes`.

    Directions the probe atoms (the k columns of the n x k `probes`, inner
    product weighted by `h`) do not span stably are removed by the relative
    cut `PROBE_GRAM_CUT` on their Gram matrix (`hermitian_gram` with unit
    weights).  h P^* P (k x k) and h P P^* (n x n) share their nonzero
    eigenvalues, so the smaller one is factored.  For n < k the kept
    eigenvectors of h P P^* are an orthonormal basis B of the cut span;
    otherwise h P^* P = V diag(lam) V^* gives
    B = sqrt(h) P V_kept diag(lam_kept)^(-1/2).  The reduced operator
    B^* S B is Hermitian, and its extreme eigenvalues are the bounds.
    `threads` builds the probe Gram; the bounds do not depend on it.
    Returns (c1, c2, kept rank).
    """
    wide = probes.shape[0] < probes.shape[1]
    x = probes if wide else probes.conj().T
    gram = hermitian_gram(x, np.ones(x.shape[1]), h, threads)
    eig = psd_factorize(gram, rel_cut=PROBE_GRAM_CUT)
    basis = eig.eigvecs[:, eig.kept]
    if not wide:
        basis = np.sqrt(h) * (probes @ (basis / np.sqrt(eig.eigvals[eig.kept])[None, :]))
    reduced = basis.conj().T @ (s_mat @ basis)
    reduced = 0.5 * (reduced + reduced.conj().T)
    lam = np.linalg.eigvalsh(reduced)
    return float(lam[0]), float(lam[-1]), eig.rank
