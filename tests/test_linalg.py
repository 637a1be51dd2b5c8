import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from coorbit._linalg import PROBE_GRAM_CUT, psd_factorize, restricted_rayleigh_bounds


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _cut_subspace(probes, s_mat, h):
    """Reference: the kept Gram eigenvalues and the probe matrix of S on
    their eigenvectors, from scipy.linalg.eigh."""
    gram = h * (probes.conj().T @ probes)
    lam, vec = scipy.linalg.eigh(0.5 * (gram + gram.conj().T))
    kept = lam > PROBE_GRAM_CUT * lam[-1]
    v = vec[:, kept]
    a = v.conj().T @ (h * (probes.conj().T @ (s_mat @ probes))) @ v
    return lam[kept], 0.5 * (a + a.conj().T)


class TestRestrictedRayleighBounds:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 16), st.integers(2, 10), st.integers(1, 8),
           st.integers(1, 8), st.sampled_from([0.0, 1e-4]),
           st.floats(0.05, 2.0))
    def test_exact_extremes_on_the_cut_span(self, seed, n, k, r, noise, h):
        rng = np.random.default_rng(seed)
        # probes of rank min(r, k, n), nudged off the low-rank span by `noise`:
        # those directions fall below the Gram cut and must not count
        r = min(r, k, n)
        probes = _complex(rng, n, r) @ _complex(rng, r, k) + noise * _complex(rng, n, k)
        b = _complex(rng, n, int(rng.integers(1, n + 1)))
        s_mat = b @ b.conj().T
        c1, c2, rank = restricted_rayleigh_bounds(probes, s_mat, h)

        lam, a = _cut_subspace(probes, s_mat, h)
        ref = scipy.linalg.eigh(a, np.diag(lam), eigvals_only=True)
        scale = max(abs(ref[0]), abs(ref[-1]))
        assert rank == lam.size
        assert abs(c1 - ref[0]) <= 1e-12 * scale
        assert abs(c2 - ref[-1]) <= 1e-12 * scale

        # Rayleigh quotients x^H S x / x^H G x over the kept probe span
        for _ in range(20):
            y = _complex(rng, lam.size)
            q = np.real(y.conj() @ a @ y) / np.real(y.conj() @ (lam * y))
            assert c1 - 1e-12 * scale <= q <= c2 + 1e-12 * scale


class TestPsdFactorize:
    @pytest.mark.parametrize("cut", [-1e-3, -1.0, float("nan"), float("inf")])
    def test_invalid_cut_rejected(self, cut):
        with pytest.raises(ValueError):
            psd_factorize(np.diag([0.0, 1.0, 2.0]), rel_cut=cut)

    def test_zero_cut_drops_zero_eigenvalues(self):
        eig = psd_factorize(np.diag([0.0, 1.0, 2.0]), rel_cut=0.0)
        assert eig.rank == 2
