"""Built-in continuous frames over computable index spaces.

Five families: Gabor (short-time Fourier atoms), 1-d continuous wavelets on
the (position, scale) half-plane, bandlimited reproducing kernels on the
periodized line, inhomogeneous wavelets with a dedicated low-pass sheet, and
alpha-modulation atoms interpolating between the Gabor and wavelet regimes.

Conventions, fixed once for the whole engine:
  * Fourier transform fhat(w) = integral f(t) exp(-iwt) dt, so
    ||fhat||^2 = 2*pi*||f||^2.
  * Gabor / alpha-modulation index measure carries a 1/(2*pi) factor, which
    makes the unit-Gaussian Gabor family tight with constant 1.
  * Wavelet admissibility is normalized per frequency sign:
    integral_0^inf |psihat(u)|^2 du/u = 1, which makes the half-plane family
    and the inhomogeneous family tight with constant 1.
  * Atoms carry their family's field: float64 for the real atoms of the
    wavelet, inhomogeneous-wavelet and bandlimited families, complex128 for
    the modulation families.  Every product built from them (S, the
    Gramian factors) takes the atoms' dtype, except where a family's
    conjugation symmetry makes S real: a Gabor family with a real window
    has conj(M_w T_x g) = M_{-w} T_x g, and an alpha-modulation family,
    whose Gaussian envelope is real, conj(psi_(x,w)) = psi_(x,-w); so on
    an index grid that maps onto itself under w -> -w with bit-equal weights at mirrored nodes, S, its
    eigenpairs and the half map are float64 while the atoms and the
    Gramian factors C, C^H stay complex128 (`FrameCalculus.mirrored`).

The torus phase variable of the modulation families is dropped; atoms are
indexed by (position, frequency) alone.  All norms and reconstruction
operators are invariant under that quotient; the oscillation module accounts
for it when comparing kernel values (see `phase_quotient`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._linalg import PROBE_GRAM_CUT, HermitianEig, hermitian_gram, \
    psd_factorize, restricted_rayleigh_bounds
from .kernel_algebra import Kernel
from .measure_space import GridError, QuadGrid, SignalGrid, build_quad_grid, \
    euclidean_metric

TWO_PI = 2.0 * np.pi
_ATOM_COLS = 256             # columns of one gathered modulation-atom block
COVERAGE_TARGET = 4e-4       # L2 coverage error of a wavelet scale margin


class FamilyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# window / wavelet profiles
# ---------------------------------------------------------------------------
def gaussian_window(t: np.ndarray) -> np.ndarray:
    """Unit-norm Gaussian, ||g||_{L2} = 1."""
    return np.pi ** (-0.25) * np.exp(-0.5 * t * t)


def mexican_hat(t: np.ndarray) -> np.ndarray:
    """(1 - t^2) exp(-t^2/2) scaled so that int_0^inf |psihat(u)|^2 du/u = 1."""
    return np.pi ** (-0.5) * (1.0 - t * t) * np.exp(-0.5 * t * t)


class GaussDerivProfile:
    """Derivative-of-Gaussian wavelet spectrum, |psihat(u)|^2 = c |u|^{2k} e^{-u^2}.

    c = 2/Gamma(k) normalizes the one-sided admissibility integral to 1, and
    the scale CDF has the closed form Theta(v) = P(k, v^2) (regularized lower
    incomplete gamma), for integer k the finite sum
    P(k, x) = 1 - e^(-x) sum_{j<k} x^j / j!.  The polynomial low-frequency
    rise keeps the time tails Gaussian; k = 2 is the Mexican hat.
    """

    def __init__(self, order: int):
        if order < 1:
            raise FamilyError("wavelet order must be >= 1")
        self.order = int(order)
        log_gamma = math.log(math.factorial(self.order - 1))
        self._sqrt_c = np.exp(0.5 * (np.log(2.0) - log_gamma))

    def spectrum(self, u: np.ndarray) -> np.ndarray:
        au = np.abs(np.asarray(u, dtype=float))
        return self._sqrt_c * au ** self.order * np.exp(-0.5 * au * au)

    def spectrum_sq(self, u: np.ndarray) -> np.ndarray:
        return self.spectrum(u) ** 2

    def theta(self, v: np.ndarray) -> np.ndarray:
        """Theta(|v|) = int_0^|v| |psihat(u)|^2 du/u, in [0, 1]."""
        v = np.abs(np.asarray(v, dtype=float))
        x = v * v
        term = np.ones_like(x)
        partial = np.ones_like(x)
        for j in range(1, self.order):
            term = term * x / j
            partial = partial + term
        return 1.0 - np.exp(-x) * partial

    def coverage_log_margin(self) -> float:
        """Smallest symmetric log-scale margin with coverage error at most
        `COVERAGE_TARGET`.

        The scale truncation acts as a Fourier multiplier theta on a probe
        atom at log-distance M from the cut; the margin controls the L2
        error ||(1 - theta) f|| <= target, i.e. the squared multiplier
        deficit integrated against the atom content.  It depends on the
        order alone and is computed once per order (`validate` and `run`
        both need it).
        """
        return _coverage_log_margin(self.order)


@functools.lru_cache(maxsize=None)
def _coverage_log_margin(order: int) -> float:
    profile = GaussDerivProfile(order)
    v = np.geomspace(1e-3, 60.0, 4000)
    w = profile.spectrum_sq(v)
    mass = np.trapezoid(w / v, v)

    def err(m):
        lost = (1.0 - profile.theta(np.exp(m) * v)) + profile.theta(np.exp(-m) * v)
        return float(np.sqrt(np.trapezoid(w * lost ** 2 / v, v) / mass))

    lo, hi = 0.1, 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if err(mid) > COVERAGE_TARGET else (lo, mid)
    return hi


# ---------------------------------------------------------------------------
# family container
# ---------------------------------------------------------------------------
@dataclass
class FrameFamily:
    """Evaluable atom map x -> psi_x over a truncated signal grid."""

    tag: str
    signal_grid: SignalGrid
    params: dict
    phase_quotient: bool
    atom_fn: Callable[[np.ndarray], np.ndarray]   # (N, d) points -> (n, N) atoms
    metric: Callable[[np.ndarray, np.ndarray], np.ndarray]
    interior_margins: np.ndarray
    # per-axis signs sigma with conj(psi_x) = psi_{sigma x} exactly, or None
    conjugation: Optional[np.ndarray] = None
    _ops: dict = field(default_factory=dict, repr=False)

    def atoms(self, points: np.ndarray) -> np.ndarray:
        return self.atom_fn(np.atleast_2d(np.asarray(points, dtype=float)))

    def atom(self, point) -> np.ndarray:
        return self.atoms(np.atleast_2d(point))[:, 0]

    def calculus(self, grid: QuadGrid) -> "FrameCalculus":
        # keyed by id(grid): safe, as the cached FrameCalculus holds its grid
        op = self._ops.get(id(grid))
        if op is None:
            op = FrameCalculus(self, grid)
            if len(self._ops) > 6:
                self._ops.clear()
            self._ops[id(grid)] = op
        return op

    def interior_box(self, bounds) -> np.ndarray:
        """The index box `bounds` (a grid's `bounds`) shrunk by the family
        margins: the probe/battery region.

        Scale axes shrink in log units; position margins for wavelet-type
        families scale with the largest admissible probe scale.  Raises
        FamilyError when the box is empty on some axis; for the wavelet
        families the message names the bounds that would fit.
        """
        box = np.array(bounds, dtype=float)
        empty = []
        if self.tag in ("cwt", "inhom_wavelet"):
            m_log = self.interior_margins[0]
            (a_lo, a_hi), (b_lo, b_hi) = box
            if self.tag == "cwt":
                box[0] = (a_lo * np.exp(m_log), a_hi * np.exp(-m_log))
                need = 2.0 * m_log
            else:
                # top of the scale sheet is backed by the low-pass sheet
                box[0] = (a_lo * np.exp(m_log), a_hi)
                need = m_log
            pos_margin = 5.0 * self.params["sd_t_unit"] * max(box[0, 1], 1.0)
            box[1] = (b_lo + pos_margin, b_hi - pos_margin)
            if box[0, 0] >= box[0, 1]:
                empty.append(
                    f"index box too small for interior margins on axis 0: the "
                    f"scale bounds [{a_lo:g}, {a_hi:g}] span ln(a_hi / a_lo) = "
                    f"{math.log(a_hi / a_lo):.4g}, and the coverage margin of the "
                    f"{self.params['wavelet']} profile (order {self.params['order']}) "
                    f"needs more than {need:.4g} (a_hi / a_lo > {math.exp(need):.4g})")
            if box[1, 0] >= box[1, 1]:
                empty.append(
                    f"index box too small for interior margins on axis 1: the "
                    f"position bounds [{b_lo:g}, {b_hi:g}] are {b_hi - b_lo:.4g} "
                    f"wide, and the position margin 5 sd_t max(a, 1) = "
                    f"{pos_margin:.4g} at the interior's largest scale "
                    f"a = {box[0, 1]:.4g} needs more than {2.0 * pos_margin:.4g} "
                    f"(the default position bounds are +-0.75 T)")
        elif self.tag == "alpha_mod":
            # atom bandwidth grows like (1+|w|)^alpha; frequency margins by
            # the fixed point w = edge -/+ 4 (1 + |w|)^alpha
            alpha = self.params["alpha"]
            lo, hi = box[1]
            w = hi
            for _ in range(200):
                w = 0.5 * w + 0.5 * (hi - 4.0 * (1.0 + abs(w)) ** alpha)
            hi_p = w
            w = lo
            for _ in range(200):
                w = 0.5 * w + 0.5 * (lo + 4.0 * (1.0 + abs(w)) ** alpha)
            box[1] = (w, hi_p)
            box[0] = (box[0, 0] + self.interior_margins[0],
                      box[0, 1] - self.interior_margins[0])
        else:
            for k in range(box.shape[0]):
                mk = self.interior_margins[k]
                box[k] = (box[k, 0] + mk, box[k, 1] - mk)
        empty = empty or [f"index box too small for interior margins on axis {k}"
                          for k in range(box.shape[0]) if box[k, 0] >= box[k, 1]]
        if empty:
            raise FamilyError("; ".join(empty))
        return box


class FrameCalculus:
    """Cached analysis/synthesis machinery for one (family, grid) pair.

    The Gramian factors through the kept eigenpairs (Lambda_k, Q_k) of the
    frame operator S:  R = h * C^H C on the grid, with the half factor
    C = Lambda_k^(-1/2) Q_k^H Psi of shape (r, M), r = rank of the cut.
    Every Gramian product runs through C; r is at most the signal length n
    and usually much smaller.  Everything here follows the atoms' dtype:
    for a family with real atoms (cwt, inhom_wavelet, sinc_rkhs) S, its
    eigenpairs (a real `eigh`), the half map, C and C^H are float64.

    Complex atoms whose family declares a conjugation symmetry that the
    grid carries bit for bit (`mirrored`) give a real S: every atom's
    conjugate is the atom at the mirrored node, with the same weight, so
    the imaginary parts of S cancel in pairs.  S is then built from the
    atoms' (n, 2M) float64 view [Re psi_x, Im psi_x] in real arithmetic,
    and its eigenpairs and the half map are float64; C = P Psi is one real
    GEMM on that view and stays complex128.
    """

    def __init__(self, family: FrameFamily, grid: QuadGrid):
        self.family = family
        self.grid = grid
        self._mirrored: Optional[bool] = None
        self._atoms: Optional[np.ndarray] = None
        self._s_matrix: Optional[np.ndarray] = None
        self._s_eig: dict[float, HermitianEig] = {}
        self._half_map: dict[float, np.ndarray] = {}
        self._half_factor: dict[float, np.ndarray] = {}
        self._u_factor: dict[float, np.ndarray] = {}

    @property
    def atom_matrix(self) -> np.ndarray:
        if self._atoms is None:
            self._atoms = self.family.atoms(self.grid.points)
        return self._atoms

    @property
    def mirrored(self) -> bool:
        """Whether S is real by the family's conjugation symmetry on this
        grid: the family declares sigma (`FrameFamily.conjugation`), the
        atoms are complex, the mirrored points sigma x are exactly the grid's
        points, and mirrored nodes carry bit-equal weights.  Decided once
        per grid, with no tolerance."""
        if self._mirrored is None:
            sigma = self.family.conjugation
            self._mirrored = sigma is not None and \
                np.iscomplexobj(self.atom_matrix) and \
                _mirror_closed(self.grid, np.asarray(sigma, dtype=float))
        return self._mirrored

    def analyze(self, f: np.ndarray) -> np.ndarray:
        """V f on the grid: <f, psi_x> by signal-grid quadrature, for one
        signal or a block of columns.  Taken as conj(Psi^T conj(f)), so no
        conjugate copy of the atom matrix is made."""
        h = self.family.signal_grid.h
        return h * np.conj(self.atom_matrix.T @ np.conj(f))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """V*_mu: integral F(y) psi_y dmu(y); columns handled in batch."""
        w = self.grid.weights
        if coeffs.ndim > 1:
            return self.atom_matrix @ (w[:, None] * coeffs)
        return self.atom_matrix @ (w * coeffs)

    def frame_apply(self, f: np.ndarray) -> np.ndarray:
        return self.synthesize(self.analyze(f))

    def analyze_dual(self, f: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        """W f = V(S^+ f) on the grid, S^+ the spectral pseudo-inverse at
        relative cut `rel_cut`: analysis against the canonical dual frame."""
        return self.analyze(self.s_pinv(f, rel_cut))

    def s_matrix(self, threads: int = 1) -> np.ndarray:
        """The quadrature frame operator S = h Psi W Psi^H, (n, n), exactly
        Hermitian and cached, in the atoms' dtype, or float64 when the grid
        is `mirrored`: one `hermitian_gram` over `threads`.  On a mirrored
        grid Psi enters as its float64 view with every weight repeated for
        the real and imaginary column: h Psi~ W~ Psi~^T = Re(h Psi W Psi^H)
        = S, a real GEMM per block."""
        if self._s_matrix is None:
            psi, w = self.atom_matrix, self.grid.weights
            if self.mirrored:
                psi, w = _real_view(psi), np.repeat(w, 2)
            self._s_matrix = hermitian_gram(psi, w, self.family.signal_grid.h,
                                            threads)
        return self._s_matrix

    def s_eig(self, rel_cut: float = 1e-10) -> HermitianEig:
        eig = self._s_eig.get(rel_cut)
        if eig is None:
            eig = psd_factorize(self.s_matrix(), rel_cut=rel_cut)
            self._s_eig[rel_cut] = eig
        return eig

    def s_pinv(self, f: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        return self.s_eig(rel_cut).apply_pinv(f)

    def half_map(self, rel_cut: float = 1e-10) -> np.ndarray:
        """Lambda_k^(-1/2) Q_k^H, shape (r, n): atoms to half-factor columns."""
        p = self._half_map.get(rel_cut)
        if p is None:
            eig = self.s_eig(rel_cut)
            q = eig.eigvecs[:, eig.kept] / np.sqrt(eig.eigvals[eig.kept])[None, :]
            p = np.ascontiguousarray(q.conj().T)
            self._half_map[rel_cut] = p
        return p

    def half_factor(self, rel_cut: float = 1e-10) -> np.ndarray:
        """C = Lambda_k^(-1/2) Q_k^H Psi on the grid, shape (r, M)."""
        c = self._half_factor.get(rel_cut)
        if c is None:
            c = _map_atoms(self.half_map(rel_cut), self.atom_matrix)
            self._half_factor[rel_cut] = c
        return c

    def u_factor(self, rel_cut: float = 1e-10) -> np.ndarray:
        """Left Gramian factor C^H, shape (M, r): R = h * (u_factor @ C)
        on the grid.  Cached once per cut."""
        u = self._u_factor.get(rel_cut)
        if u is None:
            u = self.half_factor(rel_cut).conj().T
            self._u_factor[rel_cut] = u
        return u

    def half_synthesize(self, F: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        """integral F(y) C_y dmu(y): C applied to the mu-weighted field(s)."""
        w = self.grid.weights
        return self.half_factor(rel_cut) @ (w[:, None] * F if F.ndim > 1 else w * F)

    def gramian_apply(self, F: np.ndarray, rel_cut: float = 1e-10) -> np.ndarray:
        """R(F) = h * C^H C (w F) at every grid node."""
        h = self.family.signal_grid.h
        return h * (self.u_factor(rel_cut) @ self.half_synthesize(F, rel_cut))


def _mirror_closed(grid: QuadGrid, sigma: np.ndarray) -> bool:
    """Whether x -> sigma x maps the grid's points onto themselves with
    exactly equal coordinates (one lexsort of each side) and bit-equal
    weights at mirrored nodes."""
    pts = grid.points
    mirrored = pts * sigma[None, :]
    order = np.lexsort(pts.T[::-1])
    order_m = np.lexsort(mirrored.T[::-1])
    if not np.array_equal(pts[order], mirrored[order_m]):
        return False
    # node order_m[k], mirrored, is node order[k]
    w = grid.weights
    return w[order].tobytes() == w[order_m].tobytes()


def _real_view(z: np.ndarray) -> np.ndarray:
    """The (n, 2M) float64 view [Re z_j, Im z_j] of a complex (n, M) array;
    a copy only when its rows are not contiguous."""
    return np.ascontiguousarray(z).view(np.float64)


def _map_atoms(p: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """p @ psi.  A real map on complex atoms is one real GEMM on the atoms'
    float64 view, read back as complex128 without a copy."""
    if np.isrealobj(p) and np.iscomplexobj(psi):
        return (p @ _real_view(psi)).view(np.complex128)
    return p @ psi


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def halfplane_metric(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d((b,a),(b',a')) = |b - b'| + |log(a/a')| on the (scale, position) plane.

    Axis 0 is the scale; a zero scale coordinate encodes the low-pass sheet
    and is treated as scale 1.
    """
    sp = np.where(p[:, 0] > 0, p[:, 0], 1.0)
    sq = np.where(q[:, 0] > 0, q[:, 0], 1.0)
    return np.abs(p[:, None, 1] - q[None, :, 1]) + \
        np.abs(np.log(sp)[:, None] - np.log(sq)[None, :])


def make_circle_metric(half_width: float):
    period = 2.0 * half_width

    def metric(p, q):
        d = np.abs(p[:, None, 0] - q[None, :, 0]) % period
        return np.minimum(d, period - d)
    return metric


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------
def _window_moments(g: np.ndarray, sg: SignalGrid):
    t = sg.points
    mass = sg.h * np.sum(np.abs(g) ** 2)
    mu_t = sg.h * np.sum(t * np.abs(g) ** 2) / mass
    sd_t = np.sqrt(sg.h * np.sum((t - mu_t) ** 2 * np.abs(g) ** 2) / mass)
    ghat = sg.h * np.fft.fft(g)   # |ghat|^2 moments are phase-free
    w = sg.fft_freqs()
    pw = np.abs(ghat) ** 2
    mu_w = np.sum(w * pw) / np.sum(pw)
    sd_w = np.sqrt(np.sum((w - mu_w) ** 2 * pw) / np.sum(pw))
    return sd_t, sd_w


def _gabor_family(params: dict, sg: SignalGrid) -> FrameFamily:
    window = params.get("window", "gaussian")
    if window == "gaussian":
        gfun = gaussian_window
    elif callable(window):
        gfun = window
    else:
        raise FamilyError(f"unknown gabor window {window!r}")
    g = gfun(sg.points)
    gnorm = sg.norm(g)
    if abs(gnorm - 1.0) > 1e-6:
        raise FamilyError(f"gabor window must be L2-normalized, got ||g|| = {gnorm:.6f}")
    sd_t, sd_w = _window_moments(g, sg)
    # 3.2 transform widths: boundary mass ~ Q(3.2) ~ 7e-4 per side, forgiving
    # enough for 1e-3-grade batteries while fitting desk-scale boxes
    margins = np.array([3.2 * np.sqrt(2.0) * sd_t, 3.2 * np.sqrt(2.0) * sd_w])

    t = sg.points

    def atom_fn(points):
        # the window once per distinct position, the modulation once per
        # distinct frequency
        xu, ix = _distinct(points[:, 0])
        mod, iw = _modulation(t, points[:, 1])
        return _modulated(gfun(t[:, None] - xu[None, :]), ix, mod, iw)

    return FrameFamily(
        tag="gabor", signal_grid=sg, params={"window": window},
        phase_quotient=True, atom_fn=atom_fn, metric=euclidean_metric,
        interior_margins=margins,
        # a real window: conj(M_w T_x g) = M_{-w} T_x g
        conjugation=None if np.iscomplexobj(g) else np.array([1.0, -1.0]))


def _distinct(v: np.ndarray):
    """The distinct values of `v` by bit pattern, and each entry's index
    into them."""
    u, inv = np.unique(np.ascontiguousarray(v, dtype=float).view(np.int64),
                       return_inverse=True)
    return u.view(np.float64), inv


def _modulation(t: np.ndarray, w: np.ndarray):
    """exp(i w t) on the signal grid, one column per distinct frequency
    (`_distinct`), and each point's column."""
    wu, iw = _distinct(w)
    arg = 1j * wu[None, :] * t[:, None]
    return np.exp(arg, out=arg), iw


def _modulated(amp: np.ndarray, iamp: Optional[np.ndarray], mod: np.ndarray,
               imod: np.ndarray) -> np.ndarray:
    """Atoms mod[:, imod] * amp[:, iamp] (all of `amp` when `iamp` is None)
    in blocks of `_ATOM_COLS` columns: each block's modulation columns are
    gathered into the output and multiplied there, so no full-size
    gathered copy of either factor is made.  The modulation is the left
    operand: under FMA the order decides the sign of an underflowed zero,
    and this is the order of the full-size product amp * exp(...) once
    numpy reuses its exp temporary."""
    out = np.empty((mod.shape[0], imod.size), dtype=np.result_type(amp, mod))
    for j0 in range(0, imod.size, _ATOM_COLS):
        cols = slice(j0, j0 + _ATOM_COLS)
        blk = out[:, cols]
        np.take(mod, imod[cols], axis=1, out=blk, mode="clip")
        np.multiply(blk, amp[:, cols] if iamp is None else amp[:, iamp[cols]],
                    out=blk)
    return out


def _spectral_atoms(sg: SignalGrid, spectra: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Real atoms from real even spectra:
    psi(t_k) = (1/2pi) integral S(w) e^{-iwb} e^{iwt_k} dw.

    Midpoint sum over the FFT frequencies; with t_k = -T + kh the spectrum
    picks up the phase e^{-iw(b+T)}.  S is even, so the phased spectrum is
    Hermitian-symmetric: `spectra` holds S on the n/2 + 1 non-negative
    frequencies only (`SignalGrid.rfft_freqs`), and one inverse real FFT
    returns the float64 atoms, the real part of the full inverse FFT.
    """
    w = sg.rfft_freqs()
    spec = spectra * np.exp(-1j * w[:, None] * (shifts[None, :] + sg.half_width))
    return np.fft.irfft(spec, n=sg.n, axis=0) / sg.h


def _resolve_wavelet(params: dict) -> tuple[GaussDerivProfile, str]:
    wavelet = params.get("wavelet", "gauss_deriv")
    if wavelet == "mexican_hat":
        return GaussDerivProfile(2), "mexican_hat"
    if wavelet == "gauss_deriv":
        return GaussDerivProfile(int(params.get("order", 6))), "gauss_deriv"
    raise FamilyError(f"unknown wavelet {wavelet!r}")


def _cwt_family(params: dict, sg: SignalGrid) -> FrameFamily:
    profile, name = _resolve_wavelet(params)
    t = sg.points
    w = sg.rfft_freqs()

    if profile.order == 2:
        def atom_fn(points):
            a, b = points[:, 0], points[:, 1]
            arg = (t[:, None] - b[None, :]) / a[None, :]
            return mexican_hat(arg) / np.sqrt(a[None, :])
    else:
        def atom_fn(points):
            a, b = points[:, 0], points[:, 1]
            spec = np.sqrt(a[None, :]) * profile.spectrum(a[None, :] * w[:, None])
            return _spectral_atoms(sg, spec, b)

    c_psi = _log_admissibility(profile.spectrum)
    if abs(c_psi - 1.0) > 0.01:
        raise FamilyError(
            f"inadmissible wavelet: int_0^inf |psihat|^2 du/u = {c_psi:.4f}, expected 1")

    scale_center = np.sqrt(profile.order)   # content of psi_{a, .} peaks at sqrt(k)/a
    sample = atom_fn(np.array([[scale_center, 0.0]]))[:, 0]
    sd_t = _window_moments(sample / sg.norm(sample), sg)[0] / scale_center
    return FrameFamily(
        tag="cwt", signal_grid=sg,
        params={"wavelet": name, "order": profile.order, "c_psi": c_psi,
                "profile": profile, "sd_t_unit": sd_t},
        phase_quotient=False, atom_fn=atom_fn, metric=halfplane_metric,
        interior_margins=np.array([profile.coverage_log_margin(), np.nan]))


def _log_admissibility(spectrum) -> float:
    """One-sided admissibility int_0^inf |psihat(u)|^2 du/u by log quadrature
    on [1e-4, 64]."""
    v = np.linspace(np.log(1e-4), np.log(64.0), 20001)
    u = np.exp(v)
    return float(np.trapezoid(np.abs(spectrum(u)) ** 2, v))


def _sinc_family(params: dict, sg: SignalGrid) -> FrameFamily:
    omega = float(params.get("bandlimit", np.pi / (2 * sg.h)))
    if omega >= sg.nyquist:
        raise FamilyError(
            f"bandlimit {omega:.4f} at or above grid Nyquist {sg.nyquist:.4f}")
    if omega <= 0:
        raise FamilyError("bandlimit must be positive")
    T = sg.half_width
    J = int(np.floor(omega * T / np.pi + 1e-12))
    t = sg.points

    def atom_fn(points):
        u = t[:, None] - points[None, :, 0]
        num = np.sin((2 * J + 1) * np.pi * u / (2 * T))
        den = np.sin(np.pi * u / (2 * T))
        small = np.abs(den) < 1e-13
        den = np.where(small, 1.0, den)
        return np.where(small, float(2 * J + 1), num / den) / (2 * T)

    return FrameFamily(
        tag="sinc_rkhs", signal_grid=sg,
        params={"bandlimit": omega, "n_freqs": 2 * J + 1},
        phase_quotient=False, atom_fn=atom_fn, metric=make_circle_metric(T),
        interior_margins=np.array([0.0]))


def _inhom_family(params: dict, sg: SignalGrid) -> FrameFamily:
    profile, name = _resolve_wavelet(params)
    w = sg.rfft_freqs()

    def phi_spectrum(freq):
        # |phihat|^2 + int_0^1 |psihat(t xi)|^2 dt/t = 1, clamped against rounding
        return np.sqrt(np.clip(1.0 - profile.theta(freq), 0.0, 1.0))

    def atom_fn(points):
        scale, pos = points[:, 0], points[:, 1]
        spec = np.empty((w.size, points.shape[0]))
        lowpass = scale <= 0.0
        if lowpass.any():
            spec[:, lowpass] = phi_spectrum(w)[:, None]
        if (~lowpass).any():
            a = scale[~lowpass]
            spec[:, ~lowpass] = np.sqrt(a[None, :]) * profile.spectrum(a[None, :] * w[:, None])
        return _spectral_atoms(sg, spec, pos)

    scale_center = np.sqrt(profile.order)
    sample = atom_fn(np.array([[scale_center, 0.0]]))[:, 0]
    sd_t = _window_moments(sample / sg.norm(sample), sg)[0] / scale_center
    return FrameFamily(
        tag="inhom_wavelet", signal_grid=sg,
        params={"wavelet": name, "order": profile.order, "profile": profile,
                "sd_t_unit": sd_t},
        phase_quotient=False, atom_fn=atom_fn, metric=halfplane_metric,
        interior_margins=np.array([profile.coverage_log_margin(), np.nan]))


def _alpha_family(params: dict, sg: SignalGrid) -> FrameFamily:
    alpha = float(params.get("alpha", 0.5))
    if not 0.0 <= alpha < 1.0:
        raise FamilyError(f"alpha must lie in [0, 1), got {alpha}")
    if params.get("window", "gaussian") != "gaussian":
        raise FamilyError("alpha_mod supports the gaussian window only")
    t = sg.points

    def atom_fn(points):
        x, w = points[:, 0], points[:, 1]
        s = (1.0 + np.abs(w)) ** (-alpha)
        env = gaussian_window(t[:, None] / s[None, :] - x[None, :])
        mod, iw = _modulation(t, w)
        return _modulated(env / np.sqrt(s[None, :]), None, mod, iw)

    return FrameFamily(
        tag="alpha_mod", signal_grid=sg, params={"alpha": alpha, "window": "gaussian"},
        phase_quotient=True, atom_fn=atom_fn, metric=euclidean_metric,
        interior_margins=np.array([4.0, np.nan]),
        # a real envelope: conj(psi_(x, w)) = psi_(x, -w)
        conjugation=np.array([1.0, -1.0]))


_BUILDERS = {
    "gabor": _gabor_family,
    "cwt": _cwt_family,
    "sinc_rkhs": _sinc_family,
    "inhom_wavelet": _inhom_family,
    "alpha_mod": _alpha_family,
}


def make_family(tag: str, params: dict | None, signal_grid: SignalGrid) -> FrameFamily:
    if tag not in _BUILDERS:
        raise FamilyError(f"unknown family tag {tag!r}; known: {sorted(_BUILDERS)}")
    fam = _BUILDERS[tag](dict(params or {}), signal_grid)
    return fam


# ---------------------------------------------------------------------------
# index grids (family defaults)
# ---------------------------------------------------------------------------
def default_index_grid(family: FrameFamily, bounds=None, resolution=None,
                       band_spacing: float = 0.45, scales_per_octave: int = 12) -> QuadGrid:
    """Family-adapted quadrature of the index space.

    gabor / alpha_mod: tensor midpoint grid with density 1/(2 pi).
    sinc_rkhs: uniform circle grid.
    cwt / inhom_wavelet: scale bands, log-uniform in scale, with per-band
    position spacing proportional to the scale (finer rows at finer scales).
    """
    tag = family.tag
    if tag in ("gabor", "alpha_mod"):
        if bounds is None:
            bounds = [[-8.0, 8.0], [-16.0, 16.0]]
        if resolution is None:
            resolution = [64, 64]
        return build_quad_grid(bounds, resolution,
                               measure=lambda p: np.full(p.shape[0], 1.0 / TWO_PI))
    if tag == "sinc_rkhs":
        T = family.signal_grid.half_width
        if bounds is None:
            bounds = [[-T, T]]
        if resolution is None:
            resolution = [family.signal_grid.n // 4]
        return build_quad_grid(bounds, resolution, measure="lebesgue",
                               metric=family.metric)
    if tag in ("cwt", "inhom_wavelet"):
        return _banded_wavelet_grid(family, bounds, band_spacing, scales_per_octave)
    raise FamilyError(f"no default index grid for {tag!r}")


def wavelet_index_bounds(family: FrameFamily, bounds) -> list:
    """The (scale, position) bounds of a wavelet family's banded grid:
    `bounds`, or for None the default scales (cwt [0.2, 10.5],
    inhom_wavelet [0.125, 1]) over positions +-0.75 T."""
    if bounds is not None:
        return bounds
    b_half = 0.75 * family.signal_grid.half_width
    return [[0.2, 10.5], [-b_half, b_half]] if family.tag == "cwt" else \
        [[0.125, 1.0], [-b_half, b_half]]


def _banded_wavelet_grid(family: FrameFamily, bounds, band_spacing: float,
                         scales_per_octave: int) -> QuadGrid:
    bounds = wavelet_index_bounds(family, bounds)
    (a_lo, a_hi), (b_lo, b_hi) = bounds
    if a_lo <= 0 or a_hi <= a_lo:
        raise GridError("scale bounds must satisfy 0 < a_lo < a_hi")
    n_scales = max(2, int(np.ceil(np.log2(a_hi / a_lo) * scales_per_octave)))
    edges = np.geomspace(a_lo, a_hi, n_scales + 1)
    mids = np.sqrt(edges[:-1] * edges[1:])
    dlog = np.diff(np.log(edges))

    pts, wts, bands = [], [], []
    if family.tag == "inhom_wavelet":
        # low-pass sheet at scale coordinate 0, Lebesgue measure in position
        db = band_spacing
        nb = max(2, int(np.round((b_hi - b_lo) / db)))
        b_edges = np.linspace(b_lo, b_hi, nb + 1)
        b_mids = 0.5 * (b_edges[:-1] + b_edges[1:])
        pts.append(np.column_stack([np.zeros(nb), b_mids]))
        wts.append(np.full(nb, (b_hi - b_lo) / nb))
        bands.append(("lowpass", nb))
    for a_mid, dl in zip(mids, dlog):
        db = band_spacing * a_mid
        nb = max(2, int(np.round((b_hi - b_lo) / db)))
        b_edges = np.linspace(b_lo, b_hi, nb + 1)
        b_mids = 0.5 * (b_edges[:-1] + b_edges[1:])
        pts.append(np.column_stack([np.full(nb, a_mid), b_mids]))
        # measure da db / a^2 = dlog(a) db / a
        wts.append(np.full(nb, dl * (b_hi - b_lo) / nb / a_mid))
        bands.append((a_mid, nb))
    points = np.concatenate(pts, axis=0)
    weights = np.concatenate(wts)
    return QuadGrid(points=points, weights=weights,
                    bounds=np.asarray(bounds, dtype=float), metric=family.metric,
                    structure={"bands": bands, "band_spacing": band_spacing})


# ---------------------------------------------------------------------------
# transforms and the frame operator
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TransformField:
    values: np.ndarray
    kind: str                       # "V" or "W"
    grid: QuadGrid


def analyze_V(family: FrameFamily, f: np.ndarray, x_grid: QuadGrid) -> TransformField:
    """V f(x) = <f, psi_x> at every grid node, by signal-grid quadrature
    (`FrameCalculus.analyze`)."""
    f = np.asarray(f)
    if f.shape[0] != family.signal_grid.n:
        raise GridError("signal length does not match the family's signal grid")
    return TransformField(family.calculus(x_grid).analyze(f), "V", x_grid)


def analyze_W(family: FrameFamily, f: np.ndarray, x_grid: QuadGrid,
              rel_cut: float = 1e-10) -> TransformField:
    """W f = V(S^+ f), S^+ the spectral pseudo-inverse of the frame operator
    at relative cut `rel_cut`; W f lies in the range of `gram_kernel` at
    the same cut."""
    vals = family.calculus(x_grid).analyze_dual(np.asarray(f, dtype=complex), rel_cut)
    return TransformField(vals, "W", x_grid)


def frame_operator_apply(family: FrameFamily, f: np.ndarray, x_grid: QuadGrid) -> np.ndarray:
    """S f = integral <f, psi_x> psi_x dmu(x) by index-grid quadrature."""
    return family.calculus(x_grid).frame_apply(np.asarray(f))


def gram_kernel(family: FrameFamily, x_grid: QuadGrid, rel_cut: float = 1e-10,
                mode: str = "pinv") -> Kernel:
    """Gramian R(x,y) = <psi_y, S^+ psi_x> of the frame w.r.t. its dual.

    mode "pinv" (default) applies the spectral pseudo-inverse of the
    quadrature frame operator; this keeps R exactly self-adjoint and exactly
    idempotent under composition, also at truncation.  mode "direct" returns
    the plain crossed Gramian <psi_y, psi_x> (the continuum R of a tight
    family); it matches "pinv" away from the truncation boundary.  Both are
    Hermitian by construction.  "pinv" evaluates grid nodes from its node
    factors (u_factor, C, h): h * u_factor[rows] @ C[:, cols], slices of
    the cached half factor, without synthesizing their atoms again; its
    column factor at other points is half_map @ atoms(points).
    """
    calc = family.calculus(x_grid)
    h = family.signal_grid.h

    if mode == "direct":
        def ev(pr, pc):
            return h * (family.atoms(pr).conj().T @ family.atoms(pc))

        def fast(F, grid):
            return h * (calc.atom_matrix.conj().T @ calc.synthesize(F))
        return Kernel(evaluator=ev, provenance="gramian-direct",
                      native_grid=x_grid, fast_apply=fast, hermitian=True)
    if mode != "pinv":
        raise FamilyError(f"unknown gram_kernel mode {mode!r}")

    def col_factor(points):
        return _map_atoms(calc.half_map(rel_cut), family.atoms(points))

    def ev(pr, pc):
        left = calc.u_factor(rel_cut) if pr is x_grid.points \
            else col_factor(pr).conj().T
        right = calc.half_factor(rel_cut) if pc is x_grid.points \
            else col_factor(pc)
        return h * (left @ right)

    def factors():
        return calc.u_factor(rel_cut), calc.half_factor(rel_cut), h

    def fast(F, grid):
        return calc.gramian_apply(F, rel_cut)

    return Kernel(evaluator=ev, provenance="gramian", native_grid=x_grid,
                  fast_apply=fast, context={"calc": calc, "rel_cut": rel_cut},
                  node_factors=factors, col_factor=col_factor, hermitian=True)


# ---------------------------------------------------------------------------
# frame bounds on the resolvable subspace
# ---------------------------------------------------------------------------
PROBE_CAP = 1024             # probe atoms per frame-bound evaluation


@dataclass(frozen=True)
class FrameBoundsReport:
    c1: float
    c2: float
    subspace: str
    probe_count: int
    rank: int

    def as_dict(self):
        return {"c1": self.c1, "c2": self.c2, "subspace": self.subspace,
                "probes": self.probe_count, "rank": self.rank}


def _interior_mask(family: FrameFamily, grid: QuadGrid, pts: np.ndarray) -> np.ndarray:
    """Which index points `pts` lie in the family's interior box of `grid`;
    for `inhom_wavelet` the low-pass sheet (axis 0 <= 0) counts as interior
    on axis 0."""
    box = family.interior_box(grid.bounds)
    mask = np.ones(pts.shape[0], dtype=bool)
    for k in range(pts.shape[1]):
        inside = (pts[:, k] >= box[k, 0]) & (pts[:, k] <= box[k, 1])
        if family.tag == "inhom_wavelet" and k == 0:
            inside |= pts[:, 0] <= 0.0
        mask &= inside
    return mask


def _interior_probes(family: FrameFamily, grid: QuadGrid, pts: np.ndarray):
    """Indices of the interior points of `pts` (`_interior_mask`), thinned
    by an even stride to at most `PROBE_CAP`, and the number of interior
    points before thinning."""
    idx = np.flatnonzero(_interior_mask(family, grid, pts))
    return idx[::max(1, -(-idx.size // PROBE_CAP))], idx.size


def frame_bounds_continuous(family: FrameFamily, x_grid: QuadGrid,
                            threads: int = 1) -> FrameBoundsReport:
    """Extreme Rayleigh quotients of the quadrature frame operator.

    The operator is restricted to the span of atoms at interior index
    points (family margins shrink the truncated box), at most `PROBE_CAP` of
    them by even stride; directions that the truncation cannot represent
    stably are removed by a relative cut on the probe Gram matrix.  The
    bounds are the exact extreme eigenvalues of the reduced operator.
    `threads` builds S (`FrameCalculus.s_matrix`); the bounds do not
    depend on it.  The probes are columns of the atom matrix that S was
    built from, so no atom is synthesized twice.  On a mirrored grid
    (`FrameCalculus.mirrored`) S is real and the probes enter as their
    float64 view [Re p, Im p], which spans the probe atoms and their
    conjugates, the atoms at the mirrored nodes (interior atoms too when
    the box is symmetric, as a mirror-closed midpoint grid's is).  The
    probe Gram, h P~ P~^T = Re(h P P^H), and the reduced operator are then
    real.
    """
    idx, _ = _interior_probes(family, x_grid, x_grid.points)
    if idx.size == 0:
        raise FamilyError("no interior probe points; enlarge the index box")
    calc = family.calculus(x_grid)
    s = calc.s_matrix(threads)
    probes = calc.atom_matrix[:, idx]
    if np.max(np.abs(probes)) == 0.0:
        raise FamilyError("zero family: all probe atoms vanish")
    mirrored = calc.mirrored
    if mirrored:
        probes = _real_view(probes)
    c1, c2, rank = restricted_rayleigh_bounds(probes, s, family.signal_grid.h)
    return FrameBoundsReport(
        c1=c1, c2=c2,
        subspace=(f"span of {idx.size} interior atoms"
                  f"{' and their conjugates' if mirrored else ''}, margins "
                  f"{np.round(family.interior_margins, 3).tolist()}, "
                  f"Gram cut {PROBE_GRAM_CUT:g}"),
        probe_count=int(idx.size), rank=rank)


# ---------------------------------------------------------------------------
# alpha-modulation admissibility
# ---------------------------------------------------------------------------
_PAD = 8                     # zero-padding factor of the window FFT
_DW = 0.05                   # midpoint-rule step of the sigma integral


def alpha_admissibility(g: np.ndarray, alpha: float, xi_grid: np.ndarray,
                        sg: SignalGrid):
    """sigma_g^alpha on xi_grid plus the admissibility constant A.

    sigma(xi) = integral |ghat((xi - w) / (1+|w|)^alpha)|^2 (1+|w|)^(-alpha) dw,
    computed with a midpoint rule of step `_DW` after tabulating |ghat|^2 on
    an FFT grid zero-padded `_PAD` times.  Raises if sigma is not strictly
    positive on the grid.
    """
    if not 0.0 <= alpha < 1.0:
        raise FamilyError(f"alpha must lie in [0, 1), got {alpha}")
    g = np.asarray(g)
    if not np.any(g):
        raise FamilyError("zero window is inadmissible")
    n_pad = _PAD * sg.n
    spec = sg.h * np.fft.fft(g, n=n_pad)
    w_pad = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=sg.h)
    order = np.argsort(w_pad)
    w_tab, p_tab = w_pad[order], np.abs(spec[order]) ** 2
    # the -T offset phase drops out of |ghat|^2

    xi = np.asarray(xi_grid, dtype=float)
    w_max = float(np.max(np.abs(xi))) + 40.0
    w = np.arange(-w_max, w_max, _DW) + _DW / 2.0
    s = (1.0 + np.abs(w)) ** (-alpha)
    args = (xi[:, None] - w[None, :]) * s[None, :]
    vals = np.interp(args.ravel(), w_tab, p_tab, left=0.0, right=0.0).reshape(args.shape)
    sigma = (vals * s[None, :]).sum(axis=1) * _DW
    s_min, s_max = float(np.min(sigma)), float(np.max(sigma))
    if s_min <= 0.0:
        raise FamilyError("sigma vanishes on the grid: window inadmissible at this alpha")
    return s_min, s_max, max(s_max, 1.0 / s_min)


# ---------------------------------------------------------------------------
# batteries and leakage
# ---------------------------------------------------------------------------
def random_interior_points(family: FrameFamily, grid: QuadGrid, count: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Seeded index points inside the family's interior box.

    Scale-type axes (cwt / inhom_wavelet axis 0) are drawn log-uniformly.
    """
    box = family.interior_box(grid.bounds)
    pts = np.empty((count, grid.dim))
    for k in range(grid.dim):
        lo, hi = box[k]
        if family.tag in ("cwt", "inhom_wavelet") and k == 0:
            pts[:, k] = np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))
        else:
            pts[:, k] = rng.uniform(lo, hi, size=count)
    if family.tag == "inhom_wavelet":
        pts[rng.random(count) < 0.5, 0] = 0.0     # low-pass sheet
    return pts


ATOMS_PER_SIGNAL = 8         # interior atoms combined into one signal


def make_battery(family: FrameFamily, grid: QuadGrid, count: int,
                 seed: int) -> list[np.ndarray]:
    """Deterministic test signals: random combinations of `ATOMS_PER_SIGNAL`
    interior atoms."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    battery = []
    for _ in range(count):
        pts = random_interior_points(family, grid, ATOMS_PER_SIGNAL, rng)
        coef = (rng.standard_normal(ATOMS_PER_SIGNAL)
                + 1j * rng.standard_normal(ATOMS_PER_SIGNAL))
        f = family.atoms(pts) @ coef
        battery.append(f / family.signal_grid.norm(f))
    return battery


def export_atoms_csv(family: FrameFamily, points: np.ndarray, path) -> None:
    """Atom snapshots on the signal grid, one column pair (re, im) per atom."""
    import csv
    atoms = family.atoms(points)
    t = family.signal_grid.points
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for p in np.atleast_2d(points):
            tag = "_".join(f"{float(c):g}" for c in np.atleast_1d(p))
            header += [f"re_{tag}", f"im_{tag}"]
        writer.writerow(header)
        for k in range(t.size):
            row = [repr(float(t[k]))]
            for j in range(atoms.shape[1]):
                row += [repr(float(atoms[k, j].real)), repr(float(atoms[k, j].imag))]
            writer.writerow(row)


def leakage_report(family: FrameFamily, grid: QuadGrid, samples: int = 64,
                   seed: int = 5) -> dict:
    """Signal-domain mass leakage of boundary atoms.

    Compares quadrature norms of atoms sampled on the index-box boundary
    against the norm of a center atom; users size the truncation boxes from
    these numbers.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    b = grid.bounds
    center = b.mean(axis=1)
    pts = [center]
    for _ in range(samples):
        p = np.array([rng.uniform(lo, hi) for lo, hi in b])
        k = rng.integers(0, grid.dim)
        p[k] = b[k, rng.integers(0, 2)]
        pts.append(p)
    pts = np.asarray(pts)
    if family.tag == "inhom_wavelet":
        pts[:, 0] = np.maximum(pts[:, 0], 1e-6)
    norms = family.signal_grid.h * np.sum(np.abs(family.atoms(pts)) ** 2, axis=0)
    ref = norms[0]
    return {
        "center_atom_norm_sq": float(ref),
        "worst_boundary_deficit": float(np.max(np.abs(norms[1:] - ref)) / ref),
        "boundary_samples": samples,
    }
