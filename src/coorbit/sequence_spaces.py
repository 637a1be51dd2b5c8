"""Covering-indexed sequence spaces and decomposition-space norms.

Two flavors: the "flat" norm measures sum |lam_i| chi_{U_i} in the weighted
L^p space, the "natural" norm rescales every indicator by 1/mu(U_i).  On a
partition with cellwise-constant weight both collapse to weighted little-lp
norms with explicit cell weights (used as exact oracles in the tests).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverings import Covering, weight_sup_on_cells
from .kernel_algebra import lp_w_norm
from .measure_space import WeightOnX


class SequenceError(ValueError):
    pass


@dataclass(frozen=True)
class SeqSpaceSpec:
    p: object                    # 1, 2 or inf
    weight: WeightOnX
    covering: Covering
    flavor: str                  # "flat" or "natural"

    def __post_init__(self):
        if self.flavor not in ("flat", "natural"):
            raise SequenceError(f"flavor must be 'flat' or 'natural', got {self.flavor!r}")


def _assemble(lam: np.ndarray, cov: Covering, scale: np.ndarray) -> np.ndarray:
    if lam.shape[0] != cov.size:
        raise SequenceError(f"sequence length {lam.shape[0]} != cell count {cov.size}")
    # bincount adds in input order, so every node sums the amplitudes of its
    # cells in cell order, starting from 0
    lay = cov.members
    amp = np.repeat(np.abs(lam) * scale, lay.counts)
    return np.bincount(lay.flat, weights=amp, minlength=cov.grid.size)


def flat_norm(lam: np.ndarray, spec: SeqSpaceSpec) -> float:
    """|| sum_i |lam_i| chi_{U_i} ||_{L^p_w} on the covering's grid."""
    lam = np.asarray(lam)
    cov = spec.covering
    field = _assemble(lam, cov, np.ones(cov.size))
    return lp_w_norm(field, spec.p, spec.weight, cov.grid)


def natural_norm(lam: np.ndarray, spec: SeqSpaceSpec) -> float:
    """Flat norm of (lam_i / mu(U_i)); the atomic-decomposition scaling."""
    lam = np.asarray(lam)
    cov = spec.covering
    field = _assemble(lam, cov, 1.0 / cov.measures)
    return lp_w_norm(field, spec.p, spec.weight, cov.grid)


def cell_weight_sups(cov: Covering, w: WeightOnX) -> np.ndarray:
    """w~(i) = sup of w over the cell's quadrature nodes."""
    lay = cov.members
    if np.any(lay.counts == 0):
        raise SequenceError(f"cell {int(np.argmin(lay.counts))} holds no node")
    return np.maximum.reduceat(w(cov.grid.points)[lay.flat], lay.starts)


def closed_form_weights(spec: SeqSpaceSpec) -> np.ndarray:
    """b_p(i) = a_i^{1/p} w~(i) for flat, d_p(i) = a_i^{1/p-1} w~(i) for natural."""
    cov = spec.covering
    wt = cell_weight_sups(cov, spec.weight)
    if spec.p in (np.inf, "inf", float("inf")):
        expo = 0.0
    else:
        expo = 1.0 / float(spec.p)
    if spec.flavor == "natural":
        expo -= 1.0
    return cov.measures ** expo * wt


def closed_form_norm(lam: np.ndarray, spec: SeqSpaceSpec) -> float:
    """Weighted little-lp norm; equals the assembled norm on partitions with
    cellwise-constant weight (Y-flat = lp_{b_p}, Y-natural = lp_{d_p})."""
    lam = np.abs(np.asarray(lam)) * closed_form_weights(spec)
    if spec.p == 1:
        return float(np.sum(lam))
    if spec.p == 2:
        return float(np.sqrt(np.sum(lam * lam)))
    if spec.p in (np.inf, "inf", float("inf")):
        return float(np.max(lam))
    raise SequenceError(f"p must be 1, 2 or inf, got {spec.p!r}")


def plus_operator(lam: np.ndarray, cov: Covering) -> np.ndarray:
    """Neighbor sum lam_i^+ = sum_{j in i*} lam_j (lam_i for an empty i*),
    each sum with the bits of `lam[i*].sum()` (`FlatLayout.sums`)."""
    lam = np.asarray(lam)
    if lam.shape[0] != cov.size:
        raise SequenceError("sequence length != cell count")
    nb = cov.neighbors
    out = nb.sums(lam[nb.flat])
    lone = nb.counts == 0
    out[lone] = lam[lone]
    return out


def plus_bound_ratio(lam: np.ndarray, spec: SeqSpaceSpec) -> float:
    """Measured ||lam^+|Y-natural|| / ||lam|Y-natural|| for one sequence."""
    base = natural_norm(lam, spec)
    if base == 0.0:
        return 0.0
    return natural_norm(plus_operator(lam, spec.covering), spec) / base


def plus_theoretical_bound(spec: SeqSpaceSpec) -> float:
    """N * C~ * C_{m,U}^2 with m the weight associated to w."""
    from .measure_space import weight_from_w
    cov = spec.covering
    c_m_u = weight_sup_on_cells(cov, weight_from_w(spec.weight))
    return cov.overlap_count * cov.measure_ratio * c_m_u ** 2


def decomposition_norm(values: np.ndarray, spec: SeqSpaceSpec) -> float:
    """Norm of F in D(U, L^1, Y-natural): cell L^1 masses, natural norm."""
    values = np.asarray(values)
    cov = spec.covering
    if values.shape[0] != cov.grid.size:
        raise SequenceError("value list length != grid size")
    amp = np.abs(values) * cov.grid.weights
    return natural_norm(cov.members.sums(amp[cov.members.flat]), spec)
