import dataclasses

import numpy as np
import pytest

from coorbit.coverings import build_covering, build_pu
from conftest import cell_lists, emptied
from coorbit.kernel_algebra import lp_w_norm
from coorbit.measure_space import WeightOnX, build_quad_grid, trivial_weight
from coorbit.sequence_spaces import (SeqSpaceSpec, SequenceError, _assemble,
                                     closed_form_norm, decomposition_norm,
                                     flat_norm, natural_norm, plus_bound_ratio,
                                     plus_operator, plus_theoretical_bound)


@pytest.fixture(scope="module")
def setup():
    grid = build_quad_grid([[0.0, 4.0]], [128])
    cov = build_covering(grid, 0.5)                  # 8-cell partition
    # cellwise-constant weight: constant on every width-0.5 cell
    w = WeightOnX(lambda p: 1.0 + 0.25 * np.floor(p[:, 0] / 0.5),
                  descriptor="cellwise")
    return grid, cov, w


def spec_for(cov, w, p, flavor):
    return SeqSpaceSpec(p=p, weight=w, covering=cov, flavor=flavor)


def _assemble_per_cell(lam, cov, scale):
    """Reference: one indexed add per cell, in cell order."""
    field = np.zeros(cov.grid.size)
    amp = np.abs(lam) * scale
    for i, idx in enumerate(cell_lists(cov.members)):
        field[idx] += amp[i]
    return field


class TestAssemble:
    def test_bit_identical_to_per_cell_loop(self, uneven_covering):
        case, cov = uneven_covering
        grid = cov.grid
        # nodes in several cells, where the order of the additions matters
        depth = np.bincount(cov.members.flat, minlength=grid.size)
        assert depth.max() == (4 if case == "overlap" else 2)
        gen = np.random.default_rng(11)
        lam = gen.standard_normal(cov.size) + 1j * gen.standard_normal(cov.size)
        for scale in (np.ones(cov.size), 1.0 / cov.measures,
                      gen.uniform(1e-3, 1e3, cov.size)):
            got = _assemble(lam, cov, scale)
            ref = _assemble_per_cell(lam, cov, scale)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestFlatLayoutSums:
    """Per-cell sums on the flat member layout carry the bits of np.sum
    over each cell's entries."""

    def test_bit_identical_to_per_cell_sums(self, uneven_covering):
        _, cov = uneven_covering
        w = cov.grid.weights
        lay = cov.members
        assert np.unique(lay.counts).size > 1 and lay.counts.max() >= 8
        ref = np.array([np.sum(w[idx]) for idx in cell_lists(lay)])
        assert cov.measures.tobytes() == ref.tobytes()
        for flavor in ("indicator", "tent"):
            pu = build_pu(cov, flavor)
            ref = np.array([np.sum(w[idx] * val) for idx, val
                            in zip(cell_lists(lay), lay.split(pu.values))])
            assert pu.masses.tobytes() == ref.tobytes()
        gen = np.random.default_rng(5)
        values = gen.standard_normal(cov.grid.size) * \
            np.exp(4.0 * gen.standard_normal(cov.grid.size))
        amp = np.abs(values) * w
        mass = np.array([np.sum(amp[idx]) for idx in cell_lists(lay)])
        assert lay.sums(amp[lay.flat]).tobytes() == mass.tobytes()
        spec = SeqSpaceSpec(p=2, weight=trivial_weight(), covering=cov,
                            flavor="natural")
        assert decomposition_norm(values, spec) == natural_norm(mass, spec)
        lam = gen.standard_normal(cov.size) * np.exp(4.0 * gen.standard_normal(cov.size))
        ref = np.array([lam[idx].sum() for idx in cell_lists(cov.neighbors)])
        assert plus_operator(lam, cov).tobytes() == ref.tobytes()

    def test_plus_operator_keeps_a_cell_without_neighbors(self, uneven_covering):
        _, cov = uneven_covering
        lone = dataclasses.replace(cov, neighbors=emptied(cov.neighbors, [0]))
        lam = np.random.default_rng(6).standard_normal(cov.size)
        got, ref = plus_operator(lam, lone), plus_operator(lam, cov)
        assert got[0] == lam[0]
        assert got[1:].tobytes() == ref[1:].tobytes()


class TestFlatNorm:
    def test_zero(self, setup):
        grid, cov, w = setup
        assert flat_norm(np.zeros(cov.size), spec_for(cov, w, 2, "flat")) == 0.0

    def test_p_inf_partition_is_weighted_max(self, setup, rng):
        grid, cov, w = setup
        lam = rng.standard_normal(cov.size)
        spec = spec_for(cov, w, np.inf, "flat")
        assert flat_norm(lam, spec) == pytest.approx(closed_form_norm(lam, spec),
                                                     abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_closed_form_exact_on_partition(self, setup, rng, p):
        # b_p(i) = a_i^{1/p} sup_{U_i} w, exact for cellwise-constant weight
        grid, cov, w = setup
        for seed in range(5):
            lam = np.random.default_rng(seed).standard_normal(cov.size)
            spec = spec_for(cov, w, p, "flat")
            assert abs(flat_norm(lam, spec) - closed_form_norm(lam, spec)) <= 1e-12

    def test_solidity(self, setup, rng):
        grid, cov, w = setup
        kappa = rng.standard_normal(cov.size)
        lam = kappa * rng.uniform(0.0, 1.0, cov.size)
        spec = spec_for(cov, w, 2, "flat")
        assert flat_norm(lam, spec) <= flat_norm(kappa, spec) + 1e-15

    def test_index_mismatch(self, setup):
        grid, cov, w = setup
        with pytest.raises(SequenceError):
            flat_norm(np.ones(cov.size + 1), spec_for(cov, w, 2, "flat"))


class TestNaturalNorm:
    def test_uniform_cells_rescale(self, setup, rng):
        grid, cov, w = setup
        lam = rng.standard_normal(cov.size)
        a = cov.measures[0]
        assert natural_norm(lam, spec_for(cov, w, 2, "natural")) == \
            pytest.approx(flat_norm(lam, spec_for(cov, w, 2, "flat")) / a, rel=1e-12)

    def test_p1_partition_trivial_weight_is_l1(self, setup, rng):
        grid, cov, _ = setup
        lam = rng.standard_normal(cov.size)
        spec = spec_for(cov, trivial_weight(), 1, "natural")
        assert natural_norm(lam, spec) == pytest.approx(np.sum(np.abs(lam)),
                                                        abs=1e-12)

    def test_dirac_single_term(self, setup):
        grid, cov, w = setup
        lam = np.zeros(cov.size)
        lam[3] = 2.0
        spec = spec_for(cov, w, 2, "natural")
        from coorbit.sequence_spaces import closed_form_weights
        assert natural_norm(lam, spec) == pytest.approx(
            2.0 * closed_form_weights(spec)[3], rel=1e-12)

    def test_flat_dominates_natural_by_min_measure(self, setup, rng):
        grid, cov, w = setup
        spec_f = spec_for(cov, w, 2, "flat")
        spec_n = spec_for(cov, w, 2, "natural")
        for seed in range(10):
            lam = np.random.default_rng(seed).standard_normal(cov.size)
            assert natural_norm(lam, spec_n) <= \
                flat_norm(lam, spec_f) / cov.min_measure + 1e-12

    def test_linf_embedding_constant_finite(self, setup, rng):
        # Y-natural embeds into weighted sup with r(i) = v~(i) a_i
        grid, cov, w = setup
        spec = spec_for(cov, w, 2, "natural")
        from coorbit.sequence_spaces import cell_weight_sups
        r = cell_weight_sups(cov, w) * cov.measures
        worst = 0.0
        for seed in range(20):
            lam = np.random.default_rng(seed).standard_normal(cov.size)
            worst = max(worst, np.max(np.abs(lam) / r) / natural_norm(lam, spec))
        assert np.isfinite(worst) and worst > 0


class TestPlusOperator:
    def test_partition_is_identity(self, setup, rng):
        grid, cov, w = setup
        lam = rng.standard_normal(cov.size)
        assert np.allclose(plus_operator(lam, cov), lam)

    def test_half_overlap_sums_three(self):
        grid = build_quad_grid([[0.0, 8.0]], [256])
        cov = build_covering(grid, 0.5, overlap_fraction=0.5)
        lam = np.ones(cov.size)
        out = plus_operator(lam, cov)
        assert np.all(out[2:-2] == 3.0)

    def test_bound_on_random_sequences(self):
        grid = build_quad_grid([[0.0, 8.0]], [256])
        cov = build_covering(grid, 0.5, overlap_fraction=0.5)
        spec = SeqSpaceSpec(p=2, weight=trivial_weight(), covering=cov,
                            flavor="natural")
        bound = plus_theoretical_bound(spec)
        rng = np.random.default_rng(77)
        for _ in range(100):
            lam = rng.standard_normal(cov.size)
            assert plus_bound_ratio(lam, spec) <= bound + 1e-10


class TestDecompositionNorm:
    def test_zero(self, setup):
        grid, cov, w = setup
        spec = spec_for(cov, trivial_weight(), 1, "natural")
        assert decomposition_norm(np.zeros(grid.size), spec) == 0.0

    def test_cell_indicator(self, setup):
        # F = chi_{U_k}, p = 1, trivial weight: cell mass a_k, d_1 = 1
        grid, cov, _ = setup
        spec = spec_for(cov, trivial_weight(), 1, "natural")
        k = 4
        field = np.zeros(grid.size)
        field[cell_lists(cov.members)[k]] = 1.0
        assert decomposition_norm(field, spec) == pytest.approx(cov.measures[k],
                                                                rel=1e-12)

    def test_lands_in_decomposition_space(self, setup, rng):
        # finite quadrature fields always land in D(U, L1, Y-natural) with a
        # norm controlled by the L^p_w norm; the ratio stays bounded
        grid, cov, w = setup
        spec = spec_for(cov, w, np.inf, "natural")
        ratios = []
        for seed in range(10):
            f = np.random.default_rng(seed).standard_normal(grid.size)
            d = decomposition_norm(f, spec)
            ratios.append(d / lp_w_norm(f, 2, w, grid))
        assert max(ratios) / min(ratios) < 10.0


class TestEquivalentCoverings:
    def test_equivalent_covering_norms_comparable(self, rng):
        grid = build_quad_grid([[0.0, 8.0]], [256])
        cov_a = build_covering(grid, 0.5)
        cov_b = build_covering(grid, 0.5, overlap_fraction=0.5)
        w = trivial_weight()
        for seed in range(10):
            lam = np.random.default_rng(seed).standard_normal(cov_a.size)
            na = flat_norm(lam, SeqSpaceSpec(2, w, cov_a, "flat"))
            nb = flat_norm(lam, SeqSpaceSpec(2, w, cov_b, "flat"))
            assert 1.0 / 3.0 <= na / nb <= 3.0
