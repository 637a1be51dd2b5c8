import numpy as np
import pytest

from coorbit.measure_space import (AdmissibleWeight, GridError, SignalGrid,
                                   build_quad_grid, check_admissible, derived_v,
                                   integrate, polynomial_weight, trivial_weight,
                                   weight_from_w)


class TestSignalGrid:
    def test_constant_integrates_to_full_width(self):
        sg = SignalGrid(10.0, 512)
        assert sg.h * sg.n == pytest.approx(20.0, abs=1e-12)
        assert sg.points[0] == -10.0
        assert np.allclose(np.diff(sg.points), sg.h)

    @pytest.mark.parametrize("n", [7, 12, 100, 4])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(GridError):
            SignalGrid(1.0, n)


class TestBuildQuadGrid:
    def test_uniform_measure_on_unit_interval(self):
        g = build_quad_grid([[0.0, 1.0]], [4])
        assert g.size == 4
        assert np.allclose(g.weights, 0.25)

    def test_halfplane_density_at_midpoints(self):
        # bounds a in [1,2] x b in [0,1], resolution (2,2): four cells of
        # volume 0.25, the half-plane density a^-2 taken at a_mid in
        # {1.25, 1.75}
        g = build_quad_grid([[1.0, 2.0], [0.0, 1.0]], [2, 2],
                            measure=lambda p: p[:, 0] ** (-2.0))
        expected = 0.25 * g.points[:, 0] ** (-2.0)
        assert np.allclose(g.weights, expected, rtol=1e-14)
        assert set(np.round(np.unique(g.points[:, 0]), 10)) == {1.25, 1.75}

    def test_degenerate_resolution_rejected(self):
        with pytest.raises(GridError):
            build_quad_grid([[0.0, 1.0]], [0])

    def test_empty_box_rejected(self):
        with pytest.raises(GridError):
            build_quad_grid([[1.0, 1.0]], [4])

    def test_nonpositive_density_rejected(self):
        with pytest.raises(GridError):
            build_quad_grid([[0.0, 1.0]], [4], measure=lambda p: p[:, 0] - 0.5)


class TestIntegrate:
    def test_constant_one(self, unit_grid_1d):
        assert integrate(np.ones(unit_grid_1d.size), unit_grid_1d) == \
            pytest.approx(1.0, abs=1e-14)

    def test_linear_function_midpoint_rule(self):
        # midpoint rule integrates x exactly: at resolution 2 the nodes are
        # 0.25, 0.75 with weights 0.5, giving 0.5
        g = build_quad_grid([[0.0, 1.0]], [2])
        assert integrate(g.points[:, 0], g) == pytest.approx(0.5, abs=1e-15)

    def test_zero(self, unit_grid_1d):
        assert integrate(np.zeros(unit_grid_1d.size), unit_grid_1d) == 0.0

    def test_length_mismatch(self, unit_grid_1d):
        with pytest.raises(GridError):
            integrate(np.ones(unit_grid_1d.size + 1), unit_grid_1d)

    def test_linearity(self, unit_grid_1d, rng):
        f = rng.standard_normal(unit_grid_1d.size)
        g = rng.standard_normal(unit_grid_1d.size)
        lhs = integrate(2.5 * f - 1.5 * g, unit_grid_1d)
        rhs = 2.5 * integrate(f, unit_grid_1d) - 1.5 * integrate(g, unit_grid_1d)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestWeights:
    def test_trivial_weight_gives_unit_m(self, unit_grid_1d):
        m = weight_from_w(trivial_weight())
        vals = m(unit_grid_1d.points[:4], unit_grid_1d.points[:4])
        assert np.allclose(vals, 1.0)

    def test_polynomial_spot_value(self):
        # w(x) = (1+|x|)^2: m(0, 1) = max(1/4, 4) = 4
        m = weight_from_w(polynomial_weight(2.0))
        assert m(np.array([[0.0]]), np.array([[1.0]]))[0, 0] == pytest.approx(4.0)

    def test_diagonal_is_one(self, unit_grid_1d):
        m = weight_from_w(polynomial_weight(1.5))
        p = unit_grid_1d.points[:16]
        assert np.allclose(np.diagonal(m(p, p)), 1.0)

    def test_associated_weight_is_admissible(self, wide_grid_1d):
        m = weight_from_w(polynomial_weight(2.0))
        rep = check_admissible(m, wide_grid_1d, triple_samples=400, seed=3)
        assert rep.max_violation <= 1e-12

    def test_trivial_weight_passes(self, unit_grid_1d, m_trivial):
        rep = check_admissible(m_trivial, unit_grid_1d, triple_samples=50)
        assert rep.max_violation == 0.0

    def test_gaussian_pair_weight_is_not_submultiplicative(self, wide_grid_1d):
        # e^{|x-y|^2} fails the triangle-type bound on a wide grid
        m = AdmissibleWeight(lambda p, q: np.exp(
            (p[:, None, 0] - q[None, :, 0]) ** 2), descriptor="broken")
        rep = check_admissible(m, wide_grid_1d, triple_samples=400, seed=0)
        assert rep.submult_violation > 1.0

    def test_check_requires_samples(self, unit_grid_1d, m_trivial):
        with pytest.raises(GridError):
            check_admissible(m_trivial, unit_grid_1d, triple_samples=0)


class TestDerivedV:
    def test_trivial_m_gives_unit_v(self, unit_grid_1d, m_trivial):
        v = derived_v(m_trivial, np.array([0.5]))
        assert np.allclose(v(unit_grid_1d.points), 1.0)

    def test_polynomial_spot_value(self):
        m = weight_from_w(polynomial_weight(1.0))
        v = derived_v(m, np.array([0.0]))
        assert v(np.array([[1.0]]))[0] == pytest.approx(2.0)

    def test_base_point_change_is_equivalent(self, wide_grid_1d):
        m = weight_from_w(polynomial_weight(1.0))
        z1, z2 = np.array([0.0]), np.array([2.0])
        v1 = derived_v(m, z1)(wide_grid_1d.points)
        v2 = derived_v(m, z2)(wide_grid_1d.points)
        bound = m(z1[None, :], z2[None, :])[0, 0]
        assert np.all(v1 / v2 <= bound + 1e-12)
        assert np.all(v2 / v1 <= bound + 1e-12)

    def test_at_least_one(self, wide_grid_1d):
        m = weight_from_w(polynomial_weight(2.0))
        v = derived_v(m, np.array([1.0]))
        assert np.all(v(wide_grid_1d.points) >= 1.0 - 1e-15)
