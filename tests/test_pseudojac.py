import numpy as np
import pytest

from pjinv.linalg import spectral_norm
from pjinv.maps import (DomainError, MapModel, abs_shift_map, exp1d_map,
                        identity_map, linear_map, theta_map)
from pjinv.pseudojac import (ProviderSpec, PseudoJacobianSet, build_set,
                             exact_singleton, lipschitz_ball, parse_provider,
                             pj_combine, sampled_clarke, sum_rule,
                             support_function, validity_check)


def abs1d():
    return MapModel("abs1d", 1, 1, lambda x: np.abs(x),
                    fn_batch=lambda xs: np.abs(xs))


class TestProviderSpec:
    def test_parse_grammar(self):
        assert parse_provider("exact").kind == "exact"
        assert parse_provider("sum").kind == "sum"
        spec = parse_provider("ball:r=0.5,m=100")
        assert spec.kind == "ball"
        assert spec.lip_radius == 0.5
        assert spec.lip_samples == 100
        spec = parse_provider("clarke:delta=1e-3,m=8,eps=0.1")
        assert (spec.delta, spec.m, spec.eps) == (1e-3, 8, 0.1)

    def test_parse_rejects_bad_input(self):
        for bad in ("nope", "clarke:r=1", "ball:delta=1", "exact:m=2"):
            with pytest.raises(ValueError):
                parse_provider(bad)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ProviderSpec("clarke", delta=0.0)
        with pytest.raises(ValueError):
            ProviderSpec("clarke", m=0)
        with pytest.raises(ValueError):
            ProviderSpec("clarke", eps=-1.0)


class TestSetInvariants:
    def test_empty_vertices_rejected(self):
        with pytest.raises(ValueError):
            PseudoJacobianSet([], 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PseudoJacobianSet([np.eye(2), np.eye(3)], 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            PseudoJacobianSet([np.eye(2)], -0.1)

    def test_immutable(self):
        jset = PseudoJacobianSet([np.eye(2)], 0.0)
        with pytest.raises(AttributeError):
            jset.radius = 1.0


class TestConstructors:
    def test_exact_linear(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        jset = exact_singleton(linear_map(a), np.array([5.0, -1.0]))
        assert len(jset.vertices) == 1
        assert jset.radius == 0.0
        assert np.allclose(jset.vertices[0], a)

    def test_exact_componentwise_square(self):
        m = MapModel("sq", 2, 2, lambda x: np.array([x[0] ** 2, x[1]]))
        jset = exact_singleton(m, np.array([3.0, 1.0]))
        assert np.allclose(jset.vertices[0], [[6.0, 0.0], [0.0, 1.0]],
                           atol=1e-6)

    def test_ball_abs_at_zero(self):
        spec = ProviderSpec("ball", lip_radius=1.0, lip_samples=500)
        jset = lipschitz_ball(abs1d(), np.zeros(1), spec, rng=0)
        assert np.allclose(jset.vertices[0], 0.0)
        assert jset.radius == pytest.approx(1.0, abs=1e-3)

    def test_ball_linear_spectral_norm(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        spec = ProviderSpec("ball", lip_radius=1.0, lip_samples=3000)
        jset = lipschitz_ball(linear_map(a), np.zeros(2), spec, rng=1)
        assert jset.radius == pytest.approx(np.linalg.norm(a, 2), rel=0.05)

    def test_ball_constant_map(self):
        m = MapModel("const", 2, 2, lambda x: np.array([1.0, 2.0]))
        spec = ProviderSpec("ball", lip_samples=100)
        assert lipschitz_ball(m, np.zeros(2), spec, rng=2).radius == 0.0

    def test_sum_rule_theta_cases(self):
        x = np.array([0.3, -0.4, 0.1])
        jset = sum_rule(theta_map("a", 3, 0.5), x)
        assert np.allclose(jset.vertices[0], np.eye(3))
        assert jset.radius == 0.5
        assert sum_rule(theta_map("b", 3), x).radius == 1.0
        # case (c): radius bounded by t/(1+t) on the ball of radius t
        t = np.linalg.norm(x) + 1e-2
        assert sum_rule(theta_map("c", 3, None), x).radius \
            == pytest.approx(t / (1.0 + t), abs=1e-12)

    def test_sum_rule_requires_decomposition(self):
        m = MapModel("plain", 1, 1, lambda x: x)
        with pytest.raises(ValueError):
            sum_rule(m, np.zeros(1))

    @pytest.mark.parametrize("provider", ["exact", "sum"])
    def test_derivative_providers_check_the_domain_box(self, provider):
        # exp1d's box is |x| <= 700; exp'(705) is still finite, so without
        # the check a point outside the box would yield a finite set
        spec = parse_provider(provider)
        assert build_set(exp1d_map(), np.array([700.0]), spec).vertices.shape \
            == (1, 1, 1)
        with pytest.raises(DomainError):
            build_set(exp1d_map(), np.array([705.0]), spec)
        with pytest.raises(ValueError):
            build_set(exp1d_map(), np.zeros(2), spec)

    def test_clarke_abs_two_signs(self):
        spec = ProviderSpec("clarke", delta=1e-3, m=64, eps=0.0)
        jset = sampled_clarke(abs1d(), np.zeros(1), spec, rng=0)
        vals = {round(float(v[0, 0]), 6) for v in jset.vertices}
        assert vals == {-1.0, 1.0}

    def test_clarke_linear_collapses(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        spec = ProviderSpec("clarke", delta=1e-3, m=16)
        jset = sampled_clarke(linear_map(a), np.zeros(2), spec, rng=1)
        for v in jset.vertices:
            assert np.allclose(v, a, atol=1e-6)

    def test_clarke_batch_and_loop_paths_agree_statistically(self):
        # same construction with and without the vectorized oracle
        spec = ProviderSpec("clarke", delta=1e-3, m=32)
        m_fast = theta_map("a", 2, 0.5)
        m_slow = theta_map("a", 2, 0.5)
        m_slow.fn_batch = None
        x = np.array([0.5, 0.0])  # kink in the second coordinate
        for m in (m_fast, m_slow):
            jset = sampled_clarke(m, x, spec, rng=3)
            vals = {round(float(v[0, 1]), 6) for v in jset.vertices}
            assert vals == {-0.5, 0.5}

    def test_clarke_smooth_map_hull_shrinks_with_delta(self):
        m = MapModel("sq2", 2, 2,
                     lambda x: np.array([x[0] ** 2, x[0] * x[1]]))
        diams = []
        for delta in (1e-2, 1e-4, 1e-6):
            spec = ProviderSpec("clarke", delta=delta, m=16)
            jset = sampled_clarke(m, np.array([1.0, 2.0]), spec, rng=4)
            vs = jset.vertices
            diams.append(max(spectral_norm(a - b)
                             for a in vs for b in vs))
        assert diams[0] > diams[1] > diams[2]

    def test_clarke_redraw_exhaustion_raises(self):
        bad = MapModel("allnan", 1, 1, lambda x: np.array([np.nan]))
        spec = ProviderSpec("clarke", delta=1e-3, m=2)
        with pytest.raises(FloatingPointError):
            sampled_clarke(bad, np.zeros(1), spec, rng=5)

    def test_build_set_dispatch(self):
        m = theta_map("a", 2, 0.5)
        x = np.array([1.0, 1.0])
        assert build_set(m, x, parse_provider("exact")).radius == 0.0
        assert build_set(m, x, parse_provider("sum")).radius == 0.5
        assert len(build_set(m, x, parse_provider("clarke:m=4"),
                             rng=0).vertices) == 4
        assert build_set(m, x, parse_provider("ball:m=200"),
                         rng=0).radius > 0.0


class TestSupportFunction:
    def test_identity_plus_ball(self):
        jset = PseudoJacobianSet([np.eye(2)], 0.5)
        e1 = np.array([1.0, 0.0])
        assert support_function(jset, e1, e1) == pytest.approx(1.5)

    def test_zero_set(self):
        jset = PseudoJacobianSet([np.zeros((2, 2))], 0.0)
        assert support_function(jset, np.ones(2), np.ones(2)) == 0.0

    def test_diagonal(self):
        jset = PseudoJacobianSet([np.diag([2.0, 3.0])], 0.0)
        e2 = np.array([0.0, 1.0])
        assert support_function(jset, e2, e2) == pytest.approx(3.0)

    def test_homogeneity_and_sublinearity(self):
        rng = np.random.default_rng(6)
        jset = PseudoJacobianSet([rng.standard_normal((3, 3))
                                  for _ in range(4)], 0.3)
        for _ in range(50):
            ystar = rng.standard_normal(3)
            v1 = rng.standard_normal(3)
            v2 = rng.standard_normal(3)
            t = rng.uniform(0.1, 5.0)
            assert support_function(jset, t * ystar, v1) == pytest.approx(
                t * support_function(jset, ystar, v1), abs=1e-12)
            assert support_function(jset, ystar, v1 + v2) <= (
                support_function(jset, ystar, v1)
                + support_function(jset, ystar, v2) + 1e-12)


class TestCombine:
    def test_plain_sum(self):
        a, b = np.eye(2), np.diag([2.0, 3.0])
        out = pj_combine(1.0, PseudoJacobianSet([a]), PseudoJacobianSet([b]))
        assert np.allclose(out.vertices[0], a + b)
        assert out.radius == 0.0

    def test_negation_adds_radii(self):
        a = np.diag([2.0, 3.0])
        out = pj_combine(-1.0, PseudoJacobianSet([a], 0.2),
                         PseudoJacobianSet([np.zeros((2, 2))], 0.1))
        assert np.allclose(out.vertices[0], -a)
        assert out.radius == pytest.approx(0.3)

    def test_zero_alpha_keeps_second_set(self):
        j1 = PseudoJacobianSet([np.eye(2)], 0.7)
        j2 = PseudoJacobianSet([np.diag([2.0, 3.0])], 0.1)
        out = pj_combine(0.0, j1, j2)
        assert np.allclose(out.vertices[0], j2.vertices[0])
        assert out.radius == pytest.approx(0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pj_combine(1.0, PseudoJacobianSet([np.eye(2)]),
                       PseudoJacobianSet([np.eye(3)]))

    def test_combined_set_remains_valid(self):
        # alpha*f + g with the combined set passes the defining inequality
        f = theta_map("a", 2, 0.5)
        g = linear_map(np.array([[0.0, 1.0], [1.0, 0.0]]))
        alpha = 2.0
        x = np.array([0.7, -0.3])
        jf = build_set(f, x, parse_provider("sum"))
        jg = build_set(g, x, parse_provider("exact"))
        combined_map = MapModel("combo", 2, 2,
                                lambda z: alpha * f.fn(z) + g.fn(z))
        rate = validity_check(combined_map, x, pj_combine(alpha, jf, jg),
                              trials=300, rng=7)
        assert rate == 1.0


class TestValidityCheck:
    def test_clarke_on_abs_passes(self):
        m = abs1d()
        jset = sampled_clarke(m, np.zeros(1),
                              ProviderSpec("clarke", delta=1e-3, m=32), rng=0)
        assert validity_check(m, np.zeros(1), jset, trials=200, rng=8) == 1.0

    def test_shrunken_set_fails(self):
        m = abs1d()
        jset = PseudoJacobianSet([np.array([[0.5]])], 0.0)
        assert validity_check(m, np.zeros(1), jset, trials=200, rng=9) < 1.0

    def test_linear_exact_passes(self):
        m = linear_map(np.array([[2.0, 1.0], [0.0, 3.0]]))
        jset = exact_singleton(m, np.zeros(2))
        assert validity_check(m, np.zeros(2), jset, trials=200, rng=10) == 1.0

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            validity_check(identity_map(2), np.zeros(2),
                           PseudoJacobianSet([np.eye(2)]), trials=0)
