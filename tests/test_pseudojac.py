import warnings
from fractions import Fraction

import numpy as np
import pytest

from pjinv.linalg import spectral_norm
from pjinv.maps import (DomainError, MapModel, exp1d_map, identity_map,
                        linear_map, theta_map)
from pjinv.pseudojac import (ProviderSpec, PseudoJacobianSet, build_set,
                             parse_provider, support_function, validity_check)

EXACT = parse_provider("exact")
SUM = parse_provider("sum")


def abs1d():
    return MapModel("abs1d", 1, 1, np.abs)


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

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            PseudoJacobianSet([[[1.0, np.nan], [0.0, 1.0]]])

    def test_two_dimensional_vertices_rejected(self):
        # one m x n matrix is not a (k, m, n) stack of vertices
        with pytest.raises(ValueError,
                           match=r"expected nonempty m x n vertices, got "
                                 r"shape \(2, 2\)"):
            PseudoJacobianSet(np.eye(2))

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
        jset = build_set(linear_map(a), np.array([5.0, -1.0]), EXACT)
        assert len(jset.vertices) == 1
        assert jset.radius == 0.0
        assert np.allclose(jset.vertices[0], a)

    def test_exact_componentwise_square(self):
        m = MapModel("sq", 2, 2,
                     lambda xs: np.column_stack([xs[:, 0] ** 2, xs[:, 1]]))
        jset = build_set(m, np.array([3.0, 1.0]), EXACT)
        assert np.allclose(jset.vertices[0], [[6.0, 0.0], [0.0, 1.0]],
                           atol=1e-6)

    def test_ball_abs_at_zero(self):
        spec = ProviderSpec("ball", lip_radius=1.0, lip_samples=500)
        jset = build_set(abs1d(), np.zeros(1), spec, rng=0)
        assert np.allclose(jset.vertices[0], 0.0)
        assert jset.radius == pytest.approx(1.0, abs=1e-3)

    def test_ball_linear_spectral_norm(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        spec = ProviderSpec("ball", lip_radius=1.0, lip_samples=3000)
        jset = build_set(linear_map(a), np.zeros(2), spec, rng=1)
        assert jset.radius == pytest.approx(np.linalg.norm(a, 2), rel=0.05)

    def test_ball_constant_map(self):
        m = MapModel("const", 2, 2,
                     lambda xs: np.broadcast_to([1.0, 2.0], (len(xs), 2)))
        spec = ProviderSpec("ball", lip_samples=100)
        assert build_set(m, np.zeros(2), spec, rng=2).radius == 0.0

    def test_sum_rule_theta_cases(self):
        x = np.array([0.3, -0.4, 0.1])
        jset = build_set(theta_map("a", 3, 0.5), x, SUM)
        assert np.allclose(jset.vertices[0], np.eye(3))
        assert jset.radius == 0.5
        assert build_set(theta_map("b", 3), x, SUM).radius == 1.0
        # case (c): radius bounded by t/(1+t) on the ball of radius t
        t = np.linalg.norm(x) + 1e-2
        assert build_set(theta_map("c", 3, None), x, SUM).radius \
            == pytest.approx(t / (1.0 + t), abs=1e-12)

    def test_sum_rule_requires_decomposition(self):
        m = MapModel("plain", 1, 1, lambda xs: xs)
        with pytest.raises(ValueError):
            build_set(m, np.zeros(1), SUM)

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
        jset = build_set(abs1d(), np.zeros(1), spec, rng=0)
        vals = {round(float(v[0, 0]), 6) for v in jset.vertices}
        assert vals == {-1.0, 1.0}

    def test_clarke_linear_collapses(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        spec = ProviderSpec("clarke", delta=1e-3, m=16)
        jset = build_set(linear_map(a), np.zeros(2), spec, rng=1)
        for v in jset.vertices:
            assert np.allclose(v, a, atol=1e-6)

    def test_clarke_theta_kink_gives_both_slopes(self):
        spec = ProviderSpec("clarke", delta=1e-3, m=32)
        x = np.array([0.5, 0.0])  # kink in the second coordinate
        jset = build_set(theta_map("a", 2, 0.5), x, spec, rng=3)
        vals = {round(float(v[0, 1]), 6) for v in jset.vertices}
        assert vals == {-0.5, 0.5}

    def test_clarke_smooth_map_hull_shrinks_with_delta(self):
        m = MapModel("sq2", 2, 2,
                     lambda xs: np.column_stack([xs[:, 0] ** 2,
                                                 xs[:, 0] * xs[:, 1]]))
        diams = []
        for delta in (1e-2, 1e-4, 1e-6):
            spec = ProviderSpec("clarke", delta=delta, m=16)
            jset = build_set(m, np.array([1.0, 2.0]), spec, rng=4)
            vs = jset.vertices
            diams.append(max(spectral_norm(a - b)
                             for a in vs for b in vs))
        assert diams[0] > diams[1] > diams[2]

    def test_clarke_redraw_exhaustion_raises(self):
        bad = MapModel("allnan", 1, 1, lambda xs: np.full_like(xs, np.nan))
        spec = ProviderSpec("clarke", delta=1e-3, m=2)
        with pytest.raises(FloatingPointError):
            build_set(bad, np.zeros(1), spec, rng=5)

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

    @pytest.mark.parametrize("radius, value", [(0.0, 1.0), (0.5, 1.5)])
    def test_a_ball_term_of_zero_times_inf_stays_finite(self, radius, value):
        # ||ystar|| overflows and ||v|| underflows, so the plain ball term
        # is radius * inf * 0; the one action is 1e200 * 1e-200
        jset = PseudoJacobianSet([[[1.0]]], radius)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = support_function(jset, [1e200], [1e-200])
        assert got == pytest.approx(value, rel=1e-15)

    def test_an_overflowing_outer_product_keeps_a_finite_action(self):
        # ystar (x) v overflows in its first entry, whose vertex entry is 0
        jset = PseudoJacobianSet([[[0.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert support_function(jset, [1e200], [1e200, 1.0]) == 1e200

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


class TestValidityCheck:
    def test_clarke_on_abs_passes(self):
        m = abs1d()
        jset = build_set(m, np.zeros(1),
                         ProviderSpec("clarke", delta=1e-3, m=32), rng=0)
        assert validity_check(m, np.zeros(1), jset, trials=200, rng=8) == 1.0

    def test_shrunken_set_fails(self):
        m = abs1d()
        jset = PseudoJacobianSet([np.array([[0.5]])], 0.0)
        assert validity_check(m, np.zeros(1), jset, trials=200, rng=9) < 1.0

    def test_linear_exact_passes(self):
        m = linear_map(np.array([[2.0, 1.0], [0.0, 3.0]]))
        jset = build_set(m, np.zeros(2), EXACT)
        assert validity_check(m, np.zeros(2), jset, trials=200, rng=10) == 1.0

    def test_counterexample_gap_is_exact_to_its_margin(self):
        # the exact set at theta-a:3:0.5's kink 0 is {I} (sign(0) = 0), not a
        # pseudo-Jacobian: f'(0; v) = v + 0.5 (|v_1|, |v_2|, 0).  The gap of
        # the reported pair, rederived in rationals, is positive and within
        # the reported margin of the reported gap
        m = theta_map("a", 3, 0.5)
        jset = build_set(m, np.zeros(3), EXACT)
        rate, worst = validity_check(m, np.zeros(3), jset, trials=200, rng=5,
                                     counterexample=True)
        assert rate < 0.1
        ys = [Fraction(y) for y in worst["ystar"]]
        vs = [Fraction(v) for v in worst["v"]]
        half = Fraction(1, 2)
        deriv = [vs[0] + half * abs(vs[1]), vs[1] + half * abs(vs[2]), vs[2]]
        value = sum(y * d for y, d in zip(ys, deriv))
        sup = max(sum(ys[i] * Fraction(float(vert[i, j])) * vs[j]
                      for i in range(3) for j in range(3))
                  for vert in jset.vertices)
        assert value - sup > 0
        assert abs(Fraction(worst["gap"]) - (value - sup)) <= \
            Fraction(worst["margin"])
        assert 0 < worst["margin"] < 1e-12

    def test_no_counterexample_without_a_proven_failure(self):
        # a sound set passes with none; the quotient path (abs1d has no
        # dir_deriv) reports none even where it fails
        m = theta_map("a", 3, 0.5)
        assert validity_check(m, np.zeros(3), build_set(m, np.zeros(3), SUM),
                              trials=200, rng=5, counterexample=True) == (1.0, None)
        rate, worst = validity_check(abs1d(), np.zeros(1),
                                     PseudoJacobianSet([[[0.5]]]), trials=200,
                                     rng=9, counterexample=True)
        assert rate < 1.0 and worst is None

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            validity_check(identity_map(2), np.zeros(2),
                           PseudoJacobianSet([np.eye(2)]), trials=0)

    def test_first_step_validation(self):
        for t0 in (0.0, -1e-3):
            with pytest.raises(ValueError):
                validity_check(identity_map(2), np.zeros(2),
                               PseudoJacobianSet([np.eye(2)]), t0=t0)
