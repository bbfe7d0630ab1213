import numpy as np
import pytest

from pjinv.maps import MapModel, abs_shift_map, linear_map, theta_map
from pjinv.properties import chain_rule_check, mvt_check, optimality_check
from pjinv.pseudojac import build_set, parse_provider, validity_check

EXACT = parse_provider("exact")
CLARKE = parse_provider("clarke:delta=1e-3,m=32,eps=0")


def abs1d():
    return MapModel("abs1d", 1, 1, np.abs)


class TestMvt:
    def test_linear_exact(self):
        m = linear_map(np.array([[2.0, 1.0], [0.0, 3.0]]))
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.uniform(-2, 2, 2)
            v = rng.uniform(-2, 2, 2)
            dist, ok = mvt_check(m, EXACT, u, v, segment_samples=4)
            assert ok
            assert dist <= 1e-10

    def test_abs_across_the_kink(self):
        dist, ok = mvt_check(abs1d(), CLARKE, np.array([-1.0]),
                             np.array([1.0]), rng=1)
        assert ok
        assert dist <= 1e-9

    def test_theta_c_clarke(self):
        m = theta_map("c", 4)
        rng = np.random.default_rng(2)
        for i in range(3):
            u = rng.uniform(-1, 1, 4)
            v = rng.uniform(-1, 1, 4)
            dist, ok = mvt_check(m, CLARKE, u, v, segment_samples=64,
                                 tol=1e-3, rng=i)
            assert ok, dist

    def test_refinement_never_worsens(self):
        m = abs_shift_map()
        u, v = np.array([-1.0]), np.array([0.7])
        coarse, _ = mvt_check(m, EXACT, u, v, segment_samples=4)
        fine, _ = mvt_check(m, EXACT, u, v, segment_samples=64)
        assert fine <= coarse + 1e-12

    def test_segment_samples_validation(self):
        with pytest.raises(ValueError):
            mvt_check(abs1d(), EXACT, np.zeros(1), np.ones(1),
                      segment_samples=1)


class TestOptimality:
    def test_abs_minimizer(self):
        dist, ok = optimality_check(abs1d(), CLARKE, np.zeros(1), rng=0)
        assert ok
        assert dist <= 1e-6

    def test_quadratic_minimizer(self):
        a = np.array([1.0, -2.0])
        m = MapModel("sqdist", 2, 1,
                     lambda xs: np.sum((xs - a) ** 2, axis=1, keepdims=True),
                     deriv=lambda xs: (2.0 * (xs - a))[:, None])
        dist, ok = optimality_check(m, EXACT, a)
        assert ok
        assert dist <= 1e-12

    def test_non_minimizer_fails(self):
        dist, ok = optimality_check(abs1d(), CLARKE, np.array([0.5]), rng=1)
        assert not ok
        assert dist == pytest.approx(1.0, abs=1e-5)

    def test_scalar_map_required(self):
        with pytest.raises(ValueError):
            optimality_check(theta_map("a", 2, 0.5), EXACT, np.zeros(2))


class TestChainRule:
    def test_linear_composition(self):
        f = linear_map(np.array([[1.0, 2.0], [0.0, 1.0]]))
        g = linear_map(np.array([[3.0, 0.0], [1.0, 1.0]]))
        rate = chain_rule_check(f, g, EXACT, np.array([0.3, -0.7]),
                                trials=200, rng=0)
        assert rate == 1.0

    def test_squared_norm_outer_annihilates_abs(self):
        f = abs1d()
        g = MapModel("sqnorm", 1, 1, lambda ys: ys ** 2,
                     deriv=lambda ys: (2.0 * ys)[:, None])
        rate = chain_rule_check(f, g, CLARKE, np.zeros(1), trials=200, rng=1)
        assert rate == 1.0

    def test_distance_outer_on_theta_a(self):
        f = theta_map("a", 3, 0.5)
        y0 = f(np.zeros(3)) + np.array([1.0, 1.0, 1.0])
        g = MapModel("dist-to-point", 3, 1,
                     lambda ys: np.linalg.norm(ys - y0, axis=1, keepdims=True),
                     deriv=lambda ys: ((ys - y0) / np.linalg.norm(
                         ys - y0, axis=1, keepdims=True))[:, None])
        rate = chain_rule_check(f, g, parse_provider("sum"), np.zeros(3),
                                trials=300, rng=2)
        assert rate == 1.0

    def test_identity_outer_reduces_to_validity_check(self):
        f = theta_map("a", 3, 0.5)
        eye = np.eye(3)
        g = MapModel("id-outer", 3, 3, lambda ys: ys.copy(),
                     deriv=lambda ys: np.broadcast_to(eye, (len(ys), 3, 3)))
        x = np.array([0.4, -0.2, 0.9])
        rate_chain = chain_rule_check(f, g, parse_provider("sum"), x,
                                      trials=250, rng=7)
        jset = build_set(f, x, parse_provider("sum"))
        rate_direct = validity_check(f, x, jset, trials=250, rng=7, t0=1e-3)
        assert rate_chain == rate_direct

    def test_incompatible_dims_rejected(self):
        with pytest.raises(ValueError):
            chain_rule_check(theta_map("a", 2, 0.5), abs1d(), EXACT,
                             np.zeros(2))

    def test_outer_needs_derivative(self):
        g = MapModel("no-deriv", 1, 1, lambda ys: ys)
        with pytest.raises(ValueError):
            chain_rule_check(abs1d(), g, EXACT, np.zeros(1))
