import warnings

import numpy as np
import pytest

from pjinv.invert import (InversionTrace, ekeland_descent,
                          inverse_lipschitz_probe, path_lift_invert,
                          semismooth_newton)
from pjinv.maps import (abs_shift_map, exp1d_map, identity_map, linear_map,
                        theta_map)
from pjinv.pseudojac import parse_provider

EXACT = parse_provider("exact")
SUM = parse_provider("sum")


class TestTrace:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            InversionTrace("newton", [1.0], [np.zeros(2)], [0.0, 1.0],
                           "converged")

    def test_record_fields(self):
        tr = InversionTrace("path", [0.0, 1.0], [np.zeros(2), np.ones(2)],
                            [1.0, 0.0], "converged")
        rec = tr.to_record()
        assert rec["status"] == "converged"
        assert rec["iterations"] == 1
        assert rec["final_x"] == [1.0, 1.0]


class TestNewton:
    def test_linear_one_step(self):
        m = linear_map(np.diag([2.0, 3.0]))
        tr = semismooth_newton(m, EXACT, np.array([4.0, 9.0]), np.zeros(2))
        assert tr.status == "converged"
        assert np.allclose(tr.final_x, [2.0, 3.0], atol=1e-10)
        assert len(tr.iterates) <= 3

    def test_abs_shift_positive_branch(self):
        tr = semismooth_newton(abs_shift_map(), EXACT, np.array([3.0]),
                               np.zeros(1))
        assert tr.status == "converged"
        assert np.allclose(tr.final_x, [2.0], atol=1e-9)

    def test_theta_c_matches_back_substitution(self):
        m = theta_map("c", 5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            y = rng.uniform(-2.0, 2.0, 5)
            tr = semismooth_newton(m, EXACT, y, np.zeros(5), tol=1e-12)
            assert tr.status == "converged"
            assert np.allclose(tr.final_x, m.inverse(y), atol=1e-8)

    def test_round_trip_residual(self):
        m = theta_map("a", 4, 0.5)
        tr = semismooth_newton(m, SUM, np.array([1.0, -1.0, 0.5, 2.0]),
                               np.zeros(4), tol=1e-10)
        assert tr.status == "converged"
        assert np.linalg.norm(m(tr.final_x)
                              - np.array([1.0, -1.0, 0.5, 2.0])) <= 1e-10

    def test_residuals_monotone(self):
        m = theta_map("c", 4)
        tr = semismooth_newton(m, EXACT, np.ones(4), np.zeros(4))
        assert all(b < a for a, b in zip(tr.residuals, tr.residuals[1:]))


class TestPathLift:
    def test_identity_immediate(self):
        tr = path_lift_invert(identity_map(3), EXACT, np.zeros(3),
                              np.array([1.0, 2.0, 3.0]))
        assert tr.status == "converged"
        assert np.allclose(tr.final_x, [1.0, 2.0, 3.0], atol=1e-10)

    @pytest.mark.parametrize("kind,c", [("a", 0.5), ("b", None), ("c", None)])
    def test_theta_oracle_agreement(self, kind, c):
        m = theta_map(kind, 8, c)
        provider = EXACT
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = rng.uniform(-3.0, 3.0, 8)
            tr = path_lift_invert(m, provider, np.zeros(8), y, tol=1e-10)
            assert tr.status == "converged"
            assert np.allclose(tr.final_x, m.inverse(y), atol=1e-8)

    def test_t_grid_strictly_increasing(self):
        m = theta_map("a", 4, 0.5)
        tr = path_lift_invert(m, SUM, np.zeros(4), np.ones(4))
        assert all(b > a for a, b in zip(tr.t_grid, tr.t_grid[1:]))
        assert tr.t_grid[-1] == pytest.approx(1.0)

    def test_exp_negative_target_never_converges(self):
        tr = path_lift_invert(exp1d_map(), EXACT, np.zeros(1),
                              np.array([-1.0]))
        assert tr.status in ("diverged", "step_underflow")

    def test_accepted_correctors_meet_tolerance(self):
        m = theta_map("c", 4)
        tol = 1e-10
        tr = path_lift_invert(m, EXACT, np.zeros(4), np.ones(4), tol=tol)
        assert all(r <= tol for r in tr.residuals[1:])


class TestEkeland:
    def test_linear(self):
        m = linear_map(np.diag([2.0, 3.0]))
        tr = ekeland_descent(m, EXACT, np.array([4.0, 9.0]), np.zeros(2),
                             rng=0)
        assert tr.status == "converged"
        assert np.allclose(tr.final_x, [2.0, 3.0], atol=1e-6)

    def test_identity(self):
        tr = ekeland_descent(identity_map(2), EXACT, np.array([5.0, -1.0]),
                             np.zeros(2), rng=1)
        assert tr.status == "converged"

    def test_exp_negative_target_residual_floor(self):
        # |e^x + 1| > 1 for every x: the infimum 1 is never attained
        tr = ekeland_descent(exp1d_map(), EXACT, np.array([-1.0]),
                             np.zeros(1), rng=2)
        assert tr.status in ("max_iter", "stationary")
        assert tr.final_residual > 1.0
        if tr.status == "stationary":
            assert tr.stationary_distance is not None

    def test_decrease_condition_holds(self):
        m = theta_map("a", 3, 0.5)
        lam = 1e-3
        tr = ekeland_descent(m, SUM, np.ones(3), np.zeros(3), lam=lam, rng=3)
        for (xa, ra), (xb, rb) in zip(zip(tr.iterates, tr.residuals),
                                      zip(tr.iterates[1:], tr.residuals[1:])):
            assert rb < ra - lam * np.linalg.norm(xb - xa) + 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ekeland_descent(identity_map(1), EXACT, np.zeros(1), np.zeros(1),
                            lam=0.0)

    def test_overflowing_residual_stops_with_a_status(self):
        # |e^0 - 1e300| is finite, but its square overflows in the norm;
        # an overflow RuntimeWarning would raise here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = ekeland_descent(exp1d_map(), EXACT, np.array([1e300]),
                                 np.zeros(1), rng=0)
        assert tr.status == "overflow"
        assert len(tr.iterates) == 1 and np.array_equal(tr.final_x, [0.0])
        assert tr.final_residual == np.inf


class TestNewtonOverflow:
    def test_overflowing_residual_stops_with_a_status(self):
        # the residual norm at x0 overflows: no step is taken (the Armijo
        # test inf <= inf once accepted a point outside the domain box) and
        # no overflow RuntimeWarning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = semismooth_newton(exp1d_map(), EXACT, np.array([1e300]),
                                   np.zeros(1), rng=0)
        assert tr.status == "overflow"
        assert len(tr.iterates) == 1 and np.array_equal(tr.final_x, [0.0])
        assert tr.final_residual == np.inf

    def test_path_lifting_never_leaves_the_box(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = path_lift_invert(exp1d_map(), EXACT, np.zeros(1),
                                  np.array([1e300]), rng=0)
        assert tr.status == "step_underflow"
        assert np.array_equal(tr.final_x, [0.0])


class TestInverseLipschitzProbe:
    def test_identity(self):
        est = inverse_lipschitz_probe(identity_map(2), np.zeros(2), 1.0,
                                      pairs=200, rng=0)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_linear_reciprocal_conorm(self):
        m = linear_map(np.diag([2.0, 3.0]))
        est = inverse_lipschitz_probe(m, np.zeros(2), 1.0, pairs=3000, rng=1)
        assert est <= 0.5 + 1e-12
        assert est >= 0.5 * 0.95

    def test_theta_a_bounded_by_reciprocal_gap(self):
        m = theta_map("a", 5, 0.5)
        est = inverse_lipschitz_probe(m, np.zeros(5), 5.0, pairs=2000, rng=2)
        assert est <= 2.0 * 1.05

    def test_constant_map_errors(self):
        from pjinv.maps import MapModel
        const = MapModel("const", 1, 1, lambda x: np.zeros(1))
        with pytest.raises(ValueError):
            inverse_lipschitz_probe(const, np.zeros(1), 1.0, pairs=10, rng=3)


def test_iterate_level_expansion_inside_certified_region():
    # consecutive Newton iterates obey the inverse-Lipschitz inequality
    m = theta_map("a", 4, 0.5)
    tr = semismooth_newton(m, SUM, np.array([0.5, -0.5, 0.25, 0.1]),
                           np.zeros(4), tol=1e-12)
    alpha = 0.5
    for xa, xb in zip(tr.iterates, tr.iterates[1:]):
        dx = np.linalg.norm(xb - xa)
        if dx == 0.0:
            continue
        assert np.linalg.norm(m(xb) - m(xa)) >= (alpha - 1e-9) * dx
