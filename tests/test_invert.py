import copy
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pjinv.invert
import pjinv.linalg
from oracles import (counting, loop_path_lift, reference_descent_directions,
                     reference_newton_direction, reference_newton_element)
from pjinv.invert import (InversionTrace, ekeland_descent,
                          inverse_lipschitz_probe, path_lift_invert,
                          semismooth_newton)
from pjinv.linalg import conorm
from pjinv.maps import (MapModel, abs_shift_map, complexsq_map, evaluate,
                        exp1d_map, identity_map, linear_map, theta_map)
from pjinv.pseudojac import PseudoJacobianSet, parse_provider

EXACT = parse_provider("exact")
SUM = parse_provider("sum")
CLARKE = parse_provider("clarke:delta=1e-4,m=8,eps=0")


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

    def test_newton_steps_only_in_path_records(self):
        # a count, like stationary_distance for Ekeland: Newton and
        # Ekeland records keep their fields
        for method in ("newton", "ekeland"):
            tr = InversionTrace(method, [1.0], [np.zeros(2)], [0.0],
                                "converged")
            assert "newton_steps" not in tr.to_record()
        tr = InversionTrace("path", [0.0, 1.0], [np.zeros(2), np.ones(2)],
                            [0.0, 0.0], "converged", newton_steps=3)
        assert tr.to_record()["newton_steps"] == 3


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

    @pytest.mark.parametrize("model, target, distance", [
        (exp1d_map(), [-1.0], 1.0), (complexsq_map(), [1.0, 1.0], 2 ** 0.5)])
    def test_a_failed_lift_reports_its_distance_to_the_target(
            self, model, target, distance):
        # exp1d stops near t = 0.5 and complexsq, singular at 0, at its
        # start; each node's corrector met the tolerance, the lift did not
        y = np.array(target)
        tr = path_lift_invert(model, SUM, np.zeros(model.dim_in), y)
        assert tr.status == "step_underflow" and tr.residuals[-1] <= 1e-10
        assert tr.final_residual == np.linalg.norm(evaluate(model, tr.final_x)
                                                   - y)
        assert tr.final_residual == pytest.approx(distance, rel=1e-9)
        assert tr.to_record()["final_residual"] == tr.final_residual

    def test_a_converged_lift_reports_its_last_node(self):
        # p(1) is the target to the bit, so the last node's residual is the
        # residual to the target
        tr = path_lift_invert(theta_map("a", 4, 0.5), SUM, np.zeros(4),
                              np.array([1.0, -2.0, 3.0, 0.5]))
        assert tr.status == "converged"
        assert tr.final_residual == tr.residuals[-1] <= 1e-10

    def test_accepted_correctors_meet_tolerance(self):
        m = theta_map("c", 4)
        tol = 1e-10
        tr = path_lift_invert(m, EXACT, np.zeros(4), np.ones(4), tol=tol)
        assert all(r <= tol for r in tr.residuals[1:])


def recorded_points(monkeypatch, model):
    """The points of every oracle call on model, one-row ``fn`` and
    multi-row ``fn_batch`` (whose rows bypass ``fn``), as bytes in order."""
    seen = []
    fn, fn_batch = model.fn, model.fn_batch

    def one(x):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return fn(x)

    def rows(xs):
        seen.extend(x.tobytes() for x in np.asarray(xs, dtype=float))
        return fn_batch(xs)

    monkeypatch.setattr(model, "fn", one)
    monkeypatch.setattr(model, "fn_batch", rows)
    return seen


def cubic_map(nan_outside=False):
    # x + x^3 on [-1 - 1e-6, 1 + 1e-6]: the lift of [0, 2] is concave in t
    # and ends at x = 1, so secant predictions overshoot the box near t = 1.
    # With nan_outside the box is R and the values outside it are NaN
    edge = 1.0 + 1e-6
    if nan_outside:
        return MapModel(
            "cubic-nan", 1, 1,
            lambda xs: np.where(np.abs(xs) > edge, np.nan, xs + xs ** 3),
            deriv=lambda xs: (1.0 + 3.0 * xs ** 2)[:, :, None],
            rows_match=True)
    return MapModel("cubic", 1, 1, lambda xs: xs + xs ** 3,
                    deriv=lambda xs: (1.0 + 3.0 * xs ** 2)[:, :, None],
                    domain_halfwidth=edge, rows_match=True)


class TestSecantPredictor:
    @pytest.fixture
    def correctors(self, monkeypatch):
        """(start, f at the start, target, last node, f there) of each
        corrector, in order, and (point, f, misfit norm) of each prediction
        that the walk offered a node, f None where it could not be
        evaluated: the rows of the plans that the walk took."""
        log = {"correctors": [], "predictions": []}
        newton, plan = semismooth_newton, pjinv.invert._plan
        node = []

        def corrector(model, provider, y, x0, **kwargs):
            if not node:
                # the first corrector starts from the lift's x0
                node[:] = x0, kwargs["fx0"]
            log["correctors"].append((x0, kwargs["fx0"], y, *node))
            tr = newton(model, provider, y, x0, **kwargs)
            if tr.status == "converged":
                node[:] = tr.final_x, tr.final_fx
            return tr

        def planned(*args):
            for row in plan(*args):
                _, guess, f_guess, miss, _ = row
                if guess is not None:
                    log["predictions"].append((guess, f_guess, miss))
                yield row

        monkeypatch.setattr(pjinv.invert, "semismooth_newton", corrector)
        monkeypatch.setattr(pjinv.invert, "_plan", planned)
        return log

    # kept: the correctors that start from their prediction
    @pytest.mark.parametrize("model,provider,x0,y,kept", [
        # on the ray x(t) = t x*, every prediction after the first node
        (theta_map("a", 4, 0.5), CLARKE, [0.0] * 4, [1.0, -2.0, 0.5, 3.0],
         15),
        # off the ray the path crosses kinks, and 2 of 15 predictions miss
        (theta_map("b", 4), SUM, [0.3, -0.2, 0.1, 0.5],
         [-1.0, 2.0, -2.0, -4.0], 13),
        # correctors fail and halve the step; 52 correctors in all
        (exp1d_map(), EXACT, [0.0], [-1.0], 51),
    ], ids=["theta-a-clarke", "theta-b-sum-off-ray", "exp1d-exact"])
    def test_no_corrector_starts_farther_than_the_last_node(
            self, correctors, model, provider, x0, y, kept):
        path_lift_invert(model, provider, np.array(x0), np.array(y), rng=0)
        starts = correctors["correctors"]
        # one prediction for each corrector but the first
        assert len(correctors["predictions"]) == len(starts) - 1 > 0
        assert np.array_equal(starts[0][0], x0)
        for start, f_start, target, node, f_node in starts:
            assert np.array_equal(f_start, evaluate(model, start))
            assert (np.linalg.norm(f_start - target)
                    <= np.linalg.norm(f_node - target))
        assert sum(not np.array_equal(start, node)
                   for start, _, _, node, _ in starts) == kept

    def test_a_lift_that_stays_put_evaluates_its_start_once(self,
                                                             monkeypatch):
        # the target is f(x0), so every node is x0 and so is every secant
        # prediction: x0 is the one point evaluated
        model, x0 = theta_map("a", 3, 0.5), np.array([1.0, -2.0, 0.5])
        y = model.fn(x0)
        seen = recorded_points(monkeypatch, model)
        tr = path_lift_invert(model, EXACT, x0, y, rng=0)
        assert tr.status == "converged" and tr.newton_steps == 0
        assert seen == [x0.tobytes()]

    def test_a_prediction_outside_the_box_starts_from_the_last_node(
            self, correctors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = path_lift_invert(cubic_map(), EXACT, np.zeros(1),
                                  np.array([2.0]), rng=0)
        assert tr.status == "converged"
        assert tr.final_x == pytest.approx([1.0], abs=1e-10)
        outside = [(x, f, miss) for x, f, miss in correctors["predictions"]
                   if abs(x[0]) > 1.0 + 1e-6]
        assert outside and all(f is None and miss == np.inf
                               for _, f, miss in outside)
        # each such prediction is followed by a corrector from the node
        for (x, _, miss), (start, _, _, node, _) in zip(
                correctors["predictions"], correctors["correctors"][1:]):
            if miss == np.inf:
                assert np.array_equal(start, node)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20), c=st.floats(-0.9, 0.9),
       provider=st.sampled_from([EXACT, SUM]), data=st.data())
def test_theta_a_lifts_reach_the_back_substitution_inverse(n, c, provider,
                                                           data):
    # |c| <= 0.9 keeps the inverse's Lipschitz constant, at most
    # 1 / (1 - |c|), at 10, so a residual of 1e-10 puts x within 1e-9
    box = st.floats(-5.0, 5.0)
    y = np.array(data.draw(st.lists(box, min_size=n, max_size=n)))
    x0 = data.draw(st.one_of(
        st.just([0.0] * n), st.lists(box, min_size=n, max_size=n).filter(any)))
    model = theta_map("a", n, c)
    tr = path_lift_invert(model, provider, np.array(x0), y, rng=0)
    assert tr.status == "converged"
    assert tr.final_residual <= 1e-10
    assert np.max(np.abs(tr.final_x - model.inverse(y))) <= 1e-8


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
        assert tr.status == "overflow"
        assert np.array_equal(tr.final_x, [0.0])

    def test_path_lifting_stops_at_the_first_corrector_overflow(
            self, monkeypatch):
        # every halved target still overflows the residual norm, so the
        # first corrector's "overflow" ends the run, not a step underflow
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return semismooth_newton(*args, **kwargs)

        monkeypatch.setattr(pjinv.invert, "semismooth_newton", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = path_lift_invert(exp1d_map(), EXACT, np.zeros(1),
                                  np.array([1e300]), rng=0)
        assert tr.status == "overflow"
        assert len(calls) == 1


class TestPseudoInverseFlag:
    def test_path_report_flags_a_corrector_fallback(self):
        # complexsq is singular at the origin: every corrector takes the
        # least-squares step there and fails, as Newton alone does
        m, y = complexsq_map(), np.array([1.0, 1.0])
        newton = semismooth_newton(m, EXACT, y, np.zeros(2), rng=0)
        assert newton.used_pseudoinverse
        tr = path_lift_invert(m, EXACT, np.zeros(2), y, rng=0)
        assert tr.status == "step_underflow"
        assert tr.used_pseudoinverse

    def test_regular_path_takes_no_fallback(self):
        tr = path_lift_invert(theta_map("a", 4, 0.5), EXACT, np.zeros(4),
                              np.array([1.0, -2.0, 0.5, 3.0]), rng=0)
        assert tr.status == "converged"
        assert not tr.used_pseudoinverse


# maps and providers whose vertices are all regular: a zero least-squares
# direction at a singular vertex would make trial points repeat
REGULAR_CASES = [
    (theta_map("a", 4, 0.5), EXACT, [1.0, -2.0, 0.5, 3.0]),
    (theta_map("a", 4, 0.5), SUM, [1.0, -2.0, 0.5, 3.0]),
    (theta_map("a", 4, 0.5), CLARKE, [1.0, -2.0, 0.5, 3.0]),
    (exp1d_map(), EXACT, [2.0]),
]
REGULAR_IDS = ["theta-a-exact", "theta-a-sum", "theta-a-clarke", "exp1d-exact"]
INVERTERS = {
    "newton": lambda m, p, y, x0: semismooth_newton(m, p, y, x0, rng=0),
    "path": lambda m, p, y, x0: path_lift_invert(m, p, x0, y, rng=0),
    "ekeland": lambda m, p, y, x0: ekeland_descent(m, p, y, x0, rng=0),
}


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("method", sorted(INVERTERS))
    @pytest.mark.parametrize("model,provider,y", REGULAR_CASES,
                             ids=REGULAR_IDS)
    def test_no_point_reaches_the_oracle_twice(self, monkeypatch, method,
                                               model, provider, y):
        # a path lift's planned predictions reach fn_batch in one call;
        # the rows of a dropped plan count as evaluated points too
        seen = recorded_points(monkeypatch, model)
        tr = INVERTERS[method](model, provider, np.array(y),
                               np.zeros(model.dim_in))
        assert tr.status == "converged"
        assert seen and len(set(seen)) == len(seen)

    @pytest.mark.parametrize("model,provider,y", REGULAR_CASES,
                             ids=REGULAR_IDS)
    def test_a_given_start_value_changes_nothing(self, model, provider, y):
        x0 = np.full(model.dim_in, 0.25)
        given = semismooth_newton(model, provider, np.array(y), x0, rng=0,
                                  fx0=evaluate(model, x0))
        own = semismooth_newton(model, provider, np.array(y), x0, rng=0)
        assert given.to_record() == own.to_record()
        assert np.array_equal(given.final_fx, evaluate(model, given.final_x))


    @pytest.mark.parametrize("model,provider,y", [
        (theta_map("a", 4, 0.5), CLARKE, [1.0, -2.0, 0.5, 3.0]),
        (exp1d_map(), EXACT, [-1.0]),  # correctors fail and halve the step
    ], ids=["theta-a-clarke", "exp1d-exact"])
    def test_each_corrector_starts_from_f_at_its_start(self, monkeypatch,
                                                       model, provider, y):
        starts = []

        def spy(model, provider, y, x0, **kwargs):
            starts.append((x0.copy(), kwargs["fx0"]))
            return semismooth_newton(model, provider, y, x0, **kwargs)

        monkeypatch.setattr(pjinv.invert, "semismooth_newton", spy)
        path_lift_invert(model, provider, np.zeros(model.dim_in),
                         np.array(y), rng=0)
        assert len(starts) > 1
        for x0, fx0 in starts:
            assert np.array_equal(fx0, evaluate(model, x0))


def same_bits(a, b):
    # equal shapes and bytes; None only against None
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def patchy_map():
    # the identity on R^2, NaN where x_0 > 0.5: Clarke vertices drawn near
    # that patch are non-finite about half the time and are redrawn
    def fn_batch(xs):
        return np.where(xs[:, :1] > 0.5, np.nan, xs)

    return MapModel("patchy", 2, 2, fn_batch, rows_match=True)


def without_rows_match(model):
    # the same map, its multi-row oracle calls declared unlike one-row ones
    copied = copy.copy(model)
    copied.rows_match = False
    return copied


# each map with its start box, its target box (low and high ends) and the
# providers it takes: lifts that are straight (theta-a from 0), cross
# kinks or curve, that fail (exp1d to a negative target), that plan one
# node at a time (linear and a theta-a copy without rows_match), and whose
# predictions leave the box or reach NaN values (the cubics to a corner,
# +-2, where the lift ends at the edge), inside a plan or, in the copies
# without rows_match, as a plan's one node
CLARKE_TEXT = "clarke:delta=1e-4,m=8,eps=0"
ALL_PROVIDERS = ["exact", "sum", CLARKE_TEXT]
PLANNED_LIFTS = [
    (theta_map("a", 4, 0.5), 3.0, (-5.0, 5.0), ALL_PROVIDERS),
    (theta_map("b", 4), 3.0, (-5.0, 5.0), ALL_PROVIDERS),
    (theta_map("c", 3), 3.0, (-5.0, 5.0), ALL_PROVIDERS),
    (abs_shift_map(), 3.0, (-5.0, 5.0), ALL_PROVIDERS),
    (exp1d_map(), 1.0, (-3.0, 3.0), ALL_PROVIDERS),
    (linear_map(np.array([[2.0, 1.0, 0.0], [0.0, 3.0, -1.0],
                          [1.0, 0.0, 2.0]])), 3.0, (-5.0, 5.0),
     ALL_PROVIDERS),
    (without_rows_match(theta_map("a", 4, 0.5)), 3.0, (-5.0, 5.0),
     ALL_PROVIDERS),
    (cubic_map(), 1.0, (-2.0, 2.0), ["exact", CLARKE_TEXT]),
    (cubic_map(nan_outside=True), 1.0, (-2.0, 2.0), ["exact"]),
    (without_rows_match(cubic_map()), 1.0, (-2.0, 2.0),
     ["exact", CLARKE_TEXT]),
    (without_rows_match(cubic_map(nan_outside=True)), 1.0, (-2.0, 2.0),
     ["exact"]),
]


def lift_outcome(lift, model, provider, x0, y, steps, seed):
    # the record, every node's bits and final_fx, or the error raised
    try:
        tr = lift(model, provider, x0, y, steps=steps, rng=seed)
    except (ValueError, FloatingPointError) as exc:
        return type(exc), str(exc)
    return tr.to_record(), [x.tobytes() for x in tr.iterates], tr.final_fx


def assert_same_lift(got, want):
    # repr tells -0.0 from 0.0 in the records
    assert repr(got[:2]) == repr(want[:2])
    if len(want) == 3:
        assert same_bits(got[2], want[2])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=st.sampled_from(PLANNED_LIFTS), data=st.data(),
       steps=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_planned_lifts_keep_the_bits_of_the_node_by_node_lift(case, data,
                                                              steps, seed):
    model, start_box, (low, high), providers = case
    provider = parse_provider(data.draw(st.sampled_from(providers)))
    rng = np.random.default_rng(seed)
    m = model.dim_out
    x0 = (np.zeros(model.dim_in) if data.draw(st.booleans())
          else rng.uniform(-start_box, start_box, model.dim_in))
    y = (np.where(rng.uniform(size=m) < 0.5, low, high)
         if data.draw(st.booleans()) else rng.uniform(low, high, m))
    assert_same_lift(
        lift_outcome(path_lift_invert, model, provider, x0, y, steps, seed),
        lift_outcome(loop_path_lift, model, provider, x0, y, steps, seed))


@pytest.mark.parametrize("y", [[2.0, 2.0], [1.0, 0.5]])
def test_a_planned_lift_into_a_nan_patch_keeps_the_bits(y):
    # patchy's values are NaN in most rows of the first plan; its exact
    # sets (the identity's derivative) fail the lift in a few correctors
    model = patchy_map()
    model.deriv = lambda xs: np.broadcast_to(np.eye(2), (len(xs), 2, 2))
    got = lift_outcome(path_lift_invert, model, EXACT, np.zeros(2),
                       np.array(y), 16, 0)
    assert_same_lift(got, lift_outcome(loop_path_lift, model, EXACT,
                                       np.zeros(2), np.array(y), 16, 0))
    assert got[0]["status"] == "step_underflow"


def test_a_plan_refuses_an_oracle_of_the_wrong_shape():
    # a map that declares rows_match but answers many rows with one
    model = MapModel("first-row", 1, 1, lambda xs: xs[:1] + 0.0,
                     deriv=lambda xs: np.ones((len(xs), 1, 1)),
                     rows_match=True)
    with pytest.raises(ValueError, match="oracle returned shape"):
        path_lift_invert(model, EXACT, np.zeros(1), np.array([1.0]), rng=0)


# a wide map: every co-norm is 0, so the first vertex is the element
WIDE = linear_map(np.array([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0]]))
ELEMENT_MAPS = [theta_map("a", 4, 0.5), complexsq_map(), WIDE]


@st.composite
def provider_texts(draw):
    kind = draw(st.sampled_from(["clarke", "exact", "sum", "ball"]))
    if kind == "clarke":
        delta = draw(st.sampled_from(["1e-4", "1e-2", "0.5"]))
        return f"clarke:delta={delta},m={draw(st.integers(1, 8))},eps=0"
    return "ball:r=1e-2,m=20" if kind == "ball" else kind


@settings(derandomize=True, deadline=None, max_examples=120)
@given(model=st.sampled_from(ELEMENT_MAPS), provider=provider_texts(),
       seed=st.integers(0, 2**32 - 1),
       zeroed=st.sampled_from([0.0, 0.5, 1.0]),
       scale=st.sampled_from([1.0, 1e-170, 1e160, 1e308]),
       nan=st.booleans())
def test_newton_element_and_misfit_keep_their_bits(model, provider, seed,
                                                   zeroed, scale, nan):
    # the element and the generator state after it, against the choice the
    # inverters made before: points in [-2, 2]^n, some coordinates zeroed
    # onto the kinks, where the Clarke vertices' co-norms differ
    spec = parse_provider(provider)
    points = np.random.default_rng(seed)
    x = points.uniform(-2.0, 2.0, model.dim_in)
    x[points.uniform(size=x.shape) < zeroed] = 0.0
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = pjinv.invert._newton_element(model, x, spec, got_rng)
    want = reference_newton_element(model, x, spec, want_rng)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # the misfit norm is np.linalg.norm's, also where it overflows to inf
    # (from scale 1e160 up) or is NaN, and it never warns
    fx = points.uniform(0.5, 1.0, model.dim_out) * scale
    fx *= points.choice([-1.0, 1.0], model.dim_out)
    if nan:
        fx[-1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, norm = pjinv.invert._misfit(fx, -fx)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_bits(r, fx + fx)
        assert same_bits(norm, np.linalg.norm(fx + fx))
    assert np.isnan(norm) if nan else np.isinf(norm) == (scale >= 1e160)


def test_newton_element_after_a_clarke_redraw():
    model, x = patchy_map(), np.array([0.5, 0.0])
    spec = parse_provider("clarke:delta=1e-2,m=6,eps=0")
    calls = counting(model)
    got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = pjinv.invert._newton_element(model, x, spec, got_rng)
    first_draw = len(calls["fn_batch"])
    want = reference_newton_element(model, x, spec, want_rng)
    assert first_draw > 2  # the two stencil calls, then redraws
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# a smallest singular value on either side of the solve rule's 1e-12
SIGMA_MIN = [None, 0.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11, 1e-3]


@st.composite
def operator_stacks(draw):
    # k operators of one shape (square, wide or tall) in [-1, 1], each with
    # its smallest singular value set to a drawn value (None: as drawn) or,
    # for rank deficiency, a column zeroed; then a residual of size m
    k, m, n = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertices = rng.uniform(-1.0, 1.0, (k, m, n))
    for v in vertices:
        sigma = draw(st.sampled_from(SIGMA_MIN))
        if sigma is not None:
            u, s, vt = np.linalg.svd(v, full_matrices=False)
            s[-1] = sigma
            v[:] = (u * s) @ vt
        elif draw(st.booleans()):
            v[:, rng.integers(n)] = 0.0
    return vertices, rng.uniform(-1e3, 1e3, m) * rng.uniform(size=m)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=operator_stacks(),
       t_conorm=st.sampled_from(SIGMA_MIN[1:-1] + [np.nextafter(1e-12, 0),
                                                   np.nextafter(1e-12, 1)]),
       given_conorm=st.sampled_from(["none", "drawn", "actual"]),
       scale=st.sampled_from([1.0, 1e300]))
def test_newton_direction_keeps_the_solve_rule(case, t_conorm, given_conorm,
                                               scale):
    # the Newton step's direction and flag for a singleton (no co-norm), a
    # co-norm at or next to 1e-12, and each operator's own co-norm; at
    # scale 1e300 a solve can overflow
    vertices, r = case
    r = r * scale
    for t_op, actual in zip(vertices, conorm(vertices)):
        c = {"none": None, "drawn": t_conorm, "actual": actual}[given_conorm]
        got, got_pinv = pjinv.invert._newton_direction(t_op, r, c)
        want, want_pinv = reference_newton_direction(t_op, r, c)
        assert same_bits(got, want) and got_pinv == want_pinv


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=operator_stacks(), seed=st.integers(0, 2**32 - 1))
# a square singleton of co-norm 1e-17, below 1e-12, whose solve is finite:
# Ekeland takes it, (-1, -1e17), as Newton does for a singleton, where a
# co-norm would have sent it to least squares, (-1, 0)
@example(case=(np.array([np.diag([1.0, 1e-17])]), np.array([1.0, 1.0])),
         seed=0)
def test_descent_directions_keep_the_solve_rule(case, seed):
    # one Ekeland step whose every trial is refused: the directions it
    # searches along, the vertices' first and in vertex order, against the
    # rule Ekeland used before it shared Newton's, and Newton's singleton
    # step for a one-vertex set
    vertices, r = case
    model = linear_map(vertices[0])
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0, model.dim_in)
    y = evaluate(model, x0) - r
    searched = []

    def refuse(model, x, d, y, accept):
        searched.append(d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pjinv.invert, "build_set",
                   lambda *args, **kw: PseudoJacobianSet(vertices))
        mp.setattr(pjinv.invert, "_line_search", refuse)
        tr = ekeland_descent(model, SUM, y, x0, tol=0.0, max_iter=1, rng=seed)
    assert tr.status in ("stationary", "max_iter") and len(tr.iterates) == 1
    want = reference_descent_directions(vertices, evaluate(model, x0) - y)
    assert len(searched) == len(vertices) + 2 * model.dim_in
    assert all(same_bits(d, w) for d, w in zip(searched, want))


@pytest.mark.parametrize("provider", [EXACT, SUM])
def test_ekeland_takes_no_singleton_svd_and_keeps_its_bits(monkeypatch,
                                                            provider):
    # theta-a:50:0.5 from 0 towards linspace(-2, 2, 50): every set is a
    # singleton whose co-norm is far above 1e-12.  The run makes no SVD,
    # and a run that hands each singleton's co-norm to the solve rule, as
    # Ekeland did before it skipped that SVD, takes the same steps to the
    # bit
    model, x0 = theta_map("a", 50, 0.5), np.zeros(50)
    y = np.linspace(-2.0, 2.0, 50)
    svds = []
    singular_values = pjinv.linalg.singular_values

    def counted(a):
        svds.append(np.shape(a))
        return singular_values(a)

    monkeypatch.setattr(pjinv.linalg, "singular_values", counted)
    got = ekeland_descent(model, provider, y, x0, rng=0)
    assert svds == []
    direction = pjinv.invert._newton_direction
    monkeypatch.setattr(
        pjinv.invert, "_newton_direction",
        lambda t_op, r, c=None: direction(t_op, r,
                                          conorm(t_op) if c is None else c))
    want = ekeland_descent(model, provider, y, x0, rng=0)
    assert len(svds) >= len(want.iterates) - 1 > 0
    assert got.status == want.status == "converged"
    assert same_bits(got.iterates, want.iterates)
    assert same_bits(got.residuals, want.residuals)


class TestWorkPerNewtonStep:
    """One ``build_set`` call and one ``singular_values`` call per Newton
    step, and no SVD for a singleton set: what the benchmark tracer's
    ``pseudojac.sets_built`` and ``linalg.svd_calls`` count in an invert
    workload."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"build_set": 0, "singular_values": 0, "traces": []}
        build_set = pjinv.invert.build_set
        singular_values = pjinv.linalg.singular_values
        newton = pjinv.invert.semismooth_newton

        def counted_build_set(*args, **kwargs):
            calls["build_set"] += 1
            return build_set(*args, **kwargs)

        def counted_singular_values(a):
            calls["singular_values"] += 1
            return singular_values(a)

        def corrector(*args, **kwargs):
            calls["traces"].append(newton(*args, **kwargs))
            return calls["traces"][-1]

        monkeypatch.setattr(pjinv.invert, "build_set", counted_build_set)
        monkeypatch.setattr(pjinv.linalg, "singular_values",
                            counted_singular_values)
        monkeypatch.setattr(pjinv.invert, "semismooth_newton", corrector)
        return calls

    @staticmethod
    def steps(traces):
        # every run converged, so each step was accepted as one iterate
        assert all(tr.status == "converged" for tr in traces)
        return sum(len(tr.iterates) - 1 for tr in traces)

    @staticmethod
    def invert(method, provider):
        # through the module, so that path lifting's correctors are counted
        model, x0 = theta_map("a", 4, 0.5), np.zeros(4)
        y = np.array([1.0, -2.0, 0.5, 3.0])
        if method == "newton":
            return pjinv.invert.semismooth_newton(model, provider, y, x0,
                                                  rng=0)
        return pjinv.invert.path_lift_invert(model, provider, x0, y, rng=0)

    @pytest.mark.parametrize("method", ["newton", "path"])
    def test_clarke_takes_one_build_and_one_svd_per_step(self, calls, method):
        self.invert(method, CLARKE)
        steps = self.steps(calls["traces"])
        assert steps > 1
        assert calls["build_set"] == calls["singular_values"] == steps

    def test_the_clarke_path_builds_nine_sets(self, calls):
        # the correctors start from the secant prediction: 32 Newton steps,
        # each one set build, when they started from the last node
        tr = self.invert("path", CLARKE)
        assert calls["build_set"] == self.steps(calls["traces"]) == 9
        assert tr.newton_steps == 9

    @pytest.mark.parametrize("method", ["newton", "path"])
    def test_a_singleton_takes_no_svd(self, calls, method):
        self.invert(method, EXACT)
        steps = self.steps(calls["traces"])
        assert steps > 1
        assert calls["build_set"] == steps
        assert calls["singular_values"] == 0


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
        const = MapModel("const", 1, 1, np.zeros_like)
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
