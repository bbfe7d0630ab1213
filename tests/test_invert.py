import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pjinv.invert
import pjinv.linalg
from oracles import counting, reference_newton_element
from pjinv.invert import (InversionTrace, ekeland_descent,
                          inverse_lipschitz_probe, path_lift_invert,
                          semismooth_newton)
from pjinv.maps import (MapModel, abs_shift_map, complexsq_map, evaluate,
                        exp1d_map, identity_map, linear_map, theta_map)
from pjinv.pseudojac import parse_provider

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
        seen = []
        fn = model.fn

        def spy(x):
            seen.append(np.asarray(x, dtype=float).tobytes())
            return fn(x)

        monkeypatch.setattr(model, "fn", spy)
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

    return MapModel("patchy", 2, 2, fn_batch)


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
