import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (chain_suite_map, complexsq_jacobian, dini_derivatives,
                     reference_check_point, theta_jacobian)
from pjinv.hadamard import beta_profile
from pjinv.indices import _stack_bounds, set_conorm_bounds
from pjinv.maps import (DomainError, MapModel, _check_point, abs_shift_map,
                        catalog_ids,
                        complexsq_map, evaluate, evaluate_batch, exp1d_map,
                        identity_map, linear_map, local_lipschitz_estimate,
                        make_map, numeric_jacobian, theta_back_substitute,
                        theta_map)
from pjinv.pseudojac import PseudoJacobianSet, build_sets, parse_provider


class TestEvaluate:
    def test_theta_a_direct_substitution(self):
        m = theta_map("a", 3, 0.5)
        assert np.allclose(m(np.array([1.0, -2.0, 4.0])), [2.0, 0.0, 4.0])

    def test_identity(self):
        m = identity_map(4)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(m(x), x)

    def test_theta_c_at_origin(self):
        assert np.allclose(theta_map("c", 2)(np.zeros(2)), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(theta_map("a", 3, 0.5), np.zeros(2))

    def test_domain_box(self):
        with pytest.raises(DomainError):
            evaluate(identity_map(2), np.array([2e6, 0.0]))
        with pytest.raises(DomainError):
            evaluate(exp1d_map(), np.array([701.0]))

    # (model, point): each check fails alone, and where two could fail the
    # one checked first (finiteness, then dimension, then the box) decides
    POINTS = [
        (theta_map("a", 3, 0.5), np.array([0.5, -1.0, 2.0])),
        (theta_map("a", 3, 0.5), np.zeros(2)),
        (theta_map("a", 3, 0.5), np.array([np.nan, 0.0, 0.0])),
        (theta_map("a", 3, 0.5), np.array([np.inf, 0.0])),
        (theta_map("a", 3, 0.5), np.array([2e6, 0.0, 0.0])),
        (theta_map("a", 3, 0.5), np.array([2e6, 0.0])),
        (theta_map("a", 3, 0.5), np.zeros((3, 1))),
        (theta_map("a", 3, 0.5), np.zeros(0)),
        (exp1d_map(), 3.0),
        (exp1d_map(), np.float64(701.0)),
        (exp1d_map(), np.nan),
        (exp1d_map(), [[1.0]]),
    ]

    @pytest.mark.parametrize("model, x", POINTS)
    def test_point_checks_keep_their_order(self, model, x):
        def outcome(check):
            try:
                return check(model, x).tobytes()
            except ValueError as exc:
                return type(exc), str(exc)

        assert outcome(_check_point) == outcome(reference_check_point)

    def test_batch_oracle_matches_pointwise(self):
        rng = np.random.default_rng(0)
        for m in (theta_map("a", 3, 0.5), theta_map("b", 3), theta_map("c", 3),
                  identity_map(3), linear_map(np.diag([2.0, 3.0, 4.0]))):
            xs = rng.uniform(-2.0, 2.0, (25, 3))
            batch = m.fn_batch(xs)
            for i in range(25):
                assert np.allclose(batch[i], m(xs[i]), atol=1e-14)
        for m in (abs_shift_map(), exp1d_map()):
            xs = rng.uniform(-2.0, 2.0, (25, 1))
            assert np.allclose(m.fn_batch(xs)[:, 0],
                               [m(x)[0] for x in xs], atol=1e-14)


def raised(call):
    """The exception type a call raises, or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestEvaluateBatch:
    def test_wrong_dimension_raises_like_evaluate(self):
        m = theta_map("a", 3, 0.5)
        assert raised(lambda: evaluate(m, np.zeros(2))) is ValueError
        assert raised(lambda: evaluate_batch(m, np.zeros((4, 2)))) is ValueError
        assert raised(lambda: evaluate_batch(m, np.zeros(3))) is ValueError

    def test_outside_domain_raises_like_evaluate(self):
        for m in (identity_map(2), exp1d_map()):
            xs = np.zeros((3, m.dim_in))
            xs[2, 0] = 2e6 if m.dim_in == 2 else 701.0
            assert raised(lambda: evaluate(m, xs[2])) is DomainError
            assert raised(lambda: evaluate_batch(m, xs)) is DomainError

    def test_non_finite_output_raises_like_evaluate(self):
        # exp(1000 x) is inf for x > 0.71: a finite point, a non-finite value
        m = MapModel("overflowing", 1, 1, lambda xs: np.exp(1000.0 * xs))
        xs = np.array([[0.0], [1.0]])
        with np.errstate(over="ignore"):
            assert raised(lambda: evaluate(m, xs[1])) is ValueError
            assert raised(lambda: evaluate_batch(m, xs)) is ValueError

    def test_non_finite_input_raises_like_evaluate(self):
        m = identity_map(2)
        xs = np.array([[0.0, 0.0], [np.nan, 0.0]])
        assert raised(lambda: evaluate(m, xs[1])) is ValueError
        assert raised(lambda: evaluate_batch(m, xs)) is ValueError

    def test_first_bad_row_decides(self):
        # row order decides as in a loop of evaluate calls, and rows at or
        # after the first point outside the box never reach the oracle
        m = MapModel("exp1000", 1, 1, lambda xs: np.exp(1000.0 * xs),
                     domain_halfwidth=5.0)
        with np.errstate(over="ignore"):
            assert raised(lambda: evaluate_batch(
                m, np.array([[0.0], [1.0], [6.0]]))) is ValueError
        assert raised(lambda: evaluate_batch(
            m, np.array([[0.0], [6.0], [1.0]]))) is DomainError

    def test_one_fn_batch_call(self):
        calls = []
        base = theta_map("c", 3)

        def fn_batch(xs):
            calls.append(len(xs))
            return base.fn_batch(xs)

        m = MapModel("theta-c", 3, 3, fn_batch)
        xs = np.random.default_rng(1).uniform(-2.0, 2.0, (40, 3))
        out = evaluate_batch(m, xs)
        assert calls == [40]
        np.testing.assert_array_equal(out, np.array([evaluate(base, x) for x in xs]))

    def test_wrong_oracle_shape(self):
        m = MapModel("short", 2, 3, lambda xs: xs[:, :1])
        assert raised(lambda: evaluate_batch(m, np.zeros((3, 2)))) is ValueError
        # no rows reach no oracle: the result is empty, dim_out wide
        assert evaluate_batch(m, np.empty((0, 2))).shape == (0, 3)


class TestNumericJacobian:
    def test_identity(self):
        jac = numeric_jacobian(identity_map(3), np.array([0.2, -0.4, 1.0]))
        assert np.allclose(jac, np.eye(3), atol=1e-9)

    def test_componentwise_square(self):
        m = MapModel("sq", 2, 2,
                     lambda xs: np.column_stack([xs[:, 0] ** 2, xs[:, 1]]))
        jac = numeric_jacobian(m, np.array([3.0, 1.0]))
        assert np.allclose(jac, [[6.0, 0.0], [0.0, 1.0]], atol=1e-6)

    def test_theta_a_off_kink(self):
        jac = numeric_jacobian(theta_map("a", 2, 0.5), np.array([1.0, 2.0]))
        assert np.allclose(jac, [[1.0, 0.5], [0.0, 1.0]], atol=1e-6)

    def test_matches_analytic_deriv_at_random_points(self):
        rng = np.random.default_rng(1)
        for m in (theta_map("c", 4), linear_map(rng.standard_normal((3, 3)))):
            for _ in range(10):
                x = rng.uniform(0.1, 2.0, m.dim_in)
                assert np.allclose(numeric_jacobian(m, x), m.deriv(x[None])[0],
                                   atol=1e-6)

    def test_nonfinite_raises(self):
        bad = MapModel("bad", 1, 1, lambda xs: np.where(xs > 0, np.inf, 0.0))
        with pytest.raises(FloatingPointError):
            numeric_jacobian(bad, np.zeros(1))


# catalog maps, each with its Jacobian in closed form where one is written
# out in tests/oracles.py
ROW_MAPS = [
    (theta_map("a", 4, 0.5), lambda x: theta_jacobian("a", x, 0.5)),
    (theta_map("a", 3, -1.5), lambda x: theta_jacobian("a", x, -1.5)),
    (theta_map("b", 3), lambda x: theta_jacobian("b", x)),
    (theta_map("c", 5), lambda x: theta_jacobian("c", x)),
    (theta_map("c", 1), lambda x: theta_jacobian("c", x)),
    (complexsq_map(), complexsq_jacobian),
    (identity_map(2), None),
    (linear_map(np.array([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0]])), None),
    (abs_shift_map(), None),
    (exp1d_map(), None),
]


@pytest.mark.parametrize("model, closed_form", ROW_MAPS,
                         ids=[model.name for model, _ in ROW_MAPS])
@settings(derandomize=True, deadline=None, max_examples=15)
@given(count=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
       zeroed=st.sampled_from([0.0, 0.5]), r=st.sampled_from([0.0, 1e-2, 2.0]))
def test_row_oracles_equal_one_row_calls(model, closed_form, count, seed,
                                         zeroed, r):
    # points in [-3, 3]^n, some coordinates zeroed onto the kinks
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-3.0, 3.0, (count, model.dim_in))
    xs[rng.uniform(size=xs.shape) < zeroed] = 0.0
    shape = (count, model.dim_out, model.dim_in)
    for oracle in (model.deriv, model.smooth_part):
        rows = oracle(xs)
        assert rows.shape == shape
        for x, row in zip(xs, rows):
            np.testing.assert_array_equal(oracle(x[None])[0], row, strict=True)
    radii = model.lip_part(xs, r)
    assert radii.shape == (count,)
    for x, radius in zip(xs, radii):
        assert model.lip_part(x[None], r)[0] == radius
    if closed_form is not None:
        for x, jac in zip(xs, model.deriv(xs)):
            np.testing.assert_array_equal(jac, closed_form(x))
    # the stacked bound of the sum sets equals each set's own bound
    vertices, set_radii = build_sets(model, xs, parse_provider("sum"))
    lower, upper, certified = _stack_bounds(vertices, set_radii, 1e-3)
    for i in range(count):
        bounds = set_conorm_bounds(PseudoJacobianSet(vertices[i], set_radii[i]))
        assert (bounds.lower, bounds.upper, bounds.certified) == \
            (lower[i], upper[i], certified[i])


# every catalog map and the chain suite's composed map, each with whether
# its multi-row oracle call must give each row the bits of its one-row call;
# linear's many-row gemm may round differently from its one-row call
EVALUATION_MAPS = [
    (identity_map(3), True),
    (linear_map(np.array([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0]])), False),
    (theta_map("a", 4, 0.5), True),
    (theta_map("b", 3), True),
    (theta_map("c", 5), True),
    (exp1d_map(), True),
    (complexsq_map(), True),
    (abs_shift_map(), True),
    (chain_suite_map(theta_map("c", 3)), True),
]


def assert_one_evaluation_path(model, xs, rows_match):
    # evaluate is the one-row case of evaluate_batch, to the bit
    ones = np.array([evaluate_batch(model, x[None])[0] for x in xs])
    for x, one in zip(xs, ones):
        np.testing.assert_array_equal(evaluate(model, x), one, strict=True)
    if rows_match:
        np.testing.assert_array_equal(evaluate_batch(model, xs), ones,
                                      strict=True)


@pytest.mark.parametrize("model, rows_match", EVALUATION_MAPS,
                         ids=[model.name for model, _ in EVALUATION_MAPS])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(count=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       zeroed=st.sampled_from([0.0, 0.5, 1.0]))
def test_single_points_take_the_row_oracle(model, rows_match, count, seed,
                                           zeroed):
    # points in [-3, 3]^n, some coordinates zeroed onto the kinks
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-3.0, 3.0, (count, model.dim_in))
    xs[rng.uniform(size=xs.shape) < zeroed] = 0.0
    assert_one_evaluation_path(model, xs, rows_match)


def test_complexsq_single_points_take_the_row_oracle():
    # a scalar form of x0^2 - x1^2 and 2 x0 x1 differs from the row form in
    # the last bit at about one point in a thousand
    xs = np.random.default_rng(17).uniform(-3.0, 3.0, (20_000, 2))
    assert_one_evaluation_path(complexsq_map(), xs, True)


class TestLocalLipschitz:
    def test_linear_map_spectral_norm(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        est = local_lipschitz_estimate(linear_map(a), np.zeros(2), 1.0,
                                       samples=5000, rng=0)
        nrm = np.linalg.norm(a, 2)
        assert est <= nrm + 1e-9
        assert est >= 0.95 * nrm

    def test_abs_at_zero(self):
        m = MapModel("abs1d", 1, 1, np.abs)
        est = local_lipschitz_estimate(m, np.zeros(1), 1.0, samples=500, rng=1)
        assert est == pytest.approx(1.0, abs=1e-3)

    def test_theta_c_nonsmooth_part_bound(self):
        # h = f - id; its local Lipschitz constant on B(0, t) is t/(1+t)
        tc = theta_map("c", 4)
        h = MapModel("theta-c-h", 4, 4, lambda xs: tc.fn_batch(xs) - xs)
        for t in (0.5, 1.0):
            est = local_lipschitz_estimate(h, np.zeros(4), t,
                                           samples=800, rng=2)
            assert est <= t / (1.0 + t) + 1e-3

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            local_lipschitz_estimate(identity_map(2), np.zeros(2), 1.0,
                                     samples=1)


class TestDiniDerivatives:
    # the per-point oracle behind loop_validity_check (tests/oracles.py)
    def test_abs_at_zero(self):
        up, lo = dini_derivatives(lambda x: abs(x[0]), np.zeros(1),
                                  np.ones(1))
        assert up == pytest.approx(1.0, abs=1e-12)
        assert lo == pytest.approx(1.0, abs=1e-12)

    def test_relu_backward_direction(self):
        up, lo = dini_derivatives(lambda x: max(x[0], 0.0), np.zeros(1),
                                  -np.ones(1))
        assert up == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_square_at_one(self):
        up, lo = dini_derivatives(lambda x: x[0] ** 2, np.ones(1), np.ones(1),
                                  t0=1e-5)
        assert up == pytest.approx(2.0, abs=1e-4)
        assert lo == pytest.approx(2.0, abs=1e-4)

    def test_lower_never_exceeds_upper(self):
        rng = np.random.default_rng(3)
        m = theta_map("c", 3)
        for _ in range(20):
            x = rng.uniform(-1, 1, 3)
            v = rng.standard_normal(3)
            ystar = rng.standard_normal(3)
            up, lo = dini_derivatives(lambda z: float(ystar @ m(z)), x, v)
            assert lo <= up

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            dini_derivatives(lambda x: x[0], np.zeros(1), np.ones(1), t0=-1.0)
        with pytest.raises(ValueError):
            dini_derivatives(lambda x: x[0], np.zeros(1), np.ones(1), rho=1.5)


class TestThetaInversion:
    @pytest.mark.parametrize("kind,c", [("a", 0.5), ("a", -0.3), ("b", None),
                                        ("c", None)])
    def test_back_substitution_roundtrip(self, kind, c):
        n = 6
        m = theta_map(kind, n, c)
        rng = np.random.default_rng(4)
        for _ in range(25):
            y = rng.uniform(-5.0, 5.0, n)
            x = m.inverse(y)
            assert np.allclose(m(x), y, atol=1e-12)

    def test_back_substitute_function_agrees(self):
        y = np.array([1.0, -2.0, 0.5])
        assert np.allclose(theta_back_substitute("a", 3, y, 0.5),
                           theta_map("a", 3, 0.5).inverse(y))

    def test_case_a_expansion_lower_bound(self):
        # ||f(x1) - f(x2)|| >= (1 - |c|) ||x1 - x2|| when |c| < 1
        m = theta_map("a", 5, 0.5)
        rng = np.random.default_rng(5)
        for _ in range(2000):
            x1 = rng.uniform(-3, 3, 5)
            x2 = rng.uniform(-3, 3, 5)
            assert (np.linalg.norm(m(x1) - m(x2))
                    >= 0.5 * np.linalg.norm(x1 - x2) - 1e-12)

    def test_theta_a_requires_coefficient(self):
        with pytest.raises(ValueError):
            theta_map("a", 3)
        with pytest.raises(ValueError):
            theta_map("z", 3)


class TestCatalog:
    def test_make_map_identifiers(self, tmp_path):
        assert make_map("identity").dim_in == 3
        assert make_map("theta-a:4:0.5").name == "theta-a:4:0.5"
        assert make_map("theta-b:4").dim_in == 4
        assert make_map("theta-c:7").dim_out == 7
        assert make_map("exp1d").dim_in == 1
        assert make_map("complexsq").dim_in == 2
        assert make_map("abs-shift").dim_in == 1
        mat = tmp_path / "a.txt"
        np.savetxt(mat, np.diag([2.0, 3.0]))
        m = make_map(f"linear:{mat}")
        assert np.allclose(m(np.array([1.0, 1.0])), [2.0, 3.0])

    def test_bad_identifiers(self):
        # a missing or an extra field is refused, never ignored
        for bad in ("nope", "theta-a:4", "linear", "linear:/no/such/file",
                    "abs-shift:0.9", "theta-a:10:0.5:9", "theta-b:3:7",
                    "theta-c:3:x", "identity:3:4", "exp1d:5", "complexsq:2"):
            with pytest.raises(ValueError):
                make_map(bad)

    def test_catalog_listing_stable(self):
        ids = [i for i, _ in catalog_ids()]
        assert "theta-c:<n>" in ids
        assert "exp1d" in ids
        assert ids == [i for i, _ in catalog_ids()]


def test_linear_map_analytic_data():
    m = linear_map(np.diag([2.0, 3.0]))
    assert np.allclose(m.inverse(np.array([4.0, 9.0])), [2.0, 3.0])
    p = beta_profile(m, parse_provider("sum"), np.zeros(2), 10.0,
                     analytic=True)
    assert p.beta == pytest.approx(2.0, abs=1e-12)
    assert m.beta_divergent


def test_abs_shift_inverse_branches():
    m = abs_shift_map()
    assert np.allclose(m.inverse(np.array([3.0])), [2.0])
    assert np.allclose(m.inverse(np.array([-1.0])), [-2.0])
    assert np.allclose(m(m.inverse(np.array([-0.7]))), [-0.7])
