import numpy as np
import pytest

from pjinv.maps import (DomainError, MapModel, abs_shift_map, catalog_ids,
                        dini_derivatives, evaluate, evaluate_batch, exp1d_map,
                        identity_map, linear_map, local_lipschitz_estimate,
                        make_map, numeric_jacobian, theta_back_substitute,
                        theta_map)


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


def overflowing(with_batch):
    # exp(1000 x) is inf for x > 0.71: a finite point, a non-finite value
    fn = lambda x: np.exp(1000.0 * x)
    return MapModel("overflowing", 1, 1, fn, fn_batch=fn if with_batch else None)


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

    @pytest.mark.parametrize("with_batch", [True, False])
    def test_non_finite_output_raises_like_evaluate(self, with_batch):
        m = overflowing(with_batch)
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
        m = MapModel("exp1000", 1, 1, lambda x: np.exp(1000.0 * x),
                     domain_halfwidth=5.0)
        with np.errstate(over="ignore"):
            assert raised(lambda: evaluate_batch(
                m, np.array([[0.0], [1.0], [6.0]]))) is ValueError
        assert raised(lambda: evaluate_batch(
            m, np.array([[0.0], [6.0], [1.0]]))) is DomainError

    def test_matches_fn_row_by_row_without_fn_batch(self):
        calls = []

        def fn(x):
            calls.append(1)
            return np.array([np.sin(x[0]) * x[1], x[0] ** 3, np.abs(x[1])])

        m = MapModel("rows", 2, 3, fn)
        xs = np.random.default_rng(0).uniform(-2.0, 2.0, (17, 2))
        out = evaluate_batch(m, xs)
        assert len(calls) == 17  # one fn call per row
        np.testing.assert_array_equal(out, np.array([fn(x) for x in xs]))
        assert evaluate_batch(m, np.empty((0, 2))).shape == (0, 3)

    def test_one_fn_batch_call(self):
        calls = []
        base = theta_map("c", 3)

        def fn_batch(xs):
            calls.append(len(xs))
            return base.fn_batch(xs)

        m = MapModel("theta-c", 3, 3, base.fn, fn_batch=fn_batch)
        xs = np.random.default_rng(1).uniform(-2.0, 2.0, (40, 3))
        out = evaluate_batch(m, xs)
        assert calls == [40]
        np.testing.assert_array_equal(out, np.array([evaluate(base, x) for x in xs]))

    def test_wrong_oracle_shape(self):
        m = MapModel("short", 2, 2, lambda x: x, fn_batch=lambda xs: xs[:, :1])
        assert raised(lambda: evaluate_batch(m, np.zeros((3, 2)))) is ValueError


class TestNumericJacobian:
    def test_identity(self):
        jac = numeric_jacobian(identity_map(3), np.array([0.2, -0.4, 1.0]))
        assert np.allclose(jac, np.eye(3), atol=1e-9)

    def test_componentwise_square(self):
        m = MapModel("sq", 2, 2, lambda x: np.array([x[0] ** 2, x[1]]))
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
                assert np.allclose(numeric_jacobian(m, x), m.deriv(x),
                                   atol=1e-6)

    def test_nonfinite_raises(self):
        bad = MapModel("bad", 1, 1,
                       lambda x: np.array([np.inf if x[0] > 0 else 0.0]))
        with pytest.raises(FloatingPointError):
            numeric_jacobian(bad, np.zeros(1))


class TestLocalLipschitz:
    def test_linear_map_spectral_norm(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        est = local_lipschitz_estimate(linear_map(a), np.zeros(2), 1.0,
                                       samples=5000, rng=0)
        nrm = np.linalg.norm(a, 2)
        assert est <= nrm + 1e-9
        assert est >= 0.95 * nrm

    def test_abs_at_zero(self):
        m = MapModel("abs1d", 1, 1, lambda x: np.abs(x))
        est = local_lipschitz_estimate(m, np.zeros(1), 1.0, samples=500, rng=1)
        assert est == pytest.approx(1.0, abs=1e-3)

    def test_theta_c_nonsmooth_part_bound(self):
        # h = f - id; its local Lipschitz constant on B(0, t) is t/(1+t)
        tc = theta_map("c", 4)
        h = MapModel("theta-c-h", 4, 4, lambda x: tc.fn(x) - x)
        for t in (0.5, 1.0):
            est = local_lipschitz_estimate(h, np.zeros(4), t,
                                           samples=800, rng=2)
            assert est <= t / (1.0 + t) + 1e-3

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            local_lipschitz_estimate(identity_map(2), np.zeros(2), 1.0,
                                     samples=1)


class TestDiniDerivatives:
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
        for bad in ("nope", "theta-a:4", "linear", "linear:/no/such/file"):
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
    assert m.analytic_beta(10.0) == pytest.approx(2.0, abs=1e-12)
    assert m.beta_divergent


def test_abs_shift_inverse_branches():
    m = abs_shift_map()
    assert np.allclose(m.inverse(np.array([3.0])), [2.0])
    assert np.allclose(m.inverse(np.array([-1.0])), [-2.0])
    assert np.allclose(m(m.inverse(np.array([-0.7]))), [-0.7])
