import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pjinv.hadamard
from oracles import reference_ball_points
from pjinv.hadamard import (BetaProfile, _profile_points, _shell_draws,
                            ball_inclusion_test, beta_profile, hadamard_verdict,
                            rho_at, write_profile_csv)
from pjinv.linalg import conorm
from pjinv.maps import (_ball_points, abs_shift_map, identity_map, linear_map,
                        theta_map)
from pjinv.pseudojac import parse_provider

SUM = parse_provider("sum")
EXACT = parse_provider("exact")


class TestBetaProfileType:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            BetaProfile([0.0], [1.0], "analytic")
        with pytest.raises(ValueError):
            BetaProfile([0.5, 1.0], [1.0, 1.0], "analytic")
        with pytest.raises(ValueError):
            BetaProfile([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], "analytic")

    def test_monotone_enforcement(self):
        p = BetaProfile([0.0, 1.0, 2.0], [1.0, 2.0, 0.5], "sampled")
        assert np.all(np.diff(p.beta) <= 0)

    def test_rho_is_trapezoid_integral(self):
        grid = np.linspace(0.0, 2.0, 9)
        beta = 1.0 / (1.0 + grid)
        p = BetaProfile(grid, beta, "analytic")
        oracle = np.concatenate(
            [[0.0], np.cumsum(np.diff(grid) * (beta[1:] + beta[:-1]) / 2)])
        assert np.allclose(p.rho, oracle, atol=1e-15)
        assert p.rho[0] == 0.0
        assert np.all(np.diff(p.rho) >= 0)


    def test_rho_lower_is_right_endpoint_sum(self):
        grid = np.linspace(0.0, 2.0, 9)
        beta = 1.0 / (1.0 + grid)
        p = BetaProfile(grid, beta, "analytic")
        oracle = np.concatenate([[0.0], np.cumsum(np.diff(grid) * beta[1:])])
        np.testing.assert_array_equal(p.rho_lower, oracle)


class TestBetaProfileConstruction:
    @pytest.mark.parametrize("grid_n", [2, 9, 65, 4097])
    def test_theta_c_rho_brackets_the_integral(self, grid_n):
        # beta = 1/(1+t) is decreasing and convex: the right-endpoint sum
        # under-estimates its integral ln(1+t), the trapezoid over-estimates it
        m = theta_map("c", 4)
        p = beta_profile(m, SUM, np.zeros(4), 3.0, grid_n=grid_n,
                         analytic=True)
        exact = np.log1p(p.grid)
        assert np.all(p.rho_lower <= exact)
        assert np.all(exact <= p.rho)
        assert p.rho_lower[-1] < p.rho[-1]


    def test_theta_c_analytic_integral(self):
        m = theta_map("c", 4)
        p = beta_profile(m, SUM, np.zeros(4), 2.0, grid_n=4097,
                         analytic=True)
        assert p.mode == "analytic"
        assert rho_at(p, 1.0) == pytest.approx(np.log(2.0), abs=1e-6)

    def test_theta_a_constant_profile(self):
        m = theta_map("a", 4, 0.5)
        p = beta_profile(m, SUM, np.zeros(4), 2.0, grid_n=65,
                         analytic=True)
        assert np.allclose(p.beta, 0.5)
        assert rho_at(p, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_theta_b_zero_profile(self):
        m = theta_map("b", 4)
        p = beta_profile(m, SUM, np.zeros(4), 1.0, grid_n=17,
                         analytic=True)
        assert np.all(p.beta == 0.0)
        assert np.all(p.rho == 0.0)

    def test_sampled_profile_tracks_analytic_bound(self):
        m = theta_map("c", 3)
        p = beta_profile(m, SUM, np.zeros(3), 1.0, grid_n=9,
                         samples_per_shell=16, rng=0)
        assert p.mode == "sampled"
        # sampled inf of 1/(1 + ||x|| + r) over each ball stays within it
        for t, b in zip(p.grid, p.beta):
            assert b <= 1.0 / (1.0 + 0.0) + 1e-9
            assert b >= 1.0 / (1.0 + t + 1e-2) - 1e-6

    def test_more_shell_samples_only_shrink(self):
        m = theta_map("c", 3)
        few = beta_profile(m, SUM, np.zeros(3), 1.0, grid_n=9,
                           samples_per_shell=8, rng=1)
        many = beta_profile(m, SUM, np.zeros(3), 1.0, grid_n=9,
                            samples_per_shell=32, rng=1)
        assert np.all(many.beta <= few.beta + 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            beta_profile(identity_map(2), SUM, np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            beta_profile(identity_map(2), SUM, np.zeros(2), 1.0, grid_n=1)
        for count in (0, -1):
            with pytest.raises(ValueError, match="samples_per_shell"):
                beta_profile(identity_map(2), SUM, np.zeros(2), 1.0,
                             samples_per_shell=count)


@st.composite
def sum_pair_cases(draw):
    # a map with a constant smooth part, a center, a radius and a seed
    kind = draw(st.sampled_from(["theta-a", "theta-b", "theta-c", "identity",
                                 "abs-shift", "linear"]))
    n = 1 if kind == "abs-shift" else draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "theta-a":
        model = theta_map("a", n, draw(st.floats(-1.5, 1.5)))
    elif kind in ("theta-b", "theta-c"):
        model = theta_map(kind[-1], n)
    elif kind == "identity":
        model = identity_map(n)
    elif kind == "abs-shift":
        model = abs_shift_map()
    else:
        model = linear_map(rng.uniform(-3.0, 3.0, (n, n)))
    center = rng.uniform(-4.0, 4.0, n) * draw(st.sampled_from([0.0, 1.0]))
    return model, center, draw(st.floats(1e-3, 5.0)), rng


class TestSumRuleProfile:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(sum_pair_cases())
    def test_conorm_on_the_closed_ball_is_at_least_beta(self, case):
        # the derivative at x0 and at points of B(x0, t), the sphere
        # included, against the certified beta(t), with no slack beyond the
        # profile's own rounding margin
        model, center, t, rng = case
        beta = beta_profile(model, SUM, center, t, grid_n=2,
                            analytic=True).beta[-1]
        directions = rng.standard_normal((32, model.dim_in))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        scales = np.concatenate([[0.0, 1.0], rng.random(30)])
        zs = center + t * scales[:, None] * directions
        assert np.all(conorm(model.deriv(zs)) >= beta)

    def test_theta_c_away_from_the_origin(self):
        # h is s/(1+s)-Lipschitz on B(x0, t) for s = ||x0|| + t = 5 + t
        x0 = np.array([0.0, 5.0, 0.0])
        p = beta_profile(theta_map("c", 3), EXACT, x0, 4.0, grid_n=33,
                         analytic=True)
        np.testing.assert_allclose(p.beta, 1.0 / (6.0 + p.grid), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("family, args, bits", [
        ("a", (10, 0.5), ("0x1.fffffffffffd8p-2",) * 3),
        ("c", (3,), ("0x1.ffffffffffffap-1", "0x1.ffffffffffff4p-2",
                     "0x1.555555555554ap-2")),
    ])
    def test_analytic_profile_keeps_its_bits(self, family, args, bits):
        # reports print 12 digits, which hide the Weyl margin (theta-a:10:0.5
        # prints beta 0.5); its bits at t = 0, 1 and t_max = 2 do not
        m = theta_map(family, *args)
        p = beta_profile(m, SUM, np.zeros(m.dim_in), 2.0, grid_n=5,
                         analytic=True)
        assert tuple(float(b).hex() for b in p.beta[[0, 2, 4]]) == bits

    def test_center_of_the_wrong_dimension_is_refused(self):
        for analytic in (True, False):
            with pytest.raises(ValueError, match="expected dim 3"):
                beta_profile(theta_map("c", 3), SUM, np.zeros(1), 1.0,
                             grid_n=3, samples_per_shell=2, analytic=analytic)

    def test_a_smooth_part_without_lip_part_is_refused(self):
        m = identity_map(2)
        m.lip_part = None
        with pytest.raises(ValueError, match="no analytic profile bound"):
            beta_profile(m, SUM, np.zeros(2), 1.0, analytic=True)


class TestShellDraws:
    ARGS = (theta_map("a", 3, 0.5), SUM, np.zeros(3), 2.0)

    def test_cached_draws_are_read_only(self):
        units, scale = _shell_draws(3, 4, 5)
        assert units.shape == (16, 3) and scale.shape == (16, 1)
        for array in (units, scale):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0

    @pytest.mark.parametrize("n, grid_n, count",
                             [(3, 4, 5), (10, 32, 32), (2, 9, 16)])
    def test_profile_points_are_ball_points_of_the_draws(self, n, grid_n, count):
        # the cached directions give the bits of _ball_points on the draws,
        # and so of the row-wise transform, for a tall block of 129 x 2 too
        draws = np.ones((1 + (grid_n - 1) * count, n + 2))
        for j in range(1, grid_n):
            draws[1 + (j - 1) * count:1 + j * count] = (
                np.random.default_rng(j).standard_normal((count, n + 2)))
        radial = np.exp(-(draws[:, n:n + 1] ** 2 + draws[:, n + 1:] ** 2) / 2.0)
        center = np.random.default_rng(n).uniform(-2.0, 2.0, n)
        grid = np.linspace(0.0, 1.5, grid_n)
        radii = np.repeat(grid, [1] + [count] * (grid_n - 1))[:, None]
        expected = _ball_points(center, radii, draws[:, :n], radial)
        reference = reference_ball_points(center, radii, draws[:, :n], radial)
        assert expected.tobytes() == reference.tobytes()
        expected[0] = center
        np.testing.assert_array_equal(_profile_points(center, grid, count),
                                      expected)

    def test_a_second_profile_draws_nothing(self, monkeypatch):
        # the first profile seeds its three shells' generators; the second,
        # of the same (n, grid_n, count), makes only its provider generator
        seeds = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        _shell_draws.cache_clear()
        monkeypatch.setattr(np.random, "default_rng", spy)
        first = beta_profile(*self.ARGS, grid_n=4, samples_per_shell=5, rng=7)
        assert seeds == [7, 1, 2, 3]
        seeds.clear()
        second = beta_profile(*self.ARGS, grid_n=4, samples_per_shell=5, rng=7)
        assert seeds == [7]
        np.testing.assert_array_equal(first.beta, second.beta)

    def test_an_oversized_profile_is_refused_before_drawing(self, monkeypatch):
        # (1 + 3 * count) rows of 3 + 2 draws, against a limit of 100
        monkeypatch.setattr(pjinv.hadamard, "MAX_PROFILE_DRAWS", 100)
        _shell_draws.cache_clear()
        with pytest.raises(ValueError, match="draws"):
            beta_profile(*self.ARGS, grid_n=4, samples_per_shell=7)
        assert _shell_draws.cache_info().misses == 0
        beta_profile(*self.ARGS, grid_n=4, samples_per_shell=6)
        # an analytic profile draws nothing
        beta_profile(*self.ARGS, grid_n=4, samples_per_shell=7,
                     analytic=True)


class TestVerdict:
    def test_analytic_divergent(self):
        m = theta_map("c", 3)
        p = beta_profile(m, SUM, np.zeros(3), 2.0, grid_n=33,
                         analytic=True)
        assert hadamard_verdict(p, analytic_divergent=True) \
            == "diverges_analytic"

    def test_zero_profile_fails(self):
        m = theta_map("b", 3)
        p = beta_profile(m, SUM, np.zeros(3), 1.0, grid_n=9,
                         analytic=True)
        assert hadamard_verdict(p, analytic_divergent=False) == "fails"

    def test_sampled_never_certifies_divergence(self):
        m = theta_map("a", 3, 0.5)
        p = beta_profile(m, SUM, np.zeros(3), 1.0, grid_n=5,
                         samples_per_shell=4, rng=2)
        assert hadamard_verdict(p, analytic_divergent=True) \
            == "inconclusive_growing"

    def test_decayed_profile_flat(self):
        p = BetaProfile([0.0, 1.0, 2.0], [1.0, 1e-3, 1e-3], "sampled")
        assert hadamard_verdict(p) == "inconclusive_flat"


class TestBallInclusion:
    def test_identity(self):
        m = identity_map(2)
        p = beta_profile(m, EXACT, np.zeros(2), 1.0, grid_n=9,
                         analytic=True)
        rate = ball_inclusion_test(m, EXACT, np.zeros(2), 1.0, p,
                                   samples=10, rng=0)
        assert rate == 1.0

    def test_linear_diag(self):
        m = linear_map(np.diag([2.0, 3.0]))
        p = beta_profile(m, EXACT, np.zeros(2), 1.0, grid_n=9,
                         analytic=True)
        assert rho_at(p, 1.0) == pytest.approx(2.0, abs=1e-12)
        rate = ball_inclusion_test(m, EXACT, np.zeros(2), 1.0, p,
                                   samples=20, rng=1)
        assert rate == 1.0

    def test_theta_a(self):
        m = theta_map("a", 5, 0.5)
        p = beta_profile(m, SUM, np.zeros(5), 1.0, grid_n=9,
                         analytic=True)
        rate = ball_inclusion_test(m, SUM, np.zeros(5), 1.0, p,
                                   samples=20, rng=2)
        assert rate == 1.0

    def test_no_samples_is_refused(self):
        m = identity_map(2)
        p = beta_profile(m, EXACT, np.zeros(2), 1.0, grid_n=3, analytic=True)
        with pytest.raises(ValueError, match="samples must be >= 1"):
            ball_inclusion_test(m, EXACT, np.zeros(2), 1.0, p, samples=0)

    @pytest.mark.parametrize("delta", [0.0, -0.5, float("nan")])
    def test_empty_source_ball_is_refused(self, delta):
        # the test asks for a solution strictly inside B(x0, delta)
        m = identity_map(2)
        p = beta_profile(m, EXACT, np.zeros(2), 1.0, grid_n=3,
                         analytic=True)
        with pytest.raises(ValueError):
            ball_inclusion_test(m, EXACT, np.zeros(2), delta, p, samples=2)


class TestCsvExport:
    def test_format(self, tmp_path):
        p = BetaProfile([0.0, 0.5, 1.0], [1.0, 0.8, 0.5], "analytic")
        out = tmp_path / "profile.csv"
        write_profile_csv(p, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,beta,rho"
        assert len(lines) == 4
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.allclose(data[:, 0], p.grid)
        assert np.allclose(data[:, 1], p.beta)
        assert np.allclose(data[:, 2], p.rho)

    def test_fields_round_trip_to_the_bit(self, tmp_path):
        # a dyadic beta puts rho on a 13th-digit tie at every 4th point of
        # this grid, which 12 significant digits round either way after a
        # 1-ulp change of beta
        grid, half = np.linspace(0.0, 1.0, 4097), np.full(4097, 0.5)
        for beta in (half, np.nextafter(half, 1.0),
                     np.random.default_rng(0).uniform(0.1, 2.0, 4097)):
            p = BetaProfile(grid, beta, "analytic")
            out = tmp_path / "profile.csv"
            write_profile_csv(p, out)
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            got = np.array([[float(field) for field in row] for row in rows])
            for col, want in zip(got.T, (p.grid, p.beta, p.rho)):
                assert col.tobytes() == np.asarray(want, dtype=float).tobytes()


def test_rho_at_rejects_out_of_range():
    p = BetaProfile([0.0, 1.0], [1.0, 1.0], "analytic")
    with pytest.raises(ValueError):
        rho_at(p, 2.0)
