import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pjinv.properties
from oracles import without_kinks
from pjinv.maps import (MapModel, abs_shift_map, complexsq_map, exp1d_map,
                        identity_map, linear_map, theta_map)
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
        # the grid of a map whose kinks are unknown
        m = without_kinks(abs_shift_map())
        u, v = np.array([-1.0]), np.array([0.7])
        coarse, _ = mvt_check(m, EXACT, u, v, segment_samples=4)
        fine, _ = mvt_check(m, EXACT, u, v, segment_samples=64)
        assert fine <= coarse + 1e-12

    def test_a_tol_below_the_hull_stop_passes_an_inclusion_that_holds(self):
        # the hull projection's default stop (1e-10) left 5.0e-11 here
        u = np.array([-0.128, 0.125, -0.44, 0.773, -0.576, 0.085])
        v = np.array([-0.664, 0.232, 0.804, 0.765, -0.731, 0.25])
        dist, ok = mvt_check(theta_map("c", 6), EXACT, u, v, tol=1e-12)
        assert ok
        assert dist <= 1e-15

    def test_segment_samples_validation(self):
        with pytest.raises(ValueError):
            mvt_check(abs1d(), EXACT, np.zeros(1), np.ones(1),
                      segment_samples=1)

    @pytest.mark.parametrize("u, v", [(np.zeros(2), np.ones(2)),
                                      (np.zeros(5), np.ones(5))])
    def test_ends_of_the_wrong_dimension_are_refused(self, u, v):
        # checked before the kink coordinates index them
        with pytest.raises(ValueError, match="expected dim 4"):
            mvt_check(theta_map("b", 4), EXACT, u, v)

    @pytest.mark.parametrize("model, u, v, sizes", [
        # piecewise-affine: one set per sign piece, whatever the grid
        (theta_map("a", 2, 0.5), [0.3, -0.5], [-0.2, 0.7], [2]),
        (theta_map("b", 3), [0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [1]),
        (linear_map(np.diag([2.0, 3.0])), [0.0, 1.0], [1.0, 0.0], [1]),
        # otherwise the grid, and the piece midpoints after it only when
        # the segment crosses a kink
        (theta_map("c", 3), [0.1, -0.2, 0.3], [0.4, 0.5, -0.6], [64 + 3]),
        (theta_map("c", 3), [0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [64]),
        (exp1d_map(), [-1.0], [1.0], [64]),
        (without_kinks(abs_shift_map()), [-1.0], [1.0], [64])])
    def test_sets_are_built_at_the_segment_times(self, monkeypatch, model, u,
                                                 v, sizes):
        seen, build = [], pjinv.properties.build_sets

        def counting_build(model, points, *args, **kwargs):
            seen.append(len(points))
            return build(model, points, *args, **kwargs)

        monkeypatch.setattr(pjinv.properties, "build_sets", counting_build)
        _, ok = mvt_check(model, EXACT, np.array(u), np.array(v))
        assert ok and seen == sizes

    def test_grid_points_keep_their_draws(self):
        # the grid's Clarke sets of a map that is not piecewise-affine are
        # drawn first, so the piece midpoints can only bring the distance
        # down
        m = theta_map("c", 3)
        u, v = np.array([0.1, -0.2, 0.3]), np.array([0.4, 0.5, -0.6])
        grid, _ = mvt_check(without_kinks(m), CLARKE, u, v, rng=3)
        pieces, _ = mvt_check(m, CLARKE, u, v, rng=3)
        assert pieces <= grid


# an end coordinate: any number in [-1, 1], a signed zero among them
_END = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0]))


@st.composite
def _segments(draw, n):
    """u, v in [-1, 1]^n: coordinates drawn in pairs, signed zeros and
    u_j = v_j = 0 among them, and some coordinates copies of another scaled
    by a power of two, which cross zero at the same t to the bit."""
    pairs = draw(st.lists(st.tuples(_END, _END), min_size=n, max_size=n))
    u, v = np.array(pairs).T.copy()
    copies = draw(st.dictionaries(st.integers(0, n - 1), st.tuples(
        st.integers(0, n - 1), st.sampled_from([0.5, 1.0, 2.0]))))
    for j, (k, scale) in copies.items():
        u[j], v[j] = scale * u[k], scale * v[k]
    return u, v


@st.composite
def _catalog_segments(draw, piecewise_affine_only):
    """A catalog map of dimension <= 10 and a segment of its domain."""
    kinds = ["theta-a", "theta-b", "identity", "linear", "abs-shift"]
    if not piecewise_affine_only:
        kinds += ["theta-c", "exp1d", "complexsq"]
    kind, n = draw(st.sampled_from(kinds)), draw(st.integers(1, 10))
    if kind == "theta-a":
        model = theta_map("a", n, draw(st.floats(-2.0, 2.0)))
    elif kind in ("theta-b", "theta-c"):
        model = theta_map(kind[-1], n)
    elif kind == "identity":
        model = identity_map(n)
    elif kind == "linear":
        rows = draw(st.integers(1, 10))
        model = linear_map(np.random.default_rng(
            draw(st.integers(0, 2**32 - 1))).standard_normal((rows, n)))
    else:
        model = {"abs-shift": abs_shift_map, "exp1d": exp1d_map,
                 "complexsq": complexsq_map}[kind]()
    return (model, *draw(_segments(model.dim_in)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_catalog_segments(piecewise_affine_only=True))
@example((theta_map("b", 5), np.array([0.7, 0.25, -0.0, 0.5, 0.0]),
          np.array([-0.1, -0.5, 0.0, -1.0, 0.0])))
def test_piecewise_affine_segments_are_exact(case):
    # one exact set per sign piece gives the hull of the mean value
    # inclusion, so f(v) - f(u) lies in it to rounding
    model, u, v = case
    dist, _ = mvt_check(model, EXACT, u, v)
    assert dist <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_catalog_segments(piecewise_affine_only=False))
def test_sign_pieces_never_lose_to_the_grid(case):
    model, u, v = case
    pieces, _ = mvt_check(model, EXACT, u, v)
    grid, _ = mvt_check(without_kinks(model), EXACT, u, v, segment_samples=64)
    assert pieces <= grid + 1e-12


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
        f = MapModel("abs1d", 1, 1, np.abs, dir_deriv=lambda xs, vs: np.where(
            xs == 0.0, np.abs(vs), np.sign(xs) * vs))
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

    def test_inner_needs_dir_deriv(self):
        g = MapModel("sqnorm", 1, 1, lambda ys: ys ** 2,
                     deriv=lambda ys: (2.0 * ys)[:, None])
        with pytest.raises(ValueError, match="abs1d: inner map needs"):
            chain_rule_check(abs1d(), g, CLARKE, np.zeros(1), rng=1)
