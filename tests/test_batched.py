"""Property tests: the batched kernels against loop references.

The references in oracles.py evaluate one vertex, or one validity trial, at
a time; the co-norm reference is the one-sided Jacobi SVD.  Entries lie in
[-1, 1] and every dimension is at most 6, so a sum of at most 36 products
of size <= 1 is off by well under 1e-12 in float64 whatever its summation
order.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pjinv.linalg
import pjinv.maps
import pjinv.pseudojac
from oracles import (chain_suite_map, exact_vertex_actions,
                     full_mesh_conorms, full_mesh_hull_bounds, jacobi_conorm,
                     loop_exact_validity, loop_stack_bounds,
                     loop_support_function, loop_validity_check,
                     without_dir_deriv)
from pjinv.indices import (DEFAULT_NET, MAX_MESH_POINTS, _level_bounds, _mesh,
                           _singleton_values, _stack_bounds, set_conorm_bounds)
from pjinv.linalg import _row_norms, conorm, spectral_norm
from pjinv.maps import (_unit_rows, abs_shift_map, complexsq_map, evaluate,
                        evaluate_batch, exp1d_map, identity_map, linear_map,
                        theta_map)
from pjinv.pseudojac import (PseudoJacobianSet, _dini_quotients, _dini_steps,
                             _support_bounds, build_set, parse_provider,
                             support_function, validity_check)

SUM_TOL = 1e-12
CONORM_TOL = 1e-11     # the bound test_linalg applies to single matrices

entries = st.floats(-1.0, 1.0, allow_subnormal=False)
dims = st.integers(1, 6)
radii = st.floats(0.0, 2.0, allow_subnormal=False)


def stacks(k, m, n):
    return arrays(np.float64, (k, m, n), elements=entries)


@st.composite
def set_and_vectors(draw):
    k, m, n = draw(dims), draw(dims), draw(dims)
    vertices = draw(stacks(k, m, n))
    ystar = draw(arrays(np.float64, m, elements=entries))
    v = draw(arrays(np.float64, n, elements=entries))
    return vertices, draw(radii), ystar, v


@settings(derandomize=True, deadline=None)
@given(set_and_vectors())
def test_support_function_matches_vertex_loop(case):
    vertices, radius, ystar, v = case
    batched = support_function(PseudoJacobianSet(vertices, radius), ystar, v)
    assert abs(batched - loop_support_function(vertices, radius, ystar, v)) <= SUM_TOL


@settings(derandomize=True, deadline=None)
@given(st.tuples(dims, dims, dims).flatmap(lambda s: stacks(*s)))
def test_batched_conorm_matches_jacobi_oracle(stack):
    # wide stacks (more columns than rows) have co-norm 0
    batched = conorm(stack)
    assert batched.shape == (len(stack),)
    oracle = np.array([jacobi_conorm(a) for a in stack])
    np.testing.assert_allclose(batched, oracle, rtol=0.0, atol=CONORM_TOL)


@st.composite
def stacked_pairs(draw):
    k, m, n, pairs = draw(dims), draw(dims), draw(dims), draw(dims)
    return (draw(stacks(k, m, n)), draw(radii),
            draw(arrays(np.float64, (pairs, m), elements=entries)),
            draw(arrays(np.float64, (pairs, n), elements=entries)))


@settings(derandomize=True, deadline=None)
@given(stacked_pairs())
def test_stacked_support_function_matches_vertex_loop(case):
    vertices, radius, ystars, vs = case
    batched = support_function(PseudoJacobianSet(vertices, radius), ystars, vs)
    assert batched.shape == (len(ystars),)
    loop = [loop_support_function(vertices, radius, y, v) for y, v in zip(ystars, vs)]
    np.testing.assert_allclose(batched, loop, rtol=0.0, atol=SUM_TOL)


@st.composite
def shared_bound_cases(draw):
    # a single pair, or a stack of up to 6 pairs, against k <= 40 vertices
    k, m, n = draw(st.integers(1, 40)), draw(dims), draw(dims)
    lead = draw(st.sampled_from([(), (1,), (2,), (6,)]))
    return (draw(stacks(k, m, n)), draw(st.floats(0.0, 1e3, allow_subnormal=False)),
            draw(arrays(np.float64, lead + (m,), elements=entries)),
            draw(arrays(np.float64, lead + (n,), elements=entries)))


@settings(derandomize=True, deadline=None)
@given(shared_bound_cases())
def test_shared_support_bounds_match_two_support_functions(case):
    # one product gives both bounds: the upper one is support_function and
    # the lower one is -support_function at -ystar, equal as floats (a zero
    # may differ in sign, which no comparison sees)
    vertices, radius, ystar, v = case
    jset = PseudoJacobianSet(vertices, radius)
    upper, lower = _support_bounds(jset, ystar, v)
    np.testing.assert_array_equal(upper, support_function(jset, ystar, v))
    np.testing.assert_array_equal(lower, -support_function(jset, -ystar, v))


# no product of three entries underflows, so Higham's bound holds as stated
normal_entries = entries.filter(lambda x: x == 0.0 or abs(x) >= 2.0 ** -300)


@st.composite
def error_bound_cases(draw):
    k = draw(st.integers(1, 40))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (1,), (6,)]))
    return (draw(arrays(np.float64, (k, m, n), elements=normal_entries)),
            draw(st.floats(0.0, 1e3, allow_subnormal=False)),
            draw(arrays(np.float64, lead + (m,), elements=normal_entries)),
            draw(arrays(np.float64, lead + (n,), elements=normal_entries)))


@settings(derandomize=True, deadline=None)
@given(error_bound_cases())
def test_support_bounds_are_within_the_rounding_bound(case):
    # each action is one dot of the mn terms V_ij * (ystar_i * v_j): two
    # roundings per term and mn - 1 in the sum, at most mn + 1 in all (the
    # fallback for an overflowing outer product, m terms ystar_i * (V v)_i,
    # rounds at most n + m <= mn + 1 times).  As mn + 1 <= mn + m, it is
    # off by at most gamma_{mn+m} * sum |ystar_i V_ij v_j| (Higham, Accuracy
    # and Stability of Numerical Algorithms, 3.1), whatever the summation
    # order or the BLAS kernel; the extrema inherit the largest such
    # error.  At radius 0 there is no ball term, and otherwise the ball
    # term is the package's float one, taken exactly here, which leaves one
    # rounding of the final sum, at most u * |bound|
    vertices, radius, ystar, v = case
    _, m, n = vertices.shape
    jset = PseudoJacobianSet(vertices, radius)
    upper, lower = _support_bounds(jset, ystar, v)
    assert np.shape(upper) == np.shape(lower) == ystar.shape[:-1]
    ball = radius * _row_norms(ystar) * _row_norms(v)
    u = Fraction(1, 2 ** 53)
    gamma = (m * n + m) * u / (1 - (m * n + m) * u)
    for idx in np.ndindex(ystar.shape[:-1]):
        actions = exact_vertex_actions(vertices, ystar[idx], v[idx])
        slack = gamma * max(mag for _, mag in actions)
        top = max(act for act, _ in actions)
        bottom = min(act for act, _ in actions)
        got_up, got_low = float(upper[idx]), float(lower[idx])
        assert abs(Fraction(got_up) - Fraction(float(ball[idx])) - top) <= \
            slack + u * abs(Fraction(got_up))
        assert abs(Fraction(got_low) + Fraction(float(ball[idx])) - bottom) <= \
            slack + u * abs(Fraction(got_low))


def test_support_function_rejects_unpaired_stacks():
    jset = PseudoJacobianSet([np.eye(2)])
    with pytest.raises(ValueError):
        support_function(jset, np.ones((3, 2)), np.ones((4, 2)))
    # a stack whose rows do not fit the operators, which a reshape to
    # (-1, 2) would take silently as one row of another stack
    with pytest.raises(ValueError):
        support_function(jset, np.ones((2, 1)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        support_function(jset, np.array([np.inf, 0.0]), np.ones(2))


CATALOG = [identity_map(2), linear_map(np.array([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0]])),
           abs_shift_map(), theta_map("a", 3, 0.5), theta_map("b", 3),
           theta_map("c", 3), complexsq_map(), exp1d_map()]
PROVIDERS = ["exact", "ball:m=50", "sum", "clarke:delta=1e-3,m=8,eps=0"]
# the catalog maps with their value oracles and no dir_deriv: validity_check
# takes difference quotients of them, as loop_validity_check does
QUOTIENT_CATALOG = [without_dir_deriv(model) for model in CATALOG]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(QUOTIENT_CATALOG), st.sampled_from(PROVIDERS),
       st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.sampled_from([0.0, 0.3]), st.sampled_from([1e-3, 1e-6, 1e-8]),
       st.sampled_from([1e-3, 1e-4]))
def test_validity_check_matches_trial_loop(model, provider, seed, trials,
                                           shift, tol, t0):
    # the shifted set moves sup and inf together by <ystar, E v> (E all
    # ones), so it fails the upper form on some trials and the lower form
    # on others.  At t0 = 1e-4 the smallest step is 2e-10, where rounding
    # in a Dini quotient is about 1e-6, so a tol of 1e-6 or 1e-8 flips
    # verdicts unless the quotients agree to the bit.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.8, 0.8, model.dim_in)
    jset = build_set(model, x, parse_provider(provider), rng=rng)
    jset = PseudoJacobianSet(jset.vertices + shift, jset.radius)
    batch_rng, loop_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    rate = validity_check(model, x, jset, trials=trials, tol=tol, rng=batch_rng,
                          t0=t0)
    loop_rate, _, _ = loop_validity_check(model, x, jset, trials=trials, tol=tol,
                                          rng=loop_rng, t0=t0)
    assert rate == loop_rate
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


def test_shifted_set_fails_both_forms_as_the_loop_does():
    model = CATALOG[1]
    x = np.array([0.3, -0.2, 0.5])
    jset = build_set(model, x, parse_provider("exact"))
    shifted = PseudoJacobianSet(jset.vertices + 0.3, 0.0)
    loop_rate, upper_failed, lower_failed = loop_validity_check(
        model, x, shifted, trials=200, rng=4)
    assert upper_failed > 0 and lower_failed > 0
    assert validity_check(model, x, shifted, trials=200, rng=4) == loop_rate < 1.0


def test_validity_blocks_draw_the_same_stream(monkeypatch):
    # 7 trials per block: same rate and generator state as one block
    model = without_dir_deriv(theta_map("c", 3))
    x = np.array([0.1, -0.4, 0.2])
    jset = PseudoJacobianSet(build_set(model, x, parse_provider("sum")).vertices + 0.1)
    one_rng = np.random.default_rng(11)
    one_block = validity_check(model, x, jset, trials=100, rng=one_rng)
    monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", 7 * 20 * 3)
    blocks_rng = np.random.default_rng(11)
    assert validity_check(model, x, jset, trials=100, rng=blocks_rng) == one_block < 1.0
    assert blocks_rng.bit_generator.state == one_rng.bit_generator.state


def _blocks_under_the_cap(monkeypatch, model, x, jset, cap):
    # validity_check under MAX_BATCH_ENTRIES = cap: the rate and generator
    # state of one block, more than one block, and no block whose Dini
    # points, outer products (m * n per trial) or overflow fallback's
    # actions (k * m) exceed the cap
    one_rng = np.random.default_rng(11)
    one_block = validity_check(model, x, jset, trials=100, rng=one_rng)
    monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", cap)
    sizes = []

    def spy(jset, ystar, v):
        k, m, n = jset.vertices.shape
        sizes.append(max(pjinv.pseudojac.DINI_STEPS * max(m, n), k * m, m * n)
                     * len(v))
        return _support_bounds(jset, ystar, v)

    monkeypatch.setattr(pjinv.pseudojac, "_support_bounds", spy)
    blocks_rng = np.random.default_rng(11)
    assert validity_check(model, x, jset, trials=100, rng=blocks_rng) == one_block
    assert blocks_rng.bit_generator.state == one_rng.bit_generator.state
    assert len(sizes) > 1 and max(sizes) <= cap


def test_validity_blocks_hold_the_vertex_actions_under_the_cap(monkeypatch):
    # 32 vertices on theta-c:3: 96 action entries per trial against 60 Dini
    # entries, so the actions set the block size; the stream is unchanged
    model = without_dir_deriv(theta_map("c", 3))
    x = np.array([0.1, -0.4, 0.2])
    jset = build_set(model, x, parse_provider("clarke:delta=1e-3,m=32,eps=0"),
                     rng=2)
    _blocks_under_the_cap(monkeypatch, model, x, jset, 600)


def test_validity_blocks_hold_the_outer_products_under_the_cap(monkeypatch):
    # a 25 x 25 linear map: 625 outer-product entries per trial against 500
    # Dini entries and 25 actions, so the outer products set the block size
    model = without_dir_deriv(
        linear_map(np.random.default_rng(3).standard_normal((25, 25))))
    x = np.full(25, 0.1)
    jset = build_set(model, x, parse_provider("exact"))
    _blocks_under_the_cap(monkeypatch, model, x, jset, 7 * 625)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(CATALOG), st.sampled_from(PROVIDERS),
       st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.sampled_from([0.0, 0.3]), st.sampled_from([1e-3, 1e-8, 0.0]),
       st.booleans())
def test_exact_validity_values_match_a_trial_loop(model, provider, seed, trials,
                                                  shift, tol, kinks):
    # every trial's <ystar, f'(x; v)> bit for bit, from one dir_deriv row
    # per trial; kink points zero every other coordinate
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.8, 0.8, model.dim_in)
    if kinks:
        x[::2] = 0.0
    jset = build_set(model, x, parse_provider(provider), rng=rng)
    jset = PseudoJacobianSet(jset.vertices + shift, jset.radius)
    values = []

    def spy(a, b):
        dots = pjinv.linalg._row_dots(a, b)
        values.extend(dots.tolist())
        return dots

    batch_rng, loop_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pjinv.pseudojac, "_row_dots", spy)
        rate = validity_check(model, x, jset, trials=trials, tol=tol,
                              rng=batch_rng)
    loop_rate, loop_values = loop_exact_validity(model, x, jset, trials=trials,
                                                 tol=tol, rng=loop_rng)
    assert rate == loop_rate
    assert np.array_equal(np.array(values).view(np.int64),
                          np.array(loop_values).view(np.int64))
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


def test_exact_validity_blocks_draw_the_same_stream(monkeypatch):
    # one dir_deriv row per trial: a block holds max(k * m, m * n) entries
    # per trial; 5 trials per block give the rate, the counterexample's
    # pair and the generator state of one block
    # the exact set at a kink of x_1, which is not a pseudo-Jacobian
    model = theta_map("a", 3, 0.5)
    x = np.array([0.3, 0.0, -0.4])
    jset = build_set(model, x, parse_provider("exact"))
    one_rng = np.random.default_rng(11)
    one_block = validity_check(model, x, jset, trials=100, rng=one_rng,
                               counterexample=True)
    monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", 5 * 9)
    sizes = []

    def spy(jset, ystar, v):
        sizes.append(len(v))
        return _support_bounds(jset, ystar, v)

    monkeypatch.setattr(pjinv.pseudojac, "_support_bounds", spy)
    blocks_rng = np.random.default_rng(11)
    rate, worst = validity_check(model, x, jset, trials=100, rng=blocks_rng,
                                 counterexample=True)
    assert blocks_rng.bit_generator.state == one_rng.bit_generator.state
    assert sizes == [5] * 20
    # the support bounds' product may round a pair differently in another
    # block size, within the margin
    assert rate == one_block[0] < 0.1
    assert (worst["ystar"], worst["v"]) == (one_block[1]["ystar"],
                                            one_block[1]["v"])
    assert abs(worst["gap"] - one_block[1]["gap"]) <= worst["margin"]


# linear's one gemm over many rows rounds differently from its one-row call,
# so its reference values come from one evaluate_batch call on the points
# as C rows; every other map's come from evaluate, one point at a time.
# exp1d's one-entry rows take the product-plus-zero rule, and complexsq's
# and theta-c:3's strided rows of 2 and 3 entries are dotted in place
DINI_MAPS = [(theta_map("a", 5, 0.5), True), (theta_map("c", 6), True),
             (linear_map(np.random.default_rng(5).standard_normal((4, 4))), False),
             (chain_suite_map(theta_map("a", 5, 0.5)), True),
             (exp1d_map(), True), (complexsq_map(), True),
             (theta_map("c", 3), True)]


@pytest.mark.parametrize("model, pointwise", DINI_MAPS,
                         ids=["theta-a:5:0.5", "theta-c:6", "linear-4x4", "chain",
                              "exp1d", "complexsq", "theta-c:3"])
def test_dini_quotients_match_a_loop_over_points(model, pointwise):
    # m or n >= 4: a dot or a norm on strided rows would round differently
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.8, 0.8, model.dim_in)
    fx = evaluate(model, x)
    ts = _dini_steps(1e-3)
    count, m = 200, model.dim_out
    draws = rng.standard_normal((count, m + model.dim_in))
    ystar, v = _unit_rows(draws[:, :m]), _unit_rows(draws[:, m:])
    quots = _dini_quotients(model, x, fx, ystar, v, ts)
    points = [[x + t * vp for t in ts] for vp in v]
    if pointwise:
        values = [[evaluate(model, z) for z in row] for row in points]
    else:
        values = evaluate_batch(model, np.reshape(points, (-1, model.dim_in)))
        values = values.reshape(count, len(ts), m)
    loop = [[(float(ystar[p] @ values[p][j]) - float(ystar[p] @ fx)) / t
             for p in range(count)] for j, t in enumerate(ts)]
    assert quots.shape == (len(ts), count)
    assert np.array_equal(quots.view(np.int64), np.array(loop).view(np.int64))


@pytest.mark.parametrize("k", [2, 6])
def test_conorm_chunks_keep_the_first_minimum(monkeypatch, k):
    # diag(1, 2) and diag(2, 1): the co-norm min(2 - w, 1 + w) of a 2-vertex
    # combination is smallest at both ends of the mesh, which land in
    # different chunks; the witness stays the first one in mesh order
    if k == 2:
        vertices = [np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]
    else:
        vertices = np.random.default_rng(k).standard_normal((k, 2, 2))
    jset = PseudoJacobianSet(vertices)
    whole = set_conorm_bounds(jset)
    monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", 4 * 37)
    chunked = set_conorm_bounds(jset)
    assert (chunked.lower, chunked.upper, chunked.certified) == \
        (whole.lower, whole.upper, whole.certified)
    np.testing.assert_array_equal(chunked.witness, whole.witness)
    if k == 2:
        np.testing.assert_array_equal(whole.witness, np.diag([2.0, 1.0]))


# nets of 997, 250 and 99 subdivisions, not multiples of the coarsest
# stride r**2 (100, 36 and 25), and of 1 to 9, where levels collapse
UNEVEN_NETS = [(2, 1 / 997), (3, 1 / 250), (4, 1 / 99)]
SMALL_NETS = [1.0, 0.5, 1 / 3, 1 / 7, 1 / 9]


@st.composite
def certifiable_hulls(draw):
    # k vertices at a net where their mesh certifies; a zero last column
    # makes every member rank-deficient, and m < n every co-norm 0
    k, net = draw(st.one_of(
        st.sampled_from([(2, 1e-3), (2, 1e-2), (3, 1e-2), (4, 1e-2)]
                        + UNEVEN_NETS),
        st.tuples(st.integers(2, 4), st.sampled_from(SMALL_NETS))))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vertices = draw(stacks(k, m, n))
    if draw(st.booleans()):
        vertices[:, :, -1] = 0.0
    return vertices, draw(st.sampled_from([0.0, 0.25])), net


FLAT_TIE = np.array([np.diag([1.0, 5.0]), np.diag([1.0, 7.0])])


@settings(derandomize=True, deadline=None, max_examples=20)
@given(certifiable_hulls(), st.booleans())
# sigma_min is 1 at every mesh row: the member is row 0, the last vertex
@example((FLAT_TIE, 0.0, 1e-3), True)
@example((FLAT_TIE, 0.5, 1e-2), False)
# a zero between coarse rows, where the Lipschitz bound is tight, while a
# coarse row elsewhere is lower than that cell's corners
@example((np.array([np.diag([-1.0, 1.0]), np.diag([1.0, 3e-3])]), 0.0, 1e-3),
         False)
# wide vertices: co-norm 0 at every row
@example((np.arange(24.0).reshape(4, 2, 3) % 5, 0.25, 1e-2), True)
# the minimum at (996, 1) of 997 subdivisions, in the last partial cell
# next to the first vertex, whose only corner is (990, 7) on stride 10
@example((np.array([np.diag([-1.5e-3, 1.0]), np.eye(2)]), 0.0, 1 / 997),
         False)
# one subdivision: a single level, the two vertices
@example((FLAT_TIE, 0.0, 1.0), False)
def test_pruned_mesh_equals_the_full_mesh(case, chunked):
    vertices, radius, net = case
    assume(not (vertices == vertices[0]).all())
    with pytest.MonkeyPatch.context() as mp:
        if chunked:
            mp.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", 4 * 37)
        bounds = set_conorm_bounds(PseudoJacobianSet(vertices, radius), net)
        members = _stack_bounds(vertices[None], np.array([radius]), net)[3]
        lower, upper, certified, member = full_mesh_hull_bounds(vertices,
                                                                radius, net)
    assert (bounds.lower, bounds.upper, bounds.certified) == \
        (lower, upper, certified)
    np.testing.assert_array_equal(members[0], member)


@st.composite
def mixed_stacks(draw):
    # P sets of k vertices at a net where k certifies, or (5 and 6
    # vertices) where it takes samples.  Each set is a hull of entries in
    # [-1, 1], a singleton (every vertex equal), a flat tie (sigma_min 1 at
    # every member), rank-deficient (a zero last column) or near-singular
    # (a last column of order 1e-10); m < n makes every co-norm 0
    k, net = draw(st.sampled_from([(2, 1e-3), (2, 1 / 997), (3, 1e-2),
                                   (4, 1 / 9), (5, 1e-2), (6, 1e-3)]))
    m, n, count = draw(st.integers(1, 3)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertices = rng.uniform(-1.0, 1.0, (count, k, m, n))
    for vs in vertices:
        kind = draw(st.sampled_from(["hull", "singleton", "tie", "deficient",
                                     "near-singular"]))
        if kind == "singleton":
            vs[:] = vs[0]
        elif kind == "tie":
            vs[:] = 0.0
            for i, v in enumerate(vs):
                v[np.diag_indices(min(m, n))] = 5.0 + 2.0 * i
                v[0, 0] = 1.0
        elif kind == "deficient":
            vs[:, :, -1] = 0.0
        elif kind == "near-singular":
            vs[:, :, -1] *= 1e-10
    radii = rng.choice([0.0, 0.25, rng.uniform(0.0, 2.0)], size=count)
    return vertices, radii, net


@settings(derandomize=True, deadline=None, max_examples=30)
@given(mixed_stacks(), st.sampled_from(["whole", "148 entries", "2 matrices"]))
# flat ties at both nets' sizes, beside a singleton and a sigma_min 1e-10
@example((np.array([FLAT_TIE, FLAT_TIE[::-1], [np.eye(2)] * 2,
                    [np.diag([1.0, 1e-10]), np.diag([2.0, 3e-10])]]),
          np.array([0.0, 0.5, 0.25, 0.0]), 1e-3), "148 entries")
# square and wide 4-vertex hulls, whose 6 vertex differences fill three
# chunks ahead of the first level
@example((np.random.default_rng(4).uniform(-1.0, 1.0, (2, 4, 3, 3)),
          np.array([0.0, 0.25]), 1 / 9), "2 matrices")
@example((np.random.default_rng(5).uniform(-1.0, 1.0, (1, 4, 2, 3)),
          np.array([0.25]), 1 / 9), "2 matrices")
def test_stack_bounds_equal_each_set_bounded_alone(case, chunk):
    # the stack pass against each set's full mesh or samples, to the bit;
    # a cap of 148 entries puts each set in its own block and cuts its
    # levels into chunks, and a cap of 2 matrices also cuts the vertex
    # differences of 3 or more vertices, leaving chunks that hold no
    # combination
    vertices, radii, net = case
    m, n = vertices.shape[2:]
    cap = {"whole": None, "148 entries": 4 * 37, "2 matrices": 2 * m * n}
    want = loop_stack_bounds(vertices, radii, net)
    with pytest.MonkeyPatch.context() as mp:
        if cap[chunk]:
            mp.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", cap[chunk])
        got = _stack_bounds(vertices, radii, net)
    for values, reference in zip(got, want):
        assert values.dtype == reference.dtype
        np.testing.assert_array_equal(values, reference)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(certifiable_hulls())
# sigma_min of order 1e-10 over the whole hull, and a hull whose co-norm
# has a zero between coarse rows
@example((np.array([np.diag([1.0, 1e-10]), np.diag([2.0, 3e-10])]), 0.0,
          1e-3))
@example((np.array([np.diag([-1.0, 1.0]), np.diag([1.0, 3e-3])]), 0.0, 1e-3))
# the benchmark's set, where the chord bounds rule out every later row
@example((build_set(theta_map("c", 4), np.zeros(4),
                    parse_provider("clarke:delta=1e-3,m=2,eps=0"),
                    rng=5).vertices, 0.0, 1e-3))
def test_chord_bounds_lie_below_the_full_mesh(case):
    # the chord bound of every later-level row, from its corners' full-mesh
    # co-norms, is at most the row's own; the prune takes it from corners
    # that are at most those, and the bound grows with every corner.  With
    # infinite steps the first-order bound is -inf, and the chord stands
    # alone
    vertices, _, net = case
    assume(not (vertices == vertices[0]).all())
    subdivisions = max(math.ceil(1.0 / net), 1)
    values = full_mesh_conorms(vertices, net)
    pairs = np.triu_indices(len(vertices), 1)
    diam = np.max(spectral_norm(vertices[pairs[0]] - vertices[pairs[1]]))
    scale = np.array([diam / (2 * subdivisions)])
    unit = np.array([1.0 + np.linalg.norm(vertices, axis=(1, 2)).max()])
    for rows, corner, steps, lam, spread in _mesh(len(vertices),
                                                  subdivisions)[2]:
        chord = _level_bounds(values[corner][None],
                              np.full(steps.shape, np.inf), lam, spread,
                              scale, unit)[0]
        assert (chord <= values[rows]).all()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(2, 4), st.integers(1, 200))
def test_mesh_levels_partition_the_mesh(k, subdivisions):
    # every mesh a bound builds; 4 vertices take at most 103 subdivisions
    assume(math.comb(subdivisions + k - 1, k - 1) <= MAX_MESH_POINTS)
    weights, first, levels = _mesh.__wrapped__(k, subdivisions)
    counts = np.rint(weights * subdivisions).astype(np.int64)
    assert (counts >= 0).all() and (counts.sum(axis=1) == subdivisions).all()
    level = np.full(len(weights), -1)
    level[first] = 0
    for i, (rows, corner, steps, lam, spread) in enumerate(levels, 1):
        assert (level[rows] == -1).all()  # no row in two levels
        level[rows] = i
        assert corner.shape == steps.shape == lam.shape == \
            (2 ** (k - 1), rows.size)
        # a corner is a mesh row, so a point of the simplex, of an earlier
        # level, and its step is the l1 distance of the counts
        assert ((corner >= 0) & (corner < len(weights))).all()
        assert ((level[corner] >= 0) & (level[corner] < i)).all()
        np.testing.assert_array_equal(
            steps, np.abs(counts[rows] - counts[corner]).sum(axis=-1))
        # the chord weights: none on a cell cut by the simplex's boundary,
        # else convex weights that combine the corners' counts into the
        # row's, and spread is the steps' squares under those weights
        whole = lam.any(axis=0)
        assert (lam >= 0.0).all()
        np.testing.assert_allclose(lam[:, whole].sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            np.einsum("cr,crk->rk", lam[:, whole], counts[corner[:, whole]]),
            counts[rows[whole]], atol=1e-9)
        np.testing.assert_allclose(spread, (lam * steps ** 2).sum(axis=0))
    assert (level >= 0).all()


@st.composite
def constant_stacks(draw):
    # one m x n operator over P rows with varied radii: m < n has co-norm 0,
    # and a last column twice the first (or zero, for n = 1) is
    # rank-deficient
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    a = draw(arrays(np.float64, (m, n), elements=entries))
    if draw(st.booleans()):
        a[:, -1] = 2.0 * a[:, 0] if n > 1 else 0.0
    count = draw(st.sampled_from([1, 2, 993]))
    radii = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        0.0, draw(st.sampled_from([0.0, 0.1, 2.0])), count)
    return a, radii


@settings(derandomize=True, deadline=None, max_examples=60)
@given(constant_stacks(), st.booleans())
@example((np.eye(10), np.full(993, 0.5)), True)
def test_broadcast_stack_equals_its_materialised_copy(case, chunked):
    # the one-operator path against the per-block path, to the bit
    a, radii = case
    stack = np.broadcast_to(a, (len(radii),) + a.shape)
    copy = stack.copy()
    assert stack.strides[0] == 0 != copy.strides[0]
    with pytest.MonkeyPatch.context() as mp:
        if chunked:
            mp.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", 3 * a.size)
        np.testing.assert_array_equal(_singleton_values(stack, radii),
                                      _singleton_values(copy, radii))
        for got, want in zip(_stack_bounds(stack[:, None], radii, DEFAULT_NET),
                             _stack_bounds(copy[:, None], radii, DEFAULT_NET)):
            np.testing.assert_array_equal(got, want)
