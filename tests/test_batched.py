"""Property tests: the batched kernels against loop references.

The references in oracles.py evaluate one vertex, or one validity trial, at
a time; the co-norm reference is the one-sided Jacobi SVD.  Entries lie in
[-1, 1] and every dimension is at most 6, so a sum of at most 36 products
of size <= 1 is off by well under 1e-12 in float64 whatever its summation
order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pjinv.indices
import pjinv.pseudojac
from oracles import (jacobi_conorm, loop_pj_combine, loop_support_function,
                     loop_validity_check)
from pjinv.indices import set_conorm_bounds
from pjinv.linalg import conorm
from pjinv.maps import (abs_shift_map, complexsq_map, exp1d_map, identity_map,
                        linear_map, theta_map)
from pjinv.pseudojac import (PseudoJacobianSet, build_set, parse_provider,
                             pj_combine, support_function, validity_check)

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


@st.composite
def two_sets(draw):
    m, n = draw(dims), draw(dims)
    return (draw(st.floats(-3.0, 3.0, allow_subnormal=False)),
            draw(stacks(draw(dims), m, n)), draw(stacks(draw(dims), m, n)))


@settings(derandomize=True, deadline=None)
@given(set_and_vectors())
def test_support_function_matches_vertex_loop(case):
    vertices, radius, ystar, v = case
    batched = support_function(PseudoJacobianSet(vertices, radius), ystar, v)
    assert abs(batched - loop_support_function(vertices, radius, ystar, v)) <= SUM_TOL


@settings(derandomize=True, deadline=None)
@given(two_sets())
def test_pj_combine_matches_pair_loop(case):
    alpha, v1, v2 = case
    out = pj_combine(alpha, PseudoJacobianSet(v1, 0.1), PseudoJacobianSet(v2, 0.2))
    # elementwise alpha * a + b: the same arithmetic, so equal to the bit
    np.testing.assert_array_equal(out.vertices, loop_pj_combine(alpha, v1, v2))
    assert out.radius == abs(alpha) * 0.1 + 0.2


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


def test_support_function_rejects_unpaired_stacks():
    jset = PseudoJacobianSet([np.eye(2)])
    with pytest.raises(ValueError):
        support_function(jset, np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ValueError):
        support_function(jset, np.array([np.inf, 0.0]), np.ones(2))


CATALOG = [identity_map(2), linear_map(np.array([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0]])),
           abs_shift_map(), theta_map("a", 3, 0.5), theta_map("b", 3),
           theta_map("c", 3), complexsq_map(), exp1d_map()]
PROVIDERS = ["exact", "ball:m=50", "sum", "clarke:delta=1e-3,m=8,eps=0"]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(CATALOG), st.sampled_from(PROVIDERS),
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
    model = theta_map("c", 3)
    x = np.array([0.1, -0.4, 0.2])
    jset = PseudoJacobianSet(build_set(model, x, parse_provider("sum")).vertices + 0.1)
    one_rng = np.random.default_rng(11)
    one_block = validity_check(model, x, jset, trials=100, rng=one_rng)
    monkeypatch.setattr(pjinv.pseudojac, "MAX_BATCH_ENTRIES", 7 * 20 * 3)
    blocks_rng = np.random.default_rng(11)
    assert validity_check(model, x, jset, trials=100, rng=blocks_rng) == one_block < 1.0
    assert blocks_rng.bit_generator.state == one_rng.bit_generator.state


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
    monkeypatch.setattr(pjinv.indices, "MAX_BATCH_ENTRIES", 4 * 37)
    chunked = set_conorm_bounds(jset)
    assert (chunked.lower, chunked.upper, chunked.certified) == \
        (whole.lower, whole.upper, whole.certified)
    np.testing.assert_array_equal(chunked.witness, whole.witness)
    if k == 2:
        np.testing.assert_array_equal(whole.witness, np.diag([2.0, 1.0]))
