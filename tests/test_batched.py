"""Property tests: the batched set and co-norm kernels against loop references.

The references in oracles.py evaluate one vertex at a time; the co-norm
reference is the one-sided Jacobi SVD.  Entries lie in [-1, 1] and every
dimension is at most 6, so a sum of at most 36 products of size <= 1 is off
by well under 1e-12 in float64 whatever its summation order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import jacobi_conorm, loop_pj_combine, loop_support_function
from pjinv.linalg import conorm
from pjinv.pseudojac import PseudoJacobianSet, pj_combine, support_function

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
