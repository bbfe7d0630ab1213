import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pjinv.properties
from oracles import frank_wolfe_project
from oracles import jacobi_conorm as oracle_conorm
from oracles import jacobi_singular_values, reference_project_to_hull
from pjinv.linalg import (TALL_ROWS, _row_dots, _row_norms, conorm, dist_to_hull,
                          project_to_hull, singular_values, spectral_norm,
                          surjectivity_index)
from pjinv.maps import theta_map
from pjinv.properties import mvt_check
from pjinv.pseudojac import parse_provider


class TestConorm:
    def test_identity(self):
        assert conorm(np.eye(3)) == pytest.approx(1.0, abs=1e-13)

    def test_diagonal(self):
        assert conorm(np.diag([2.0, 0.5])) == pytest.approx(0.5, abs=1e-13)

    def test_shear(self):
        # eigenvalues of T^T T are (3 +- sqrt(5))/2
        expected = np.sqrt((3.0 - np.sqrt(5.0)) / 2.0)
        assert conorm([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expected, abs=1e-12)

    def test_wide_matrix_is_zero(self):
        assert conorm(np.ones((2, 5))) == 0.0

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.standard_normal((rng.integers(1, 12), rng.integers(1, 12)))
            assert conorm(a) == pytest.approx(oracle_conorm(a), abs=1e-11)

    def test_lower_bounds_action_on_unit_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            c = conorm(a)
            x = rng.standard_normal((500, 4))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            assert np.all(np.linalg.norm(x @ a.T, axis=1) >= c * 1.0 - 1e-12)

    def test_one_lipschitz_in_spectral_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.standard_normal((5, 5))
            b = a + rng.standard_normal((5, 5)) * rng.uniform(0, 0.5)
            assert abs(conorm(a) - conorm(b)) <= spectral_norm(a - b) + 1e-11


class TestSurjectivityIndex:
    def test_wide_isometric_embedding_adjoint(self):
        t = np.hstack([np.eye(2), np.zeros((2, 1))])
        assert surjectivity_index(t) == pytest.approx(1.0, abs=1e-13)

    def test_tall_not_surjective(self):
        t = np.vstack([np.eye(2), np.zeros((1, 2))])
        assert surjectivity_index(t) == 0.0

    def test_diagonal_equals_inverse_norm(self):
        t = np.diag([2.0, 3.0])
        # oracle: explicit inverse
        inv_norm = np.linalg.norm(np.linalg.inv(t), 2)
        assert surjectivity_index(t) == pytest.approx(1.0 / inv_norm, abs=1e-12)

    def test_random_invertible_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = rng.integers(2, 8)
            t = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            inv_norm = np.linalg.norm(np.linalg.inv(t), 2)
            assert abs(surjectivity_index(t) - 1.0 / inv_norm) <= 1e-10


class TestDistToHull:
    def test_point_inside_segment(self):
        h = [[1.0, 0.0], [-1.0, 0.0]]
        assert dist_to_hull([0.0, 0.0], h, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_ball_shrinks_distance(self):
        h = [[0.0, 0.0]]
        assert dist_to_hull([2.0, 0.0], h, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_projection_onto_segment(self):
        # oracle: analytic projection of (1,1) onto the segment (1,0)-(0,1)
        h = [[1.0, 0.0], [0.0, 1.0]]
        assert dist_to_hull([1.0, 1.0], h, 0.0) == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_tie_break_is_lowest_index(self):
        # vertices 1 and 2 tie for the first linear subproblem; lowest wins
        x, _ = project_to_hull(np.array([2.0, 0.0]),
                               [[0.0, 0.0], [1.0, 1.0], [1.0, -1.0]],
                               max_iter=1)
        assert np.allclose(x, [1.0, 1.0])

    def test_zero_iff_inside_inflated_hull(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            verts = rng.standard_normal((int(rng.integers(1, 5)), d))
            radius = float(rng.uniform(0, 0.5))
            p = rng.standard_normal(d)
            dist = dist_to_hull(p, verts, radius)
            # brute-force oracle: fine sampling of the hull
            lam = rng.dirichlet(np.ones(verts.shape[0]), size=20000)
            brute = np.min(np.linalg.norm(lam @ verts - p, axis=1))
            brute = max(brute - radius, 0.0)
            # sampling only over-estimates the hull distance
            assert dist <= brute + 1e-9
            assert brute - dist <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            dist_to_hull(np.zeros(2), np.empty((0, 2)), 0.0)
        with pytest.raises(ValueError):
            project_to_hull(np.zeros(2), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            dist_to_hull(np.zeros(1), [[0.0]], -1.0)


@st.composite
def hull_problems(draw):
    """(point, vertices): random, duplicate-vertex, sliver or 1-vertex hulls
    in dims 1-6 at scales 1e-6 to 1e6, the point outside or inside."""
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "duplicates", "sliver", "single"]))
    count = draw(st.integers(2, 24))
    scale = 10.0 ** draw(st.integers(-6, 6))
    inside = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal((count, dim))
    if kind == "duplicates":
        v = v[rng.integers(0, count, size=2 * count)]
    elif kind == "sliver":
        # a segment thickened by 1e-9 of its length
        v = (rng.standard_normal((count, 1)) * rng.standard_normal(dim)
             + 1e-9 * rng.standard_normal((count, dim)))
    elif kind == "single":
        v = v[:1]
    p = rng.dirichlet(np.ones(len(v))) @ v if inside else \
        3.0 * rng.standard_normal(dim)
    return p * scale, v * scale


@settings(max_examples=60, derandomize=True, deadline=None)
@given(hull_problems())
def test_projection_matches_frank_wolfe_oracle(problem):
    p, v = problem
    scale = max(np.max(np.abs(v)), np.max(np.abs(p)))
    x, dist = project_to_hull(p, v)
    assert dist == np.linalg.norm(x - p)
    fw_x, fw_dist = frank_wolfe_project(p, v)
    # the oracle's duality gap certifies a lower bound on the true distance
    g = fw_x - p
    lb2 = g @ g - 2.0 * (g @ fw_x - np.min(v @ g))
    fw_lower = np.sqrt(lb2) if lb2 > 0.0 else 0.0
    assert dist <= fw_dist + 1e-12 * scale
    assert dist >= fw_lower - 1e-12 * scale


def _projection_bits(p, v):
    point, dist = project_to_hull(p, v)
    want_point, want_dist = reference_project_to_hull(p, v)
    assert point.tobytes() == want_point.tobytes()
    assert np.float64(dist).tobytes() == np.float64(want_dist).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dim=st.integers(1, 12), count=st.integers(1, 3 * TALL_ROWS),
       inside=st.booleans(), zeros=st.booleans(), fortran=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(dim=2, count=TALL_ROWS, inside=True, zeros=True, fortran=False,
         seed=0)
@example(dim=3, count=2 * TALL_ROWS, inside=False, zeros=True,
         fortran=True, seed=1)
def test_projection_keeps_its_bits(dim, count, inside, zeros, fortran, seed):
    # the shift w = v - p runs down the columns of a tall hull; the point
    # and distance are those of the row-wise shift, for vertices and
    # points with signed zeros, in C and in column-major layout
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim))
    p = rng.dirichlet(np.ones(count)) @ v if inside else \
        3.0 * rng.standard_normal(dim)
    if zeros:
        v[rng.random(v.shape) < 0.3] = -0.0
        p[::2] = -0.0
    _projection_bits(p, np.asfortranarray(v) if fortran else v)


def test_kink_crossing_hull_in_few_steps(monkeypatch):
    # check mvt on a segment across the kink x_2 = 0 of theta-a:2: the 4,096
    # vertex actions form a sliver about 7e-9 wide, on which Frank-Wolfe
    # runs all 50,000 iterations without meeting its certificate and stops
    # 6.5e-9 away.  The point lies in the hull: a convex combination within
    # rounding of it exists, and an oracle that scores the vertices against
    # the uncleaned iterate stops at 2.6e-9.
    hulls = []

    def capture(p, vertices, radius=0.0, gap_tol=1e-10):
        hulls.append((p, vertices))
        return dist_to_hull(p, vertices, radius, gap_tol=gap_tol)

    monkeypatch.setattr(pjinv.properties, "dist_to_hull", capture)
    mvt_check(theta_map("a", 2, 0.5),
              parse_provider("clarke:delta=1e-4,m=64,eps=0"),
              np.array([-0.3, -0.6]), np.array([0.5, 0.7]), rng=0)
    (p, v), = hulls
    assert v.shape == (4096, 2) and np.ptp(v[:, 1]) < 1e-8
    _, dist = project_to_hull(p, v, max_iter=50)
    _, fw_dist = frank_wolfe_project(p, v)
    assert dist <= fw_dist + 1e-12
    assert dist <= 1e-14
    _projection_bits(p, v)


def test_singular_values_match_lapack():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.standard_normal((rng.integers(1, 15), rng.integers(1, 15)))
        mine = singular_values(a)
        ref = jacobi_singular_values(a)
        assert np.max(np.abs(mine - ref)) <= 1e-11


def test_jacobi_oracle_raises_when_not_converged():
    # one sweep leaves sigma_min at 0.407 against a true 0.262
    a = np.random.default_rng(0).standard_normal((8, 8))
    with pytest.raises(RuntimeError):
        jacobi_singular_values(a, max_sweeps=1)


def _laid_out(rows, layout):
    # rows (C order) as a C, Fortran-ordered, column-strided or reversed
    # stack
    if layout == "C":
        return rows
    if layout == "F":
        return np.asfortranarray(rows)
    if layout == "reversed":
        return np.ascontiguousarray(rows[..., ::-1])[..., ::-1]
    wide = np.zeros(rows.shape[:-1] + (2 * rows.shape[-1],))
    wide[..., ::2] = rows
    return wide[..., ::2]


@st.composite
def row_pairs(draw):
    # two stacks of rows of 1 to 6 entries, zeros of both signs included,
    # each in its own layout; entries small enough that no dot overflows
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 5)),
             draw(st.integers(1, 6)))
    entries = st.floats(-1e3, 1e3, allow_subnormal=False) | st.sampled_from(
        [0.0, -0.0])
    a, b = (draw(arrays(np.float64, shape, elements=entries)) for _ in "ab")
    layouts = st.sampled_from(["C", "F", "strided", "reversed"])
    return a, b, draw(layouts), draw(layouts)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(row_pairs())
def test_row_dots_and_norms_match_single_rows(case):
    # bit for bit, a zero's sign included, against one BLAS dot on C rows
    a, b, layout_a, layout_b = case
    dots = _row_dots(_laid_out(a, layout_a), _laid_out(b, layout_b))
    norms = _row_norms(_laid_out(a, layout_a))
    assert dots.shape == norms.shape == a.shape[:-1]
    for idx in np.ndindex(a.shape[:-1]):
        assert np.float64(dots[idx]).view(np.int64) == \
            np.float64(float(a[idx] @ b[idx])).view(np.int64)
        assert np.float64(norms[idx]).view(np.int64) == \
            np.float64(np.linalg.norm(a[idx])).view(np.int64)


class TestRowNorms:
    """_row_norms gives each row the bits np.linalg.norm gives it alone."""

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    @pytest.mark.parametrize("layout", ["C", "F", "transposed"])
    def test_any_layout_matches_single_rows(self, n, layout):
        # a dot on strided rows rounds differently from 4 entries on
        rows = np.random.default_rng(n).standard_normal((2000, n))
        a = {"C": rows, "F": np.asfortranarray(rows),
             "transposed": np.ascontiguousarray(rows.T).T}[layout]
        np.testing.assert_array_equal(
            _row_norms(a), [np.linalg.norm(row) for row in rows])

    def test_a_stack_of_rows(self):
        stack = np.random.default_rng(1).standard_normal((7, 50, 6))
        np.testing.assert_array_equal(
            _row_norms(np.asfortranarray(stack)),
            [[np.linalg.norm(row) for row in rows] for rows in stack])

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_of_stride_zero_match_single_rows(self, n):
        # each row one value, broadcast along it: NumPy's own loop on such
        # rows rounds differently from a dot
        rng = np.random.default_rng(n)
        column, b = rng.standard_normal((2000, 1)), rng.standard_normal((2000, n))
        rows = np.broadcast_to(column, (2000, n))
        np.testing.assert_array_equal(
            _row_dots(rows, b), [float(x @ y) for x, y in zip(rows.copy(), b)])
        np.testing.assert_array_equal(
            _row_norms(rows), [np.linalg.norm(x) for x in rows.copy()])

    @pytest.mark.parametrize("shape", [(128, 4), (1, 4), (0, 4), (5, 3, 10)])
    def test_broadcast_stack_equals_its_materialised_copy(self, shape):
        row = np.random.default_rng(2).standard_normal(shape[1:])
        stack = np.broadcast_to(row, shape)
        norms = _row_norms(stack)
        np.testing.assert_array_equal(norms, _row_norms(stack.copy()))
        norms[...] = 0.0  # a fresh, writable array
