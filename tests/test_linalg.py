import numpy as np
import pytest

from oracles import jacobi_conorm as oracle_conorm
from oracles import jacobi_singular_values
from pjinv.linalg import (conorm, dist_to_hull, project_to_hull,
                          singular_values, spectral_norm, surjectivity_index)


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
            dist_to_hull(np.zeros(1), [[0.0]], -1.0)


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
