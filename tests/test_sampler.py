"""The one ball sampler and the kernels that draw from it in blocks.

``_uniform_ball`` feeds ``maps._ball_points`` from a generator; the Clarke
provider must draw the same bits as the sampler it used to carry
(``tests/oracles.py``).  The Hadamard profile feeds the same transform from
one ``default_rng(j)`` draw per grid shell j.  The Lipschitz probes draw
their pairs and axis stencils in blocks under ``MAX_BATCH_ENTRIES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pjinv.indices
import pjinv.maps
from oracles import counting, inline_ball_points
from pjinv.hadamard import beta_profile
from pjinv.invert import inverse_lipschitz_probe
from pjinv.maps import (_blocks, _central_differences, _uniform_ball,
                        abs_shift_map, complexsq_map, exp1d_map, linear_map,
                        local_lipschitz_estimate, theta_map)
from pjinv.pseudojac import build_set, parse_provider

coords = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 8), count=st.integers(0, 60),
       radius=st.floats(0.0, 1e6, allow_subnormal=False),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_uniform_ball_stays_in_the_ball(n, count, radius, seed, data):
    center = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    points = _uniform_ball(np.random.default_rng(seed), center, radius, count)
    assert points.shape == (count, n)
    # adding the center rounds each coordinate by at most one spacing of
    # the largest coordinate involved
    slack = np.sqrt(n) * np.spacing(np.abs(center).max() + radius)
    dist = np.linalg.norm(points - center, axis=1)
    assert np.all(dist <= radius * (1.0 + 1e-15) + slack)


def test_uniform_ball_reaches_the_boundary_at_the_radius():
    # a unit uniform puts the point on the sphere, to rounding
    normals = np.random.default_rng(0).standard_normal((1000, 5))
    points = pjinv.maps._ball_points(np.zeros(5), 2.0, normals,
                                     np.ones((1000, 1)))
    dist = np.linalg.norm(points, axis=1)
    assert np.all(np.abs(dist - 2.0) <= 2.0 * 1e-15)


@pytest.mark.parametrize("model, x", [
    (theta_map("c", 3), np.array([0.1, -0.4, 0.2])),
    (theta_map("a", 5, 0.5), np.zeros(5)),
    (complexsq_map(), np.array([0.3, -1.0])),
    (abs_shift_map(), np.zeros(1)),
    (exp1d_map(), np.array([2.0])),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_clarke_vertices_keep_their_bits(model, x, seed):
    spec = parse_provider("clarke:delta=1e-3,m=9,eps=0")
    rng = np.random.default_rng(seed)
    got = build_set(model, x, spec, rng=rng)
    ref_rng = np.random.default_rng(seed)
    zs = inline_ball_points(ref_rng, x, spec.delta, spec.m)
    want = _central_differences(model, zs, spec.delta * 1e-4)
    np.testing.assert_array_equal(got.vertices, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n, center", [(1, [0.5]), (3, [0.0, 1.0, -2.0]),
                                       (6, np.linspace(-1.0, 1.0, 6))])
def test_profile_shell_points_come_from_their_own_generator(n, center):
    center = np.asarray(center, dtype=float)
    grid = np.linspace(0.0, 1.5, 5)

    def shells(count, seed):
        # the points the profile hands to build_sets, split shell by shell
        seen = []
        build = pjinv.indices.build_sets

        def record(model, points, *args, **kwargs):
            seen.append(np.array(points))
            return build(model, points, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pjinv.indices, "build_sets", record)
            beta_profile(theta_map("c", n), parse_provider("sum"), center,
                         1.5, grid_n=5, samples_per_shell=count, rng=seed)
        points = np.concatenate(seen)
        np.testing.assert_array_equal(points[:1], center[None])
        assert len(points) == 1 + 4 * count
        return points[1:].reshape(4, count, n)

    few, many, other_seed = shells(7, 0), shells(20, 0), shells(20, 1)
    slack = np.sqrt(n) * np.spacing(np.abs(center).max() + grid[-1])
    for j in range(1, 5):
        points = many[j - 1]
        dist = np.linalg.norm(points - center, axis=1)
        assert np.all(dist <= grid[j] * (1.0 + 1e-15) + slack)
        # the first points do not depend on the count, nor on rng
        np.testing.assert_array_equal(few[j - 1], points[:7])
        np.testing.assert_array_equal(other_seed[j - 1], points)
        # shell j's points are one draw of default_rng(j): a direction and
        # the radial uniform exp(-(g_n**2 + g_{n+1}**2) / 2) per row
        g = np.random.default_rng(j).standard_normal((20, n + 2))
        radial = np.exp(-(g[:, n:n + 1] ** 2 + g[:, n + 1:] ** 2) / 2.0)
        unit = g[:, :n] / np.linalg.norm(g[:, :n], axis=1, keepdims=True)
        np.testing.assert_array_equal(
            points, center + unit * (grid[j] * radial ** (1.0 / n)))


@pytest.mark.parametrize("budget", [None, 600])
def test_ball_set_makes_one_oracle_call_per_block(monkeypatch, budget):
    # ball:m=2000 on theta-c:3 draws 2,000 pairs and 200 axis-stencil bases
    if budget is not None:
        monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", budget)
    model = theta_map("c", 3)
    calls = counting(model)
    x = np.array([0.2, -0.1, 0.4])
    spec = parse_provider("ball:m=2000")
    jset = build_set(model, x, spec, rng=0)
    blocks = len(_blocks(2000, 2 * 3)) + len(_blocks(200, 4 * 3))
    assert calls["fn"] == 0
    assert len(calls["fn_batch"]) == blocks == (2 if budget is None else 24)
    assert sum(calls["fn_batch"]) == 2 * 2000 + 200 * 4
    # f = id + h with h s/(1+s)-Lipschitz on B(0, s); the stencil reaches
    # 1e-7 beyond the ball
    s = np.linalg.norm(x) + spec.lip_radius + 1e-7
    assert 0.0 < jset.radius <= 1.0 + s / (1.0 + s) + 1e-9


A = np.array([[2.0, 1.0], [0.0, 3.0]])


@pytest.mark.parametrize("budget", [4 * 37, 2 * 2 * 5000 - 4])
def test_lipschitz_pairs_across_block_boundaries(monkeypatch, budget):
    # 37 pairs per block leaves a short last block of pairs and of bases;
    # the second budget splits 5,000 pairs into one full block and one pair
    monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", budget)
    model = linear_map(A)
    calls = counting(model)
    est = local_lipschitz_estimate(model, np.zeros(2), 1.0, samples=5000,
                                   rng=0)
    nrm = np.linalg.norm(A, 2)
    assert 0.95 * nrm <= est <= nrm + 1e-9
    assert sum(calls["fn_batch"]) == 2 * 5000 + 500 * 3
    assert max(calls["fn_batch"]) * 2 <= budget
    assert len(calls["fn_batch"]) == len(_blocks(5000, 4)) + len(_blocks(500, 6))


@pytest.mark.parametrize("budget", [4 * 37, 4 * 2999])
def test_inverse_probe_across_block_boundaries(monkeypatch, budget):
    monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", budget)
    model = linear_map(A)
    calls = counting(model)
    est = inverse_lipschitz_probe(model, np.zeros(2), 1.0, pairs=3000, rng=1)
    inv = 1.0 / np.linalg.svd(A, compute_uv=False)[-1]
    assert 0.95 * inv <= est <= inv + 1e-9
    assert sum(calls["fn_batch"]) == 2 * 3000
    assert len(calls["fn_batch"]) == len(_blocks(3000, 4)) > 1

