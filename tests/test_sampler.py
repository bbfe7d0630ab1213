"""The one ball sampler and the kernels that draw from it in blocks.

``_uniform_ball`` feeds ``maps._ball_points`` from a generator; the Clarke
provider and the Hadamard profile must draw the same bits as the two
samplers they used to carry (``tests/oracles.py``).  The profile's NumPy
scrambled Halton sequence and normal quantile are checked against scipy's,
which the oracle keeps.  The Lipschitz probes draw their pairs and axis
stencils in blocks under ``MAX_BATCH_ENTRIES``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import pjinv.hadamard
import pjinv.maps
from oracles import counting, halton_ball_points, inline_ball_points
from pjinv.hadamard import _ndtri, beta_profile
from pjinv.indices import ConormBounds
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
def test_profile_halton_points_keep_their_bits(monkeypatch, n, center):
    seen = []

    def record(model, provider, points, net, rng):
        seen.append(np.array(points))
        return [ConormBounds(1.0, 1.0, True, net)] * len(points)

    monkeypatch.setattr(pjinv.hadamard, "_point_bounds", record)
    center = np.asarray(center, dtype=float)
    beta_profile(theta_map("c", n), parse_provider("sum"), center, 1.5,
                 grid_n=5, samples_per_shell=7)
    grid = np.linspace(0.0, 1.5, 5)
    want = np.vstack([center] + [halton_ball_points(n, 7, grid[j], center,
                                                    seed=j)
                                 for j in range(1, 5)])
    np.testing.assert_array_equal(np.vstack(seen), want)


def profile_points(n, count, t_max, grid_n, center):
    # every point the profile hands to _point_bounds, and the oracle's
    seen = []

    def record(model, provider, points, net, rng):
        seen.append(np.array(points))
        return [ConormBounds(1.0, 1.0, True, net)] * len(points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pjinv.hadamard, "_point_bounds", record)
        beta_profile(theta_map("c", n), parse_provider("sum"), center, t_max,
                     grid_n=grid_n, samples_per_shell=count)
    grid = np.linspace(0.0, t_max, grid_n)
    want = np.vstack([center] + [halton_ball_points(n, count, grid[j], center,
                                                    seed=j)
                                 for j in range(1, grid_n)])
    return np.vstack(seen), want


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 40), count=st.integers(1, 130),
       grid_n=st.integers(2, 40), t_max=st.floats(1e-6, 1e6),
       data=st.data())
def test_profile_points_match_scipy_halton(n, count, grid_n, t_max, data):
    center = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    got, want = profile_points(n, count, t_max, grid_n, center)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("budget, blocks", [(1, 31), (53 * 32 * 3 + 5, 11),
                                            (53 * 32 * 7, 5)])
def test_profile_points_across_shell_blocks(budget, blocks):
    # a shell's largest working array is its 53 base-2 digit terms of 32
    # points: one, three and seven of the 31 shells per block, the last
    # block short; each block makes one _ndtri call
    calls = []

    def counted(p):
        calls.append(p.shape[0])
        return _ndtri(p)

    center = np.linspace(-1.0, 1.0, 10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", budget)
        mp.setattr(pjinv.hadamard, "_ndtri", counted)
        got, want = profile_points(10, 32, 2.0, 32, center)
    np.testing.assert_array_equal(got, want)
    assert len(calls) == blocks and sum(calls) == 31


def test_ndtri_matches_scipy_to_the_bit():
    clip = 1e-12
    e2 = np.exp(-2.0)
    edges = [clip, np.nextafter(clip, 1.0), 1.0 - clip,
             np.nextafter(1.0 - clip, 0.0), 0.5]
    for p in (e2, 1.0 - e2, 0.13533528323661269189,
              1.0 - 0.13533528323661269189):
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]
    rng = np.random.default_rng(3)
    # uniform values, and values crowding both tails
    tails = rng.uniform(size=25_000) ** 12
    p = np.clip(np.concatenate([edges, rng.uniform(size=50_000), tails,
                                1.0 - tails]), clip, 1.0 - clip)
    assert p.size > 100_000
    np.testing.assert_array_equal(_ndtri(p), ndtri(p))


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

