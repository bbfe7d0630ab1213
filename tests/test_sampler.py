"""The one ball sampler and the kernels that draw from it in blocks.

``_uniform_ball`` feeds ``maps._ball_points`` from a generator; the Clarke
provider must draw the same bits as the sampler it used to carry
(``tests/oracles.py``).  The Hadamard profile feeds the same transform from
one ``default_rng(j)`` draw per grid shell j.  The Lipschitz probes draw
their pairs and axis stencils in blocks under ``MAX_BATCH_ENTRIES``.
The stencils and the ball transform run their broadcast passes down the
columns of a tall block; they must give the bits of the row-wise passes
they replaced (``tests/oracles.py``), zero signs included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pjinv.indices
import pjinv.maps
from oracles import (counting, inline_ball_points,
                     reference_ball_points, reference_central_differences)
from pjinv.hadamard import beta_profile
from pjinv.invert import inverse_lipschitz_probe
from pjinv.linalg import TALL_ROWS, _row_norms
from pjinv.maps import (MapModel, _blocks, _central_differences,
                        _uniform_ball, _uniform_balls, abs_shift_map,
                        complexsq_map, exp1d_map, linear_map,
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


def _bits(a):
    # the bytes of a's values (zero signs included), its shape and layout
    return np.ascontiguousarray(a).tobytes(), a.shape, a.strides


def _signed_zeros(rng, a):
    # a with about a quarter of its entries +0.0 and a quarter -0.0
    pick = rng.random(a.shape)
    return np.where(pick < 0.25, 0.0, np.where(pick < 0.5, -0.0, a))


def _recording(model):
    # the model, and the list its fn_batch appends a copy of each input to
    seen = []

    def fn_batch(xs):
        seen.append(_bits(xs))
        return model.fn_batch(xs)

    return MapModel(model.name, model.dim_in, model.dim_out, fn_batch), seen


def _stencil_map(kind, n, rng):
    if kind == "theta-a":
        return theta_map("a", n, 0.5)
    if kind == "theta-c":
        return theta_map("c", n)
    if kind == "complexsq":
        return complexsq_map()
    return linear_map(rng.standard_normal((2, n)))  # 2 x n, m != n


@settings(derandomize=True, deadline=None, max_examples=80)
@given(n=st.integers(1, 12),
       kind=st.sampled_from(["theta-a", "theta-c", "complexsq", "linear"]),
       rows=st.integers(1, 3 * TALL_ROWS + 40), per_row=st.booleans(),
       blocks=st.sampled_from([1, 3, 4]), zeros=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, kind="theta-a", rows=TALL_ROWS, per_row=False, blocks=1,
         zeros=True, seed=0)
@example(n=3, kind="linear", rows=3 * TALL_ROWS, per_row=True, blocks=3,
         zeros=True, seed=1)
@example(n=2, kind="complexsq", rows=TALL_ROWS - 1, per_row=False, blocks=1,
         zeros=True, seed=2)
def test_stencils_keep_their_bits(n, kind, rows, per_row, blocks, zeros,
                                  seed):
    # the Jacobians and every oracle input, block by block, are those of
    # the row-wise stencil: a -0.0 off the diagonal of a + stencil is +0.0
    rng = np.random.default_rng(seed)
    model = _stencil_map(kind, n, rng)
    n = model.dim_in
    zs = rng.standard_normal((rows, n))
    if zeros:
        zs = _signed_zeros(rng, zs)
    step = 1e-6 * (1.0 + _row_norms(zs)) if per_row else 1e-7
    per_item = n * max(n, model.dim_out)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of ceil(rows / blocks) rows, so that many when rows allow
        mp.setattr(pjinv.maps, "MAX_BATCH_ENTRIES",
                   -(-rows // blocks) * per_item)
        got_model, got_seen = _recording(model)
        want_model, want_seen = _recording(model)
        got = _central_differences(got_model, zs, step)
        want = reference_central_differences(want_model, zs, step)
        assert len(got_seen) == 2 * len(_blocks(rows, per_item))
    assert _bits(got) == _bits(want)
    assert got_seen == want_seen


@settings(derandomize=True, deadline=None, max_examples=80)
@given(n=st.integers(1, 12), counts=st.lists(st.integers(0, 2 * TALL_ROWS),
                                             min_size=1, max_size=4),
       column=st.booleans(), zeros=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, counts=[TALL_ROWS], column=False, zeros=True, seed=0)
@example(n=3, counts=[40, 40], column=True, zeros=True, seed=1)
def test_ball_points_keep_their_bits(n, counts, column, zeros, seed):
    # the sampler's points and the generator's end state are those of the
    # row-wise transform on the same draws, for one center and for several;
    # so are the points of draws with zero rows and signed zeros
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, (len(counts), n))
    if zeros:
        centers = _signed_zeros(rng, centers)
    counts = np.array(counts)
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    got = _uniform_balls(got_rng, centers, 0.5, counts)
    draws = [(want_rng.standard_normal((count, n)),
              want_rng.random((count, 1))) for count in counts]
    normals = np.concatenate([d[0] for d in draws])
    uniforms = np.concatenate([d[1] for d in draws])
    spread = centers[0] if len(counts) == 1 else centers.repeat(counts, axis=0)
    want = reference_ball_points(spread, 0.5, normals, uniforms)
    assert _bits(got) == _bits(want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # draws no generator gives: zero rows, signed zeros, a radius per row
    total = int(counts.sum())
    normals = _signed_zeros(rng, rng.standard_normal((total, n)))
    normals[::5] = 0.0
    uniforms = rng.random((total, 1))
    radius = rng.uniform(0.0, 3.0, (total, 1)) if column else 2.0
    for center in (centers[0], spread):
        got = pjinv.maps._ball_points(center, radius, normals, uniforms)
        want = reference_ball_points(center, radius, normals, uniforms)
        assert _bits(got) == _bits(want)


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

