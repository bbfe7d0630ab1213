"""Stacked set construction against the per-point constructors.

``build_sets`` must equal ``loop_build_set`` (tests/oracles.py) called
point by point with one generator: the same vertices, radii and final
generator state, bit for bit, and the same exception type for a batch
with a bad row.  Its stacked co-norm bound must equal the one-set bound,
and both must keep their results when ``MAX_BATCH_ENTRIES`` cuts them into
blocks.  The sampled Hadamard profile must equal ``loop_beta_profile``,
one set at a time, to the bit.  The call-count tests pin the batching
itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pjinv.indices
import pjinv.maps
from oracles import (counting, inline_ball_points, loop_beta_profile,
                     loop_build_set)
from pjinv.hadamard import BetaProfile, beta_profile
from pjinv.indices import _stack_bounds, set_conorm_bounds
from pjinv.maps import (DomainError, MapModel, _blocks, _central_differences,
                        abs_shift_map, complexsq_map, exp1d_map, identity_map,
                        linear_map, theta_map)
from pjinv.properties import mvt_check
from pjinv.pseudojac import (MAX_REDRAWS, PseudoJacobianSet, build_set,
                             build_sets, parse_provider)

CATALOG = [identity_map(2), linear_map(np.array([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0]])),
           abs_shift_map(), theta_map("a", 3, 0.5), theta_map("b", 3),
           theta_map("c", 3), complexsq_map(), exp1d_map()]
PROVIDERS = ["exact", "sum", "clarke:delta=1e-3,m=5,eps=0",
             "clarke:delta=1e-4,m=3,eps=0.25"]


def loop_sets(model, points, spec, rng, sets=None):
    sets = [loop_build_set(model, x, spec, rng=rng) for x in points] \
        if sets is None else sets
    k = spec.m if spec.kind == "clarke" else 1
    vertices = np.array([jset.vertices for jset in sets]).reshape(
        len(points), k, model.dim_out, model.dim_in)
    return vertices, np.array([jset.radius for jset in sets])


@st.composite
def batches(draw):
    # points in [-2, 2]^n, some coordinates zeroed: the kinks of the
    # catalog maps lie on coordinate hyperplanes
    model = draw(st.sampled_from(CATALOG))
    count = draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-2.0, 2.0, (count, model.dim_in))
    points[rng.uniform(size=points.shape) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    return model, points


@settings(derandomize=True, deadline=None, max_examples=80)
@given(batches(), st.sampled_from(PROVIDERS), st.integers(0, 2**32 - 1))
def test_stack_equals_the_point_loop(batch, provider, seed):
    model, points = batch
    spec = parse_provider(provider)
    stack_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    vertices, radii = build_sets(model, points, spec, rng=stack_rng)
    sets = [loop_build_set(model, x, spec, rng=loop_rng) for x in points]
    want_vertices, want_radii = loop_sets(model, points, spec, None, sets)
    assert vertices.shape == want_vertices.shape
    assert not vertices.flags.writeable
    np.testing.assert_array_equal(vertices, want_vertices)
    np.testing.assert_array_equal(radii, want_radii)
    assert stack_rng.bit_generator.state == loop_rng.bit_generator.state
    # mvt_check's hull points: a matmul rounds by the memory layout of
    # each operator, so the stack must keep the loop's layout too
    direction = np.random.default_rng(seed).uniform(-1.0, 1.0, model.dim_in)
    for got, jset in zip(vertices, sets):
        np.testing.assert_array_equal(got @ direction, jset.vertices @ direction)
    for i, x in enumerate(points[:2]):
        jset = build_set(model, x, spec, rng=seed + i)
        again = loop_build_set(model, x, spec, rng=seed + i)
        np.testing.assert_array_equal(jset.vertices, again.vertices)
        assert jset.radius == again.radius


def raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(batches(), st.sampled_from(PROVIDERS), st.integers(0, 5),
       st.sampled_from([1e7, -1e7, np.nan, np.inf]), st.integers(0, 2**32 - 1))
def test_bad_row_raises_what_the_loop_raises(batch, provider, k, bad, seed):
    model, points = batch
    spec = parse_provider(provider)
    points = np.vstack([points, np.zeros((k + 1, model.dim_in))])
    points[k, -1] = bad
    stack_type = raised(lambda: build_sets(model, points, spec, rng=seed))
    loop_type = raised(lambda: loop_sets(model, points, spec,
                                         np.random.default_rng(seed)))
    assert stack_type is loop_type is not None


def test_a_wrong_shape_is_refused():
    model = theta_map("c", 3)
    for points in (np.zeros((2, 2)), np.zeros(3), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError):
            build_sets(model, points, parse_provider("exact"))


def test_sum_provider_needs_a_decomposition():
    model = MapModel("plain", 1, 1, lambda xs: xs)
    with pytest.raises(ValueError, match="smooth_part"):
        build_sets(model, np.zeros((2, 1)), parse_provider("sum"))


@pytest.mark.parametrize("radii, message", [
    (lambda xs: np.full(len(xs), -0.5), "radius must be >= 0"),
    (lambda xs: np.zeros((len(xs), 1)),
     r"plain: expected 3 radii, got shape \(3, 1\)")])
def test_sum_radii_are_checked(radii, message):
    model = MapModel("plain", 2, 2, lambda xs: xs,
                     smooth_part=lambda xs: np.broadcast_to(np.eye(2),
                                                            (len(xs), 2, 2)),
                     lip_part=lambda xs, r: radii(xs))
    with pytest.raises(ValueError, match=message):
        build_sets(model, np.zeros((3, 2)), parse_provider("sum"))


def test_a_derivative_of_the_wrong_shape_is_refused():
    model = MapModel("plain", 2, 2, lambda xs: xs,
                     deriv=lambda xs: np.zeros((len(xs), 2, 3)))
    with pytest.raises(ValueError,
                       match="plain: expected 2 x 2 operators, got shape "
                             r"\(2, 3\)"):
        build_sets(model, np.zeros((3, 2)), parse_provider("exact"))


def test_a_clarke_point_outside_the_domain_box_is_refused():
    # 700 - 1e-4 is inside exp1d's box, but most of its m ball points,
    # up to 1e-3 away, are not
    with pytest.raises(DomainError, match="exp1d: point outside domain box"):
        build_set(exp1d_map(), [700.0 - 1e-4],
                  parse_provider("clarke:delta=1e-3,m=32,eps=0"), rng=0)


@pytest.mark.parametrize("provider", ["exact", "sum"])
@pytest.mark.parametrize("broadcast", [True, False])
def test_a_non_finite_operator_is_refused(provider, broadcast):
    # a broadcast view is checked through its one operator, any other stack
    # row by row: here only its last row is bad
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    if broadcast:
        jacs = np.broadcast_to(bad, (5, 2, 2))
    else:
        jacs = np.stack([np.eye(2)] * 4 + [bad])
    model = MapModel("bad", 2, 2, lambda xs: xs, deriv=lambda xs: jacs,
                     smooth_part=lambda xs: jacs,
                     lip_part=lambda xs, r: np.zeros(len(xs)))
    with pytest.raises(ValueError, match="finite"):
        build_sets(model, np.zeros((5, 2)), parse_provider(provider))


def test_ball_stack_loops_over_the_points():
    model = theta_map("c", 3)
    points = np.array([[0.1, -0.2, 0.3], [0.0, 0.5, 0.0]])
    spec = parse_provider("ball:m=40")
    stack_rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
    vertices, radii = build_sets(model, points, spec, rng=stack_rng)
    want_vertices, want_radii = loop_sets(model, points, spec, loop_rng)
    np.testing.assert_array_equal(vertices, want_vertices)
    np.testing.assert_array_equal(radii, want_radii)
    assert stack_rng.bit_generator.state == loop_rng.bit_generator.state


def singleton_stack(repeat=1):
    # theta-c sum sets (positive radii) and linear exact sets (zero radii)
    # in mixed order, each vertex taken `repeat` times
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, (9, 3))
    theta = build_sets(theta_map("c", 3), points, parse_provider("sum"))
    a = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 1.0]])
    lin = build_sets(linear_map(a), points, parse_provider("exact"))
    order = rng.permutation(18)
    vertices = np.concatenate([theta[0], lin[0]])[order]
    return vertices.repeat(repeat, axis=1), np.concatenate([theta[1], lin[1]])[order]


def mixed_stack():
    # two-vertex sets: the singletons with their vertex repeated, and one
    # set of two different vertices that takes the mesh bound
    vertices, radii = singleton_stack(repeat=2)
    pair = np.concatenate([vertices[:1, :1], vertices[1:2, :1]], axis=1)
    return np.concatenate([vertices, pair]), np.append(radii, 0.1)


def assert_same_bounds(got, want):
    # two tuples of bound arrays, bit for bit
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w, strict=True)


@pytest.mark.parametrize("stack", [singleton_stack, mixed_stack])
def test_stacked_bound_equals_the_one_set_bound(stack):
    vertices, radii = stack()
    one_by_one = [set_conorm_bounds(PseudoJacobianSet(v, r))
                  for v, r in zip(vertices, radii)]
    want = tuple(np.array([getattr(b, name) for b in one_by_one])
                 for name in ("lower", "upper", "certified"))
    *got, members = _stack_bounds(vertices, radii, 1e-3)
    assert_same_bounds(tuple(got), want)
    # each member is the one-set pass's member, and the witness at radius 0
    hulls = ~(vertices == vertices[:, :1]).all(axis=(1, 2, 3))
    assert hulls.sum() == (stack is mixed_stack) and (radii == 0.0).sum() == 9
    for member, bounds, vs, radius in zip(members, one_by_one, vertices, radii):
        alone = _stack_bounds(vs[None], np.array([radius]), 1e-3)[3][0]
        np.testing.assert_array_equal(member, alone, strict=True)
        if radius == 0.0:
            np.testing.assert_array_equal(member, bounds.witness, strict=True)


@pytest.mark.parametrize("budget", [9, 4 * 9, 5 * 3 * 3])
def test_blocks_keep_the_stack_and_its_bounds(monkeypatch, budget):
    # clarke on theta-c:3 takes 3 * 3 entries per point: the budgets put
    # 1, 4 and 5 of the 8 * 7 points in a block
    model = theta_map("c", 3)
    points = np.random.default_rng(6).uniform(-1.0, 1.0, (7, 3))
    spec = parse_provider("clarke:delta=1e-3,m=8,eps=0")
    whole = build_sets(model, points, spec, rng=2)
    sets = mixed_stack()
    whole_bounds = _stack_bounds(*sets, 1e-3)
    monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", budget)
    calls = counting(model)
    blocked = build_sets(model, points, spec, rng=2)
    np.testing.assert_array_equal(blocked[0], whole[0])
    np.testing.assert_array_equal(blocked[1], whole[1])
    assert max(calls["fn_batch"]) * 3 <= budget
    assert len(calls["fn_batch"]) == 2 * len(_blocks(7 * 8, 3 * 3))
    assert_same_bounds(_stack_bounds(*sets, 1e-3), whole_bounds)


def patchy_map():
    # the identity on R^2, NaN where x_0 > 0.5: a Clarke point near that
    # patch gets non-finite Jacobians for about half its draws
    def fn_batch(xs):
        return np.where(xs[:, :1] > 0.5, np.nan, xs)

    return MapModel("patchy", 2, 2, fn_batch)


def test_clarke_redraws_follow_the_documented_stream():
    model = patchy_map()
    points = np.array([[0.5, 0.0], [-1.0, 0.3], [0.5, 1.0]])
    spec = parse_provider("clarke:delta=1e-2,m=6,eps=0")
    rng = np.random.default_rng(8)
    vertices, _ = build_sets(model, points, spec, rng=rng)
    assert vertices.shape == (3, 6, 2, 2)
    assert np.all(np.isfinite(vertices))
    np.testing.assert_allclose(vertices, np.broadcast_to(np.eye(2), vertices.shape),
                               atol=1e-9)
    # first every point's spec.m draws in point order, then per round the
    # bad vertices of each point in point order
    ref = np.random.default_rng(8)
    step = spec.delta * 1e-4
    zs = np.array([inline_ball_points(ref, x, spec.delta, spec.m) for x in points])
    jacs = _central_differences(model, zs.reshape(-1, 2), step).reshape(3, 6, 2, 2)
    rounds = 0
    for _ in range(MAX_REDRAWS):
        bad = ~np.isfinite(jacs).all(axis=(2, 3))
        if not bad.any():
            break
        rounds += 1
        redraw = np.vstack([inline_ball_points(ref, x, spec.delta, int(row.sum()))
                            for x, row in zip(points, bad) if row.any()])
        jacs[bad] = _central_differences(model, redraw, step)
    assert rounds >= 2
    np.testing.assert_array_equal(vertices, jacs)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_profile_takes_one_build_and_one_svd_per_block():
    # theta-a:10 with sum: 1 + 5 x 7 = 36 singleton sets of 10 x 10 entries,
    # in one block, then in blocks of 8 points that cut shells 3, 4 and 5.
    # g' is the constant identity, a broadcast view: each block's stack is
    # one operator and takes one SVD of it
    for per_block, sizes in ((None, [36]), (8, [8, 8, 8, 8, 4])):
        builds, svds = [], []
        build, svd = pjinv.indices.build_sets, np.linalg.svd

        def counting_build(model, points, *args, **kwargs):
            builds.append(len(points))
            return build(model, points, *args, **kwargs)

        def counting_svd(a, *args, **kwargs):
            svds.append((np.shape(a), kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            if per_block is not None:
                mp.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", per_block * 100)
            mp.setattr(pjinv.indices, "build_sets", counting_build)
            mp.setattr(np.linalg, "svd", counting_svd)
            profile = beta_profile(theta_map("a", 10, 0.5),
                                   parse_provider("sum"), np.zeros(10), 2.0,
                                   grid_n=6, samples_per_shell=7)
        np.testing.assert_allclose(profile.beta, 0.5, rtol=0.0, atol=1e-12)
        assert builds == sizes
        # singular values only, one call of one matrix per block, and no
        # singular vectors
        assert svds == [((1, 10, 10), False)] * len(sizes)


@pytest.mark.parametrize("provider",
                         ["sum", "exact", "clarke:delta=1e-3,m=2,eps=0"])
@pytest.mark.parametrize("model", CATALOG + [theta_map("c", 1)],
                         ids=lambda model: model.name)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), grid_n=st.integers(2, 4),
       count=st.integers(1, 3))
def test_profile_equals_the_one_set_loop(model, provider, seed, grid_n, count):
    # a random center and radius; the batched profile in one block, then in
    # blocks of 2 points, which cut every shell of 2 or 3 points
    spec = parse_provider(provider)
    draws = np.random.default_rng(seed)
    center = draws.uniform(-2.0, 2.0, model.dim_in)
    t_max = draws.uniform(0.1, 3.0)
    loop_rng = np.random.default_rng(seed)
    grid, beta = loop_beta_profile(model, spec, center, t_max, grid_n, count,
                                   rng=loop_rng)
    want = BetaProfile(grid, beta, "sampled")
    k = spec.m if spec.kind == "clarke" else 1
    for per_block in (None, 2):
        stack_rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            if per_block is not None:
                mp.setattr(pjinv.maps, "MAX_BATCH_ENTRIES",
                           per_block * k * model.dim_out * model.dim_in)
            got = beta_profile(model, spec, center, t_max, grid_n=grid_n,
                               samples_per_shell=count, rng=stack_rng)
        np.testing.assert_array_equal(got.grid, want.grid)
        np.testing.assert_array_equal(got.beta, want.beta)
        np.testing.assert_array_equal(got.rho, want.rho)
        np.testing.assert_array_equal(got.rho_lower, want.rho_lower)
        assert stack_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("budget", [None, 2 * 2 * 1000])
def test_clarke_segment_makes_one_oracle_pair_per_block(monkeypatch, budget):
    # 64 grid points x 64 Clarke points on theta-a:2, 2 x 2 entries each
    if budget is not None:
        monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", budget)
    model = theta_map("a", 2, 0.5)
    calls = counting(model)
    dist, ok = mvt_check(model, parse_provider("clarke:delta=1e-4,m=64,eps=0"),
                         np.array([0.3, -0.5]), np.array([-0.2, 0.7]),
                         segment_samples=64, tol=1e-3, rng=1)
    blocks = len(_blocks(64 * 64, 2 * 2))
    assert blocks == (1 if budget is None else 5)
    assert len(calls["fn_batch"]) == 2 * blocks
    assert sum(calls["fn_batch"]) == 2 * 64 * 64 * 2
    assert calls["fn"] == 2  # f(v) and f(u)
    assert ok and dist <= 1e-3
