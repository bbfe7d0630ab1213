import hashlib
import json
import warnings

import numpy as np
import pytest

import pjinv.indices
import pjinv.linalg
import pjinv.maps
from oracles import jacobi_conorm, loop_stack_bounds
from pjinv.cli import main
from pjinv.indices import (DEFAULT_NET, ConormBounds, _singleton_values,
                           _stack_bounds, regularity_index, set_conorm_bounds)
from pjinv.linalg import conorm, spectral_norm
from pjinv.maps import linear_map, make_map, theta_map
from pjinv.pseudojac import (ProviderSpec, PseudoJacobianSet, build_set,
                             build_sets, parse_provider)


@pytest.fixture
def svd_calls(monkeypatch):
    # the shape of each stack pjinv.linalg.singular_values is called on
    calls = []
    original = pjinv.linalg.singular_values

    def spy(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(pjinv.linalg, "singular_values", spy)
    return calls


class TestConormBoundsType:
    def test_invariant(self):
        with pytest.raises(ValueError):
            ConormBounds(2.0, 1.0, True, 1e-3)

    def test_repr_mentions_kind(self):
        assert "certified" in repr(ConormBounds(0.5, 0.5, True, 1e-3))
        assert "sampled" in repr(ConormBounds(0.0, 0.5, False, 1e-3))


class TestSingletonBounds:
    def test_diag_plus_ball_exact(self):
        jset = PseudoJacobianSet([np.diag([2.0, 3.0])], 0.5)
        b = set_conorm_bounds(jset)
        assert b.lower == pytest.approx(1.5, abs=1e-12)
        assert b.upper == pytest.approx(1.5, abs=1e-12)
        assert b.certified

    def test_identity_no_ball(self):
        b = set_conorm_bounds(PseudoJacobianSet([np.eye(3)], 0.0))
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.certified

    def test_witness_attains_the_bound(self):
        # rank-one perturbation along the minimal singular pair is sharp
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
            r = 0.5 * conorm(a)
            b = set_conorm_bounds(PseudoJacobianSet([a], r))
            assert spectral_norm(b.witness - a) == pytest.approx(r, abs=1e-9)
            assert conorm(b.witness) == pytest.approx(conorm(a) - r,
                                                      abs=1e-10)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5)])
    def test_one_svd_per_bound_with_a_ball(self, monkeypatch, shape):
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal(shape)
            r = 0.5 * jacobi_conorm(a) + 1e-3
            calls.clear()
            b = set_conorm_bounds(PseudoJacobianSet([a], r))
            # the bound takes its singular values of a one-set stack (none
            # for a wide operator, whose co-norm is 0), and the witness one
            # thin SVD of the operator
            bound = [(1, *shape)] if shape[0] >= shape[1] else []
            assert calls == bound + [shape]
            assert b.certified and b.lower == b.upper
            assert abs(b.lower - max(jacobi_conorm(a) - r, 0.0)) <= 1e-12
            if shape[0] >= shape[1]:
                # the witness attains the bound for tall operators too
                assert spectral_norm(b.witness - a) == pytest.approx(r, abs=1e-12)
                assert conorm(b.witness) == pytest.approx(b.lower, abs=1e-12)

    def test_ball_swallows_conorm(self):
        b = set_conorm_bounds(PseudoJacobianSet([np.eye(2)], 2.0))
        assert b.lower == 0.0
        assert b.upper == 0.0


class TestHullBounds:
    def test_opposite_identities_contain_zero(self):
        b = set_conorm_bounds(PseudoJacobianSet([np.eye(2), -np.eye(2)]),
                              net=1e-3)
        assert b.lower == 0.0
        assert b.upper <= 2e-3
        assert b.certified

    def test_two_vertex_brute_force_soundness(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            b_mat = rng.standard_normal((2, 2))
            bounds = set_conorm_bounds(PseudoJacobianSet([a, b_mat]),
                                       net=1e-2)
            # independent oracle: exhaustive lambda grid + batched LAPACK SVD
            lam = np.linspace(0.0, 1.0, 100001)
            combos = lam[:, None, None] * a + (1 - lam)[:, None, None] * b_mat
            brute = float(np.min(np.linalg.svd(combos,
                                               compute_uv=False)[:, -1]))
            assert brute >= bounds.lower - 1e-9
            # the mesh minimum can only over-estimate the true infimum
            assert bounds.upper >= brute - 1e-9

    def test_monotone_in_radius_and_vertices(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        b_mat = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        base = set_conorm_bounds(PseudoJacobianSet([a, b_mat]), net=1e-2)
        fatter = set_conorm_bounds(PseudoJacobianSet([a, b_mat], 0.3),
                                   net=1e-2)
        more = set_conorm_bounds(
            PseudoJacobianSet([a, b_mat, np.zeros((2, 2))]), net=1e-2)
        assert fatter.lower <= base.lower + 1e-12
        assert more.lower <= base.lower + 1e-12

    def test_many_vertices_fall_back_to_sampled(self):
        rng = np.random.default_rng(3)
        vs = [rng.standard_normal((2, 2)) for _ in range(6)]
        b = set_conorm_bounds(PseudoJacobianSet(vs), net=1e-3)
        assert not b.certified
        assert b.lower == 0.0

    def test_three_vertices_certify_only_on_a_coarser_net(self):
        # a 3-vertex mesh at net 1e-3 has 501,501 points, over the budget
        rng = np.random.default_rng(5)
        vs = [rng.standard_normal((2, 2)) + 2.0 * np.eye(2) for _ in range(3)]
        assert not set_conorm_bounds(PseudoJacobianSet(vs), net=DEFAULT_NET).certified
        assert set_conorm_bounds(PseudoJacobianSet(vs), net=1e-2).certified

    @pytest.mark.parametrize("k", [2, 3, 4, 32])
    def test_svd_calls_per_bound(self, svd_calls, k):
        spec = ProviderSpec("clarke", delta=1e-3, m=k, eps=0.0)
        jset = build_set(theta_map("c", 3), np.array([0.1, -0.2, 0.3]), spec,
                         rng=k)
        # the matrices of each call, at the default net and at 1e-2: a
        # certified bound takes diam with the first level, then the rows of
        # each later level its bounds cannot rule out (the 2-vertex hull
        # none, at either net); a sampled one takes the k vertices and
        # 4,096 samples
        calls = {2: ([12], [6]), 3: ([4099], [18, 16, 16]),
                 4: ([4100], [41, 344, 2178]), 32: ([4128], [4128])}[k]
        for net, matrices in zip((DEFAULT_NET, 1e-2), calls):
            svd_calls.clear()
            bounds = set_conorm_bounds(jset, net=net)
            assert bounds.certified == (matrices[0] < 4099)
            assert [shape[0] for shape in svd_calls] == matrices

    def test_the_mesh_op_decomposes_only_its_first_level(self, svd_calls):
        # the benchmark's mesh op: a 2-vertex Clarke set of theta-c:4 at the
        # origin.  Its 1,001-row mesh has levels of 11, 90 and 900 rows
        # (strides 100, 10 and 1); the first goes into one call with the
        # vertex difference, and the chord bounds rule out every row of the
        # later levels, of which the Lipschitz bounds alone keep 4 each
        spec = ProviderSpec("clarke", delta=1e-3, m=2, eps=0.0)
        jset = build_set(theta_map("c", 4), np.zeros(4), spec, rng=5)
        svd_calls.clear()
        assert set_conorm_bounds(jset).certified
        assert svd_calls == [(12, 4, 4)]

    def test_the_mesh_command_decomposes_at_most_140_matrices(self, svd_calls,
                                                               capsys):
        # the benchmark's mesh command at --seed 11: 48 matrices, the
        # index's set, then the profile's three sets (the origin and two
        # shell points) in one stack pass, each of 11 first-level rows and
        # the vertex difference, and no call for singleton sets, of which
        # there are none
        assert main(["certify", "--map", "theta-c:4", "--provider",
                     "clarke:delta=1e-3,m=2,eps=0", "--grid-n", "3",
                     "--shell-samples", "1", "--seed", "11"]) == 0
        assert svd_calls == [(12, 4, 4), (36, 4, 4)]

    def test_the_default_mesh_certify_decomposes_99248_matrices(self,
                                                                svd_calls,
                                                                capsys):
        # the default-size certify of the benchmark's map and provider: the
        # index's set, then the profile's 8,129 sets in 25 blocks of at most
        # 327 (a set's table and three arrays of its largest level take
        # 6,401 entries), each block taking its first level in one call and
        # the rows that survive a later level in one more, 40 in all
        assert main(["certify", "--map", "theta-c:4", "--provider",
                     "clarke:delta=1e-3,m=2,eps=0"]) == 0
        assert len(svd_calls) == 66
        assert sum(shape[0] for shape in svd_calls) == 99_248

    def test_a_tied_stack_in_several_blocks_equals_the_full_mesh(
            self, svd_calls, monkeypatch):
        # theta-a:4:0.5 Clarke sets at points on and near its kinks, where
        # ties in sigma_min defeat the prune: two of the six sets decompose
        # every row of the last level.  A set's table and three arrays of
        # its largest level take 6,401 entries, so a cap of twice that makes
        # blocks of two sets, each visiting both later levels
        points = np.zeros((6, 4))
        points[1:, 0] = np.linspace(-0.5, 0.5, 5)
        points[3, 1:] = 0.2
        vertices, radii = build_sets(
            theta_map("a", 4, 0.5), points,
            parse_provider("clarke:delta=1e-3,m=2,eps=0"), rng=1)
        monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", 2 * 6401)
        blocks = []
        level_bounds = pjinv.indices._level_bounds

        def spy(corners, *args):
            blocks.append(len(corners))
            return level_bounds(corners, *args)

        monkeypatch.setattr(pjinv.indices, "_level_bounds", spy)
        got = _stack_bounds(vertices, radii, DEFAULT_NET)
        assert blocks == [2] * 6
        assert sum(shape[0] for shape in svd_calls) >= 6 * 12 + 2 * 900
        monkeypatch.undo()
        for values, want in zip(got, loop_stack_bounds(vertices, radii,
                                                       DEFAULT_NET)):
            np.testing.assert_array_equal(values, want)

    def test_a_broadcast_stack_takes_one_svd(self, svd_calls, monkeypatch):
        # blocks of 4 operators: a broadcast stack is one operator and takes
        # one call of it, a materialised copy one call per block
        monkeypatch.setattr(pjinv.maps, "MAX_BATCH_ENTRIES", 4 * 9)
        stack = np.broadcast_to(np.diag([3.0, 2.0, 0.5]), (10, 3, 3))
        radii = np.linspace(0.0, 1.0, 10)
        values = _singleton_values(stack, radii)
        assert svd_calls == [(1, 3, 3)]
        svd_calls.clear()
        np.testing.assert_array_equal(_singleton_values(stack.copy(), radii),
                                      values)
        assert svd_calls == [(4, 3, 3), (4, 3, 3), (2, 3, 3)]
        np.testing.assert_array_equal(values, np.maximum(0.5 - radii, 0.0))

    def test_net_validation(self):
        with pytest.raises(ValueError):
            set_conorm_bounds(PseudoJacobianSet([np.eye(2)]), net=0.0)
        # 1 / net overflows a float: a mesh over budget, bounded by samples
        hull = PseudoJacobianSet([np.eye(2), 2.0 * np.eye(2)])
        tiny, fine = (set_conorm_bounds(hull, net=net)
                      for net in (5e-324, 1e-300))
        assert not tiny.certified
        assert (tiny.lower, tiny.upper) == (fine.lower, fine.upper) == (0.0, 1.0)
        np.testing.assert_array_equal(tiny.witness, fine.witness)

    def test_huge_vertices_raise_no_overflow_warning(self):
        # the vertices' Frobenius norms overflow: the margin's unit is then
        # the largest float, and the bounds are the hull's own.  Members
        # are 1e200 * diag(2 - lam, 6 - 5 lam), least at the first vertex,
        # and the vertex difference has norm 5e200
        hull = PseudoJacobianSet([1e200 * np.eye(2),
                                  2e200 * np.diag([1.0, 3.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = set_conorm_bounds(hull)
        assert b.certified
        assert b.upper == pytest.approx(1e200, rel=1e-15)
        assert b.lower == pytest.approx(1e200 - DEFAULT_NET * 5e200,
                                        rel=1e-12)

    def test_a_hull_at_net_zero_is_refused(self):
        # a hull takes the stack pass's one net check, as a singleton does
        with pytest.raises(ValueError, match="net must be > 0"):
            set_conorm_bounds(PseudoJacobianSet([np.eye(2), 2.0 * np.eye(2)]),
                              net=0.0)


class TestWitness:
    """A witness is a member of its set at which the set's upper bound is
    attained: within the radius of the pass's member, with that co-norm."""

    @pytest.mark.parametrize("vertices, radius", [
        # a hull whose radius is below its co-norm, and one whose radius
        # swallows it
        ([np.diag([2.0, 1.0]), np.array([[1.5, 0.5], [0.0, 1.2]])], 0.25),
        ([np.diag([2.0, 1.0]), np.array([[1.5, 0.5], [0.0, 1.2]])], 3.0),
        # a singleton whose radius exceeds its co-norm 1
        ([np.eye(3)], 2.0),
        ([np.diag([3.0, 2.0, 0.5])], 0.5),
        ([np.eye(2)], 0.0),
    ])
    def test_the_witness_attains_the_upper_bound(self, vertices, radius):
        jset = PseudoJacobianSet(vertices, radius)
        b = set_conorm_bounds(jset)
        member = _stack_bounds(jset.vertices[None], np.array([radius]),
                               DEFAULT_NET)[3][0]
        assert spectral_norm(b.witness - member) <= radius + 1e-12
        assert conorm(b.witness) == pytest.approx(b.upper, abs=1e-12)

    def test_a_clarke_index_witness_attains_its_set_bound(self):
        # theta-c:3 at 0 with eps 0.05: a two-vertex hull of radius 0.05
        model = theta_map("c", 3)
        spec = parse_provider("clarke:delta=1e-3,m=2,eps=0.05")
        rep = regularity_index(model, spec, np.zeros(3), rng=1)
        jset = build_set(model, np.zeros(3), spec,
                         rng=np.random.default_rng(1))
        b = set_conorm_bounds(jset)
        assert b.lower == rep.alpha < b.upper
        assert conorm(rep.witness) == pytest.approx(b.upper, abs=1e-12)

    def test_a_swallowed_singleton_witness_is_singular(self, capsys):
        # sum on theta-a:4:2 at 0: the identity with radius 2 > conorm 1
        code = main(["certify", "--map", "theta-a:4:2", "--provider", "sum",
                     "--grid-n", "3", "--shell-samples", "1"])
        rec = json.loads(capsys.readouterr().out)
        assert code == 1 and rec["verdict"] == "not-regular"
        assert conorm(np.array(rec["witnesses"])) == 0.0


class TestRegularityIndex:
    def test_theta_a_sum_provider(self):
        m = theta_map("a", 4, 0.5)
        rep = regularity_index(m, parse_provider("sum"), np.zeros(4))
        assert rep.alpha == pytest.approx(0.5, abs=1e-10)
        assert rep.regular
        assert rep.bound_kind == "certified"

    def test_linear_exact_provider(self):
        m = linear_map(np.diag([2.0, 3.0]))
        rep = regularity_index(m, parse_provider("exact"), np.zeros(2))
        # equals the reciprocal norm of the explicit inverse
        oracle = 1.0 / np.linalg.norm(np.linalg.inv(np.diag([2.0, 3.0])), 2)
        assert rep.alpha == pytest.approx(oracle, abs=1e-10)
        assert rep.regular

    def test_theta_b_not_regular(self):
        m = theta_map("b", 4)
        rep = regularity_index(m, parse_provider("sum"), np.zeros(4))
        assert rep.alpha == 0.0
        assert not rep.regular

    def test_usc_shortcut_agrees_with_shrinking_balls(self):
        m = theta_map("a", 3, 0.5)
        provider = parse_provider("sum")
        rng = np.random.default_rng(4)
        net = 1e-3
        for _ in range(3):
            x = rng.uniform(-1, 1, 3)
            at_point = regularity_index(m, provider, x, net=net)
            shrunk = regularity_index(m, provider, x, net=net, rng=5,
                                      use_usc_shortcut=False)
            assert abs(at_point.alpha - shrunk.alpha) <= 2 * net + 1e-3

    def test_shrinking_balls_bound_each_set_once(self, monkeypatch):
        # 3 radii of 1 + 24 points, each a 2-vertex hull: one stack pass of
        # 25 hulls per radius, 75 hull bounds, and the witness comes from
        # the pass, not from a 76th
        calls = []
        original = pjinv.indices._hull_bounds

        def spy(vertices, *args):
            calls.append(len(vertices))
            return original(vertices, *args)

        monkeypatch.setattr(pjinv.indices, "_hull_bounds", spy)
        rep = regularity_index(theta_map("c", 3),
                               parse_provider("clarke:delta=1e-3,m=2,eps=0"),
                               np.zeros(3), rng=0, use_usc_shortcut=False)
        assert rep.bound_kind == "certified" and rep.regular
        assert calls == [25, 25, 25]

    @pytest.mark.parametrize(
        "map_id, provider, x, seed, alpha, radius, digest", [
        # hulls of 2 Clarke vertices (certified) and of 3 (sampled), a
        # singleton of radius 0.5 and one of radius 0
        ("theta-c:3", "clarke:delta=1e-3,m=2,eps=0", [0.0, 0.0, 0.0], 1,
         "0x1.fd7d72ea6f50ep-1", "0x1.47ae147ae147bp-7",
         "c0847d2db1fd948fd4a6f7bc81d8e9a8375a767004268e90a662be0add439e93"),
        ("theta-c:3", "clarke:delta=1e-3,m=2,eps=0", [0.3, -0.2, 0.5], 2,
         "0x1.a52e6f1737c60p-1", "0x1.08d677601cc61p-6",
         "3174f09373380de9621f2864902253de1672fb3d1d2fdb03bcfae5c3e2c1bc9a"),
        ("abs-shift", "clarke:delta=1e-3,m=3,eps=0", [0.0], 5,
         "0x1.fffffffff2f0bp-2", "0x1.999999999999ap-4",
         "f2d246951d95445722e0013faed23365ea61b29baea8181a5a10b60ac4306cd2"),
        ("theta-a:10:0.5", "sum", [0.1] * 10, 3,
         "0x1.0000000000000p-1", "0x1.50f44d8921244p+0",
         "17ed29a2934df75909a035aaf4dab7aae727d3d5a6559d9bb9a38c21b7024467"),
        ("complexsq", "sum", [0.5, -1.0], 4,
         "0x1.194b8b0365ec3p+1", "0x1.5b04c8c8a362ep-6",
         "eb0bd26e75da8626520e542a2a51b40dfd4bf8f4d4b71ad05a553d9ee97adced"),
        ("exp1d", "exact", [0.25], 6,
         "0x1.44d75f7511b75p+0", "0x1.999999999999ap-7",
         "1429cf673c4eee5c0b4b3e0d9c957592049e9abbd62e7431d521cfae1a5b8f5a"),
    ])
    def test_shrinking_ball_index_keeps_its_bits(self, map_id, provider, x,
                                                 seed, alpha, radius, digest):
        # alpha, the radius it came from and the witness's bytes, as the
        # index computed them when it bounded the chosen set a second time
        # for its witness
        rep = regularity_index(make_map(map_id), parse_provider(provider),
                               np.array(x), rng=seed, use_usc_shortcut=False)
        assert (float(rep.alpha).hex(), float(rep.radius_used).hex()) == \
            (alpha, radius)
        assert hashlib.sha256(rep.witness.tobytes()).hexdigest() == digest

    def test_empty_radii_rejected(self):
        with pytest.raises(ValueError):
            regularity_index(theta_map("a", 2, 0.5), parse_provider("sum"),
                             np.zeros(2), radii=[], use_usc_shortcut=False)
