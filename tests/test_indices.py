import numpy as np
import pytest

import pjinv.linalg
from oracles import jacobi_conorm
from pjinv.indices import (DEFAULT_NET, ConormBounds, regularity_index,
                           set_conorm_bounds)
from pjinv.linalg import conorm, spectral_norm
from pjinv.maps import linear_map, theta_map
from pjinv.pseudojac import (ProviderSpec, PseudoJacobianSet, parse_provider,
                             sampled_clarke)


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
            assert calls == [shape]
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
    def test_at_most_two_svd_calls_per_bound(self, monkeypatch, k):
        calls = []
        original = pjinv.linalg.singular_values

        def spy(a):
            calls.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(pjinv.linalg, "singular_values", spy)
        spec = ProviderSpec("clarke", delta=1e-3, m=k, eps=0.0)
        jset = sampled_clarke(theta_map("c", 3), np.array([0.1, -0.2, 0.3]),
                              spec, rng=k)
        for net in (DEFAULT_NET, 1e-2):
            calls.clear()
            bounds = set_conorm_bounds(jset, net=net)
            # one for the mesh or the samples, one for diam when certifying
            assert len(calls) == (2 if bounds.certified else 1), calls

    def test_net_validation(self):
        with pytest.raises(ValueError):
            set_conorm_bounds(PseudoJacobianSet([np.eye(2)]), net=0.0)


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

    def test_empty_radii_rejected(self):
        with pytest.raises(ValueError):
            regularity_index(theta_map("a", 2, 0.5), parse_provider("sum"),
                             np.zeros(2), radii=[], use_usc_shortcut=False)
