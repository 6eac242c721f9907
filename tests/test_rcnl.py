import json
import re

import numpy as np
import pytest

from demandinv.accel import AccelConfig
from demandinv.datagen import SeededRng, StaticDgpParams, draw_theta, gen_nested_market
from demandinv.fixtures import market_from_json, market_to_json
from demandinv.rcnl import (RCNL_MAPPINGS, NestedMarket, nested_shares, rcnl_dist_metric,
                            rcnl_initial_delta, rcnl_iota_delta_to_IV, rcnl_phi_IV,
                            rcnl_phi_delta, rcnl_shares, rcnl_solve_inner)
from demandinv.static_rcl import StaticMarket, logit_shares, phi_delta

from oracles import newton_invert_nested


def tiny_nested(seed=0, J=4, I=3, rho=0.5, mu_scale=1.0):
    rng = np.random.default_rng(seed)
    delta = rng.normal(size=J)
    mu = mu_scale * rng.normal(size=(I, J))
    w = rng.random(I) + 0.1
    w /= w.sum()
    nest_of = np.arange(J) % 2
    rho_vec = np.full(2, rho)
    s_j, s_g, s_0, _ = nested_shares(delta, mu, w, nest_of, rho_vec)
    base = StaticMarket(s_j, 1.0 - s_j.sum(), mu, w)
    return NestedMarket(base, nest_of, rho_vec), delta


class TestNestedShares:
    def test_rho_zero_equals_static(self):
        mkt, _ = tiny_nested(rho=0.0)
        d = np.random.default_rng(1).normal(size=4)
        s_j, s_g, s_0, _ = rcnl_shares(d, mkt)
        sj_s, s0_s, _ = logit_shares(d, mkt.base.mu, mkt.base.weights)
        np.testing.assert_allclose(s_j, sj_s, atol=1e-12)
        assert s_0 == pytest.approx(s0_s, abs=1e-12)

    def test_single_product_single_nest(self):
        base = StaticMarket([0.5], 0.5, np.zeros((1, 1)), [1.0])
        mkt = NestedMarket(base, np.array([0]), 0.5)
        s_j, s_g, s_0, iv = rcnl_shares(np.zeros(1), mkt)
        assert iv[0, 0] == pytest.approx(0.0)
        assert s_j[0] == pytest.approx(0.5)

    def test_normalization_and_nest_sums(self):
        mkt, _ = tiny_nested(seed=3, J=6, I=5)
        d = np.random.default_rng(2).normal(size=6) * 2
        s_j, s_g, s_0, _ = rcnl_shares(d, mkt)
        assert abs(s_j.sum() + s_0 - 1.0) < 1e-14
        for g, idx in enumerate(mkt.groups):
            assert s_g[g] == pytest.approx(s_j[idx].sum(), abs=1e-15)

    @pytest.mark.parametrize("nest_of, rho, match", [
        ([0, 1, 0, 1], 1.0, r"rho must lie in \[0, 1\)"),
        # nests as product index lists: (0, 1) and (1, 2) overlap, and
        # (0, 1) alone leaves products 2 and 3 in no nest
        (([0, 1], [1, 2]), 0.5, r"nest_of must have shape \(4,\), not \(2, 2\)"),
        (([0, 1],), 0.5, r"nest_of must have shape \(4,\), not \(1, 2\)"),
        ([0, 1, 0, 1], [0.5], r"rho must be scalar or one value per nest, not of shape \(1,\)"),
    ], ids=["rho-1", "overlapping-nests", "products-in-no-nest", "one-rho-for-two-nests"])
    def test_nested_shares_checks_its_nests_at_entry(self, nest_of, rho, match):
        mkt, delta = tiny_nested(J=4, I=3)
        with pytest.raises(ValueError, match=match):
            nested_shares(delta, mkt.base.mu, mkt.base.weights, nest_of, rho)


class TestPhiDelta:
    def test_homogeneous_closed_form(self):
        mkt, delta = tiny_nested(seed=5, mu_scale=0.0)
        rho_j = mkt.rho[mkt.nest_of]
        closed = ((1.0 - rho_j) * mkt.base.log_shares
                  + rho_j * np.log(mkt.nest_shares)[mkt.nest_of]
                  - mkt.base.log_outside)
        out = rcnl_phi_delta(np.random.default_rng(3).normal(size=4) * 3, 1.0, mkt)
        np.testing.assert_allclose(out, closed, atol=1e-12)
        np.testing.assert_allclose(closed, delta, atol=1e-10)

    def test_identity_at_truth(self):
        mkt, delta = tiny_nested(seed=7)
        for gamma in (0.0, 1.0):
            np.testing.assert_allclose(rcnl_phi_delta(delta, gamma, mkt), delta,
                                       atol=1e-12)

    def test_fixed_point_matches_nested_newton_oracle(self):
        mkt, _ = tiny_nested(seed=11, J=4, I=2)
        d, out = rcnl_solve_inner(mkt, "delta1",
                                  AccelConfig(tolerance=1e-14, max_evaluations=3000))
        assert out.converged
        oracle = newton_invert_nested(mkt.base.shares, mkt.base.mu,
                                      mkt.base.weights, mkt.nest_of, mkt.rho)
        np.testing.assert_allclose(d, oracle, atol=1e-10)


class TestInclusiveValueMappings:
    def test_duality_identity(self):
        mkt, _ = tiny_nested(seed=13, J=6, I=4)
        rng = np.random.default_rng(5)
        for gamma in (0.0, 1.0):
            for _ in range(25):
                d = rng.normal(size=6) * 2
                lhs = rcnl_iota_delta_to_IV(rcnl_phi_delta(d, gamma, mkt), mkt)
                rhs = rcnl_phi_IV(rcnl_iota_delta_to_IV(d, mkt), gamma, mkt)
                assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_homogeneous_one_shot(self):
        mkt, delta = tiny_nested(seed=17, mu_scale=0.0)
        iv0 = np.random.default_rng(4).normal(size=(mkt.base.n_types, 2))
        iv0[:] = iv0[0]  # homogeneous types share the IV
        iv1 = rcnl_phi_IV(iv0, 1.0, mkt)
        iv2 = rcnl_phi_IV(iv1, 1.0, mkt)
        np.testing.assert_allclose(iv1, iv2, atol=1e-12)

    def test_iv_solver_reproduces_delta_solver(self):
        mkt, _ = tiny_nested(seed=19, J=6, I=4)
        cfg = AccelConfig(tolerance=1e-14, max_evaluations=3000)
        d_delta, o1 = rcnl_solve_inner(mkt, "delta1", cfg)
        d_iv, o2 = rcnl_solve_inner(mkt, "IV1", cfg)
        assert o1.converged and o2.converged
        np.testing.assert_allclose(d_iv, d_delta, atol=1e-10)


class TestFixedPointAudit:
    def test_dist_small_for_all_mappings(self):
        mkt, _ = tiny_nested(seed=23, J=6, I=4)
        cfg = AccelConfig(tolerance=1e-13, max_evaluations=3000)
        for mapping in ("delta0", "delta1", "IV0", "IV1"):
            d, out = rcnl_solve_inner(mkt, mapping, cfg)
            assert out.converged, mapping
            assert rcnl_dist_metric(d, mkt) < 1e-12

    @pytest.mark.parametrize("mapping", ["IV2", "V1", "", None, 1, ("IV1",)])
    def test_an_unknown_mapping_is_rejected_with_the_known_names(self, mapping):
        message = f"unknown mapping {mapping!r}; known: {list(RCNL_MAPPINGS)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rcnl_solve_inner(tiny_nested()[0], mapping, AccelConfig())

    def test_nest_ratio_identity_at_fixed_point(self):
        # S_g / S_0^k = s_g / s_0^k with k = gamma/(1-rho+rho*gamma)
        mkt, _ = tiny_nested(seed=29, J=6, I=4)
        for gamma in (0.5, 1.0):
            d, out = rcnl_solve_inner(mkt, "delta1",
                                      AccelConfig(tolerance=1e-14,
                                                  max_evaluations=3000))
            assert out.converged
            s_j, s_g, s_0, _ = rcnl_shares(d, mkt)
            k = gamma / (1.0 - mkt.rho + mkt.rho * gamma)
            lhs = mkt.nest_shares / mkt.base.outside_share ** k
            rhs = s_g / s_0 ** k
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestBenchmarkLayout:
    def test_generated_market_three_nests(self):
        inst = gen_nested_market(StaticDgpParams(n_products=75),
                                 SeededRng(7, 0).generator())
        assert inst.market.n_nests == 3
        assert all(len(g) == 25 for g in inst.market.groups)
        np.testing.assert_allclose(inst.market.rho, 0.5)
        total = inst.market.nest_shares.sum() + inst.market.base.outside_share
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rho0_generation_matches_static_layout(self):
        inst = gen_nested_market(StaticDgpParams(n_products=75),
                                 SeededRng(7, 0).generator(), rho=0.0)
        d = rcnl_initial_delta(inst.market)
        s_j, _, _, _ = rcnl_shares(d, inst.market)
        sj_s, _, _ = logit_shares(d, inst.market.base.mu, inst.market.base.weights)
        np.testing.assert_allclose(s_j, sj_s, atol=1e-12)

    def test_candidate_theta_market_still_solvable(self):
        g = SeededRng(7, 3).generator()
        inst = gen_nested_market(StaticDgpParams(n_products=75), g)
        mkt = inst.with_theta(draw_theta(inst.theta_true, g))
        d, out = rcnl_solve_inner(mkt, "delta1",
                                  AccelConfig(tolerance=1e-13,
                                              max_evaluations=1000))
        assert out.converged
        assert rcnl_dist_metric(d, mkt) < 1e-12


class TestJson:
    def test_round_trip(self):
        mkt, _ = tiny_nested(seed=31)
        clone = market_from_json(market_to_json(mkt))
        np.testing.assert_array_equal(clone.base.shares, mkt.base.shares)
        np.testing.assert_array_equal(clone.nest_of, mkt.nest_of)
        np.testing.assert_array_equal(clone.rho, mkt.rho)

    def test_rejects_other_schema_version(self):
        mkt, _ = tiny_nested(seed=31)
        doc = json.loads(market_to_json(mkt))
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["nest_of", "rho", "mu"])
    def test_rejects_a_missing_key(self, key):
        mkt, _ = tiny_nested(seed=31)
        doc = json.loads(market_to_json(mkt))
        del (doc["base"] if key == "mu" else doc)[key]  # mu is a field of the base market
        with pytest.raises(ValueError, match=f"missing the keys \\['{key}'\\]"):
            market_from_json(json.dumps(doc))


class TestValidation:
    def test_rejects_rho_out_of_range(self):
        base = StaticMarket([0.5], 0.5, np.zeros((1, 1)), [1.0])
        with pytest.raises(ValueError):
            NestedMarket(base, np.array([0]), 1.0)

    def test_rejects_partial_nest_cover(self):
        base = StaticMarket([0.3, 0.3], 0.4, np.zeros((1, 2)), [1.0])
        with pytest.raises(ValueError):
            NestedMarket(base, np.array([0, 2]), 0.5)
