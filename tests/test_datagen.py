import numpy as np
import pytest

from demandinv.accel import AccelConfig
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams,
                               draw_theta, gen_dynamic_market,
                               gen_nested_market, gen_static_market)
from demandinv.dynamic import pf_solve
from demandinv.rcnl import rcnl_dist_metric
from demandinv.static_rcl import dist_metric


class TestSeededRng:
    def test_distinct_replications_distinct_streams(self):
        a = SeededRng(3, 0).generator().random(4)
        b = SeededRng(3, 1).generator().random(4)
        assert not np.allclose(a, b)

    def test_same_key_identical_stream(self):
        a = SeededRng(3, 5).generator().random(4)
        b = SeededRng(3, 5).generator().random(4)
        np.testing.assert_array_equal(a, b)


class TestStaticDgp:
    def test_reproducible_bit_exact(self):
        p = StaticDgpParams(n_products=10, n_draws=20)
        a = gen_static_market(p, SeededRng(1, 2).generator())
        b = gen_static_market(p, SeededRng(1, 2).generator())
        np.testing.assert_array_equal(a.market.shares, b.market.shares)
        np.testing.assert_array_equal(a.market.mu, b.market.mu)
        np.testing.assert_array_equal(a.delta_true, b.delta_true)

    def test_share_feasibility(self):
        p = StaticDgpParams(n_products=25, n_draws=100)
        for rep in range(5):
            inst = gen_static_market(p, SeededRng(2, rep).generator())
            s = inst.market.shares
            assert np.all(s > 0) and np.all(s < 1)
            assert inst.market.outside_share > 0
            assert abs(s.sum() + inst.market.outside_share - 1.0) < 1e-12

    def test_truth_self_consistency(self):
        p = StaticDgpParams(n_products=25, n_draws=100)
        for rep in range(5):
            inst = gen_static_market(p, SeededRng(3, rep).generator())
            assert dist_metric(inst.delta_true, inst.market) < 1e-10

    def test_mean_outside_share_j25(self):
        p = StaticDgpParams(n_products=25)
        vals = [gen_static_market(p, SeededRng(9, r).generator()).market.outside_share
                for r in range(50)]
        assert abs(np.mean(vals) - 0.85) < 0.05

    def test_mean_outside_share_j250(self):
        p = StaticDgpParams(n_products=250)
        vals = [gen_static_market(p, SeededRng(7, r).generator()).market.outside_share
                for r in range(50)]
        assert abs(np.mean(vals) - 0.31) < 0.05

    def test_zero_sd_homogeneous_closed_form(self):
        p = StaticDgpParams(n_products=8, n_draws=5,
                            sd_coefs=(0.0, 0.0, 0.0, 0.0, 0.0))
        inst = gen_static_market(p, SeededRng(4, 0).generator())
        closed = np.log(inst.market.shares) - np.log(inst.market.outside_share)
        np.testing.assert_allclose(closed, inst.delta_true, atol=1e-10)

    def test_candidate_theta_market_shares_unchanged(self):
        p = StaticDgpParams(n_products=10, n_draws=20)
        g = SeededRng(5, 0).generator()
        inst = gen_static_market(p, g)
        mkt = inst.with_theta(draw_theta(inst.theta_true, g))
        np.testing.assert_array_equal(mkt.shares, inst.market.shares)
        assert not np.array_equal(mkt.mu, inst.market.mu)


class TestNestedDgp:
    def test_mean_outside_share(self):
        p = StaticDgpParams(n_products=75)
        vals = [gen_nested_market(p, SeededRng(7, r).generator()).market.base.outside_share
                for r in range(50)]
        assert abs(np.mean(vals) - 0.66) < 0.05

    def test_truth_self_consistency(self):
        inst = gen_nested_market(StaticDgpParams(n_products=75),
                                 SeededRng(8, 0).generator())
        assert rcnl_dist_metric(inst.delta_true, inst.market) < 1e-10

    def test_nest_share_sums(self):
        inst = gen_nested_market(StaticDgpParams(n_products=75),
                                 SeededRng(8, 1).generator())
        total = inst.market.nest_shares.sum() + inst.market.base.outside_share
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_layout_follows_n_products(self):
        inst = gen_nested_market(StaticDgpParams(n_products=12, n_draws=10),
                                 SeededRng(8, 2).generator())
        assert inst.market.base.n_products == 12
        np.testing.assert_array_equal(inst.market.nest_of, np.repeat(np.arange(3), 4))

    @pytest.mark.parametrize("n_products", [100, 25, 1])
    def test_rejects_n_products_not_divisible_by_3(self, n_products):
        with pytest.raises(ValueError, match="divisible by 3"):
            gen_nested_market(StaticDgpParams(n_products=n_products),
                              SeededRng(8, 0).generator())


class TestDynamicDgp:
    def test_reproducible_bit_exact(self):
        p = DynamicDgpParams(n_products=5, n_draws=8, horizon=10)
        a = gen_dynamic_market(p, SeededRng(6, 0).generator())
        b = gen_dynamic_market(p, SeededRng(6, 0).generator())
        np.testing.assert_array_equal(a.market.shares, b.market.shares)
        np.testing.assert_array_equal(a.solution_true.value, b.solution_true.value)

    def test_truth_self_consistency(self):
        p = DynamicDgpParams(n_products=5, n_draws=8, horizon=10)
        inst = gen_dynamic_market(p, SeededRng(6, 1).generator())
        assert inst.solution_true.dist < 1e-10
        assert np.all(np.diff(inst.solution_true.pr0, axis=1) <= 0)
        assert np.all(inst.solution_true.pr0 > 0)
        assert np.all(inst.solution_true.pr0 <= 1)

    def test_pf_recovers_truth(self):
        p = DynamicDgpParams(n_products=5, n_draws=8, horizon=10, beta=0.9)
        inst = gen_dynamic_market(p, SeededRng(6, 2).generator())
        sol, out = pf_solve(inst.market, 1.0,
                            AccelConfig(tolerance=1e-13, max_evaluations=5000))
        assert out.converged
        assert np.max(np.abs(sol.delta - inst.solution_true.delta)) < 1e-9

    def test_per_period_normalization(self):
        p = DynamicDgpParams(n_products=5, n_draws=8, horizon=10)
        inst = gen_dynamic_market(p, SeededRng(6, 3).generator())
        sums = inst.market.shares.sum(axis=0) + inst.market.outside_shares
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestDrawTheta:
    def test_zero_component_stays_zero(self):
        th = draw_theta(np.array([0.0, 1.0]), SeededRng(1, 0).generator())
        assert th[0] == 0.0

    def test_bounds(self):
        true = np.array([0.5, 0.5, 0.2])
        for rep in range(200):
            th = draw_theta(true, SeededRng(2, rep).generator())
            assert np.all(th >= 0) and np.all(th <= 2 * true)

    def test_mean_matches_truth(self):
        # law of large numbers: E[U[0, 2 theta]] = theta
        true = np.array([0.5, 0.2])
        g = SeededRng(3, 0).generator()
        draws = np.array([draw_theta(true, g) for _ in range(10_000)])
        se = 2 * true / np.sqrt(12 * len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - true) < 3 * se)
