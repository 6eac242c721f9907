import json
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandinv import static_rcl
from demandinv.accel import AccelConfig
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams, draw_theta,
                               gen_dynamic_market, gen_static_market,
                               large_heterogeneity_market)
from demandinv.fixtures import market_from_json, market_to_json
from demandinv.rcnl import (NestedMarket, nested_shares, rcnl_dist_metric,
                            rcnl_iota_delta_to_IV, rcnl_iota_IV_to_delta, rcnl_phi_delta,
                            rcnl_phi_IV, rcnl_shares)
from demandinv.static_rcl import (StaticMarket, dist_metric, initial_delta,
                                  iota_V_to_delta, iota_delta_to_V,
                                  kalouptsidi_F, kalouptsidi_Ftilde, logit_shares,
                                  outside_logit, phi_V, phi_delta, solve_inner)

from oracles import naive_shares, newton_invert

J5 = gen_static_market(StaticDgpParams(n_products=5, n_draws=7), np.random.default_rng(0)).market
J5_NESTED = NestedMarket(J5, [0, 0, 1, 1, 2], 0.5)


def small_market(seed=0, J=3, I=4, mu_scale=1.0):
    """Consistent tiny market: shares generated at a known true delta."""
    rng = np.random.default_rng(seed)
    delta = rng.normal(size=J)
    mu = mu_scale * rng.normal(size=(I, J))
    w = rng.random(I) + 0.1
    w /= w.sum()
    s_j, s_0, _ = logit_shares(delta, mu, w)
    mkt = StaticMarket(s_j, 1.0 - s_j.sum(), mu, w)
    return mkt, delta


def homogeneous_market(seed=1, J=5, I=6):
    return small_market(seed=seed, J=J, I=I, mu_scale=0.0)


class TestPredictShares:
    def test_symmetric_binary_logit(self):
        mkt = StaticMarket([0.5], 0.5, np.zeros((1, 1)), [1.0])
        s_j, s_0, s_ij = logit_shares(np.zeros(1), mkt.mu, mkt.weights)
        assert s_j[0] == pytest.approx(0.5)
        assert s_0 == pytest.approx(0.5)

    def test_large_heterogeneity_ccp_table(self):
        mkt, delta = large_heterogeneity_market()
        _, _, s_ij = logit_shares(delta, mkt.mu, mkt.weights)
        s_i0 = 1.0 - s_ij.sum(axis=1)
        assert round(s_ij[0, 0], 4) == 0.9999
        assert round(s_ij[0, 1], 4) == 0.0
        assert round(s_i0[0], 4) == 0.0
        assert round(s_ij[1, 0], 4) == 0.0001
        assert round(s_ij[1, 1], 4) == 0.9998
        assert round(s_i0[1], 4) == 0.0001

    def test_matches_naive_oracle(self):
        mkt, _ = small_market(3)
        d = np.random.default_rng(4).normal(size=3)
        s_j, s_0, s_ij = logit_shares(d, mkt.mu, mkt.weights)
        o_j, o_0, o_ij = naive_shares(d, mkt.mu, mkt.weights)
        np.testing.assert_allclose(s_j, o_j, atol=1e-14)
        assert s_0 == pytest.approx(o_0, abs=1e-14)
        np.testing.assert_allclose(s_ij, o_ij, atol=1e-14)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10 ** 6))
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        J, I = rng.integers(1, 8), rng.integers(1, 8)
        mkt, _ = small_market(seed, J=int(J), I=int(I), mu_scale=2.0)
        d = rng.normal(size=int(J)) * 3
        s_j, s_0, s_ij = logit_shares(d, mkt.mu, mkt.weights)
        assert abs(s_j.sum() + s_0 - 1.0) < 1e-14
        np.testing.assert_allclose(s_j, mkt.weights @ s_ij, rtol=1e-14)
        rows = s_ij.sum(axis=1) + np.exp(-iota_delta_to_V(d, mkt))  # inside plus outside
        np.testing.assert_allclose(rows, 1.0, atol=1e-14)
        assert np.all(s_ij > 0) and np.all(s_ij < 1)

    def test_overflow_guarded(self):
        mkt = StaticMarket([0.6], 0.4, np.array([[800.0]]), [1.0])
        s_j, s_0, _ = logit_shares(np.array([10.0]), mkt.mu, mkt.weights)
        assert np.isfinite(s_j).all() and s_j[0] == pytest.approx(1.0)
        # utilities (810, 809) for one type and (-900, -901) for the other
        mkt = StaticMarket([0.3, 0.3], 0.4, np.array([[800.0, 799.0], [-910.0, -911.0]]),
                           [0.5, 0.5])
        d = np.array([10.0, 10.0])
        _, s_0, s_ij = logit_shares(d, mkt.mu, mkt.weights)
        np.testing.assert_allclose(s_ij[0], [1.0 / (1.0 + np.exp(-1.0)),
                                             np.exp(-1.0) / (1.0 + np.exp(-1.0))], rtol=1e-15)
        np.testing.assert_array_equal(s_ij[1], 0.0)
        assert s_0 == 0.5
        np.testing.assert_allclose(iota_delta_to_V(d, mkt),
                                   [810.0 + np.log1p(np.exp(-1.0)), 0.0], atol=1e-12)
        a, e, e0, denom = outside_logit(d[None, :] + mkt.mu)
        np.testing.assert_array_equal(a, [810.0, 0.0])
        np.testing.assert_allclose((e.sum(axis=1) + e0) / denom, 1.0, atol=1e-15)


class TestPhiDelta:
    def test_homogeneous_one_shot_closed_form(self):
        mkt, _ = homogeneous_market()
        closed = mkt.log_shares - mkt.log_outside
        rng = np.random.default_rng(9)
        for _ in range(3):
            out = phi_delta(rng.normal(size=5) * 4, 1.0, mkt)
            np.testing.assert_allclose(out, closed, atol=1e-12)

    def test_fixed_point_at_truth(self):
        mkt, delta = small_market(7)
        for gamma in (0.0, 1.0):
            np.testing.assert_allclose(phi_delta(delta, gamma, mkt), delta,
                                       atol=1e-12)

    def test_gamma1_fixed_point_matches_newton_oracle(self):
        mkt, _ = small_market(11, J=2, I=2)
        d, out = solve_inner(mkt, "delta1",
                             AccelConfig(tolerance=1e-14, max_evaluations=2000))
        assert out.converged
        oracle = newton_invert(mkt.shares, mkt.mu, mkt.weights)
        np.testing.assert_allclose(d, oracle, atol=1e-10)


class TestIota:
    def test_very_negative_delta_gives_zero_value(self):
        mkt, _ = small_market(2, J=2, I=3)
        V = iota_delta_to_V(np.full(2, -700.0), mkt)
        np.testing.assert_allclose(V, 0.0, atol=1e-300)

    def test_single_product_log_two(self):
        mkt = StaticMarket([0.5], 0.5, np.zeros((1, 1)), [1.0])
        assert iota_delta_to_V(np.zeros(1), mkt)[0] == pytest.approx(np.log(2.0))

    def test_outside_ccp_identity(self):
        # exp(-V_i) equals the type's outside probability
        mkt, _ = small_market(13)
        d = np.random.default_rng(5).normal(size=3)
        V = iota_delta_to_V(d, mkt)
        _, _, s_ij = logit_shares(d, mkt.mu, mkt.weights)
        s_i0 = 1.0 - s_ij.sum(axis=1)
        np.testing.assert_allclose(np.exp(-V), s_i0, atol=1e-13)

    def test_homogeneous_v_to_delta_cancels(self):
        mkt, _ = homogeneous_market()
        closed = mkt.log_shares - mkt.log_outside
        rng = np.random.default_rng(8)
        for _ in range(3):
            V = rng.normal(size=mkt.n_types) * 2  # any V: gamma=1 cancels it
            V[:] = V[0]
            np.testing.assert_allclose(iota_V_to_delta(V, 1.0, mkt), closed,
                                       atol=1e-12)

    def test_truth_round_trip(self):
        mkt, delta = small_market(17)
        V = iota_delta_to_V(delta, mkt)
        for gamma in (0.0, 1.0):
            np.testing.assert_allclose(iota_V_to_delta(V, gamma, mkt), delta,
                                       atol=1e-12)


class TestDuality:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10 ** 6), st.sampled_from([0.0, 1.0]))
    def test_duality_identity(self, seed, gamma):
        rng = np.random.default_rng(seed)
        J, I = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        mkt, _ = small_market(seed, J=J, I=I, mu_scale=1.5)
        d = rng.normal(size=J) * 2
        lhs = iota_delta_to_V(phi_delta(d, gamma, mkt), mkt)
        rhs = phi_V(iota_delta_to_V(d, mkt), gamma, mkt)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_iterate_path_commutation(self):
        # plain delta-iterates map onto plain V-iterates under iota, stepwise
        mkt, _ = small_market(23, J=4, I=5)
        d = initial_delta(mkt)
        V = iota_delta_to_V(d, mkt)
        for gamma in (0.0, 1.0):
            dd, VV = d.copy(), V.copy()
            for _ in range(10):
                dd = phi_delta(dd, gamma, mkt)
                VV = phi_V(VV, gamma, mkt)
                assert np.max(np.abs(iota_delta_to_V(dd, mkt) - VV)) < 1e-10


class TestContractionProperties:
    def test_nonexpansive_gamma0(self):
        rng = np.random.default_rng(31)
        mkt, _ = small_market(31, J=5, I=6, mu_scale=2.0)
        for _ in range(200):
            d1 = rng.normal(size=5) * 3
            d2 = rng.normal(size=5) * 3
            lhs = np.max(np.abs(phi_delta(d1, 0.0, mkt) - phi_delta(d2, 0.0, mkt)))
            assert lhs <= np.max(np.abs(d1 - d2)) + 1e-12

    def test_two_lipschitz_gamma1(self):
        # bound with the sampled-point heterogeneity estimate and factor 2
        for rep in range(20):
            g = SeededRng(123, rep).generator()
            inst = gen_static_market(StaticDgpParams(n_products=25, n_draws=50), g)
            mkt = inst.with_theta(draw_theta(inst.theta_true, g))
            d1 = inst.delta_true + g.normal(size=25)
            d2 = inst.delta_true + g.normal(size=25)
            lhs = np.max(np.abs(phi_delta(d1, 1.0, mkt) - phi_delta(d2, 1.0, mkt)))
            c_est = 0.0
            for d in (d1, d2):
                _, _, s_ij = logit_shares(d, mkt.mu, mkt.weights)
                s_i0 = 1.0 - s_ij.sum(axis=1)
                c_est = max(c_est, s_i0.max() - s_i0.min())
            assert lhs <= 2.0 * c_est * np.max(np.abs(d1 - d2)) + 1e-12


class TestSolveInner:
    def test_homogeneous_one_application(self):
        mkt, delta = homogeneous_market()
        d, out = solve_inner(mkt, "delta1",
                             AccelConfig(tolerance=1e-12, max_evaluations=100))
        assert out.converged
        assert out.evaluations <= 2  # lands on the solution after one mapping
        np.testing.assert_allclose(d, delta, atol=1e-10)

    def test_dist_reported_small_after_convergence(self):
        mkt, _ = small_market(41, J=6, I=8)
        for mapping in ("delta0", "delta1", "V0", "V1"):
            d, out = solve_inner(mkt, mapping,
                                 AccelConfig(tolerance=1e-13, max_evaluations=2000))
            assert out.converged, mapping
            assert dist_metric(d, mkt) < 1e-12

    def test_divergence_reported_not_raised(self):
        mkt, _ = large_heterogeneity_market()
        d, out = solve_inner(mkt, "delta1",
                             AccelConfig(tolerance=1e-13, max_evaluations=300))
        assert not out.converged
        assert out.termination == "max_evaluations"

    def test_value_mapping_starts_no_thread(self):
        # J=250, I=1000: large enough for the exp-space value mapping
        rng = SeededRng(4, 0).generator()
        inst = gen_static_market(StaticDgpParams(n_products=250), rng)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        threads = threading.active_count()
        d, out = solve_inner(mkt, "V1", AccelConfig(method="anderson", tolerance=1e-13,
                                                     max_evaluations=200))
        assert out.converged and dist_metric(d, mkt) < 1e-12
        phi_V(np.zeros(mkt.n_types), 1.0, mkt)
        assert threading.active_count() == threads


class TestDistMetric:
    def test_zero_at_solution(self):
        mkt, delta = small_market(43)
        assert dist_metric(delta, mkt) < 1e-12

    def test_uniform_shift_homogeneous_closed_form(self):
        mkt, delta = homogeneous_market(seed=5)
        c = 0.7
        inside = np.exp(delta).sum()
        # log s_j(delta + c) - log S_j = c - log((1 + e^c Z)/(1 + Z))
        expected = abs(c - np.log((1 + np.exp(c) * inside) / (1 + inside)))
        assert dist_metric(delta + c, mkt) == pytest.approx(expected, abs=1e-10)

    def test_equals_brute_recomputation(self):
        mkt, _ = small_market(47)
        d = np.random.default_rng(6).normal(size=3)
        s_j, _, _ = naive_shares(d, mkt.mu, mkt.weights)
        expected = np.max(np.abs(np.log(mkt.shares) - np.log(s_j)))
        assert dist_metric(d, mkt) == pytest.approx(expected, abs=1e-13)

    ENTRIES = (0.0, 1.0, 800.0, 5e3, 1e300, 1e308, np.inf)

    @settings(deadline=None, max_examples=500)
    @given(st.lists(st.sampled_from(ENTRIES + tuple(-x for x in ENTRIES[1:]) + (np.nan,)),
                    min_size=5, max_size=5))
    @example([np.inf, 0.0, 0.0, 0.0, 0.0])
    @example([np.nan, 0.0, 0.0, 0.0, 0.0])
    @example([-np.inf, 0.0, 0.0, 0.0, 0.0])
    @example([1e308, 0.0, 0.0, 0.0, -1e308])
    def test_never_warns_and_reads_nan_at_a_non_finite_delta(self, entries):
        delta = np.array(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dists = dist_metric(delta, J5), rcnl_dist_metric(delta, J5_NESTED)
        if not np.all(np.isfinite(delta)):
            assert np.isnan(dists).all()


class TestReadOnly:
    @pytest.mark.parametrize("kind, name", [
        ("static", "log_shares"), ("nested", "groups"), ("nested", "nest_shares"),
        ("nested", "log_nest_shares"), ("nested", "product_rho"), ("durable", "log_shares"),
        ("durable", "log_outside")])
    def test_derived_arrays_reject_writes(self, kind, name):
        durable = gen_dynamic_market(DynamicDgpParams(n_products=3, n_draws=4, horizon=4),
                                     SeededRng(1, 0).generator()).market
        value = getattr({"static": J5, "nested": J5_NESTED, "durable": durable}[kind], name)
        for arr in value if isinstance(value, tuple) else (value,):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] += 1


class TestKalouptsidi:
    def two_type_market(self, rep=0):
        g = SeededRng(7, rep).generator()
        inst = gen_static_market(StaticDgpParams(n_products=250, n_draws=2), g)
        return inst.with_theta(draw_theta(inst.theta_true, g))

    def zero_weight_market(self):
        """J=5 market whose last two of four consumer types have weight 0."""
        rng = np.random.default_rng(0)
        delta, mu = rng.normal(size=5), rng.normal(size=(4, 5))
        w = np.array([0.5, 0.5, 0.0, 0.0])
        s_j, _, _ = logit_shares(delta, mu, w)
        return StaticMarket(s_j, 1.0 - s_j.sum(), mu, w)

    @pytest.mark.parametrize("mapping", ["kalouptsidi_mixed", "kalouptsidi_tilde"])
    def test_a_zero_weight_is_rejected(self, mapping):
        with pytest.raises(ValueError, match=f"{mapping}.*needs every weight positive"):
            solve_inner(self.zero_weight_market(), mapping, AccelConfig())

    @pytest.mark.parametrize("kernel, size", [(kalouptsidi_F, 3), (kalouptsidi_Ftilde, 2)],
                             ids=["kalouptsidi_F", "kalouptsidi_Ftilde"])
    def test_a_zero_weight_is_rejected_by_the_kernels(self, kernel, size):
        """The kernels took log 0 here: [0.434, -inf, nan] and [0.434, -inf]."""
        m = StaticMarket([0.3, 0.2], 0.5, [[0, 1], [1, 0], [0.5, 0.5]], [0.5, 0.0, 0.5])
        with pytest.raises(ValueError, match="kalouptsidi_mixed and kalouptsidi_tilde .*"
                                             "needs every weight positive"):
            kernel(np.zeros(size), m)

    @pytest.mark.parametrize("mapping", ["delta1", "V0", "V1"])
    def test_delta_and_V_solve_a_market_with_a_zero_weight(self, mapping):
        mkt = self.zero_weight_market()
        d, out = solve_inner(mkt, mapping, AccelConfig(method="anderson"))
        assert out.converged
        assert dist_metric(d, mkt) < 1e-12

    def test_fixed_point_at_truth(self):
        mkt = self.two_type_market()
        d1, out = solve_inner(mkt, "delta1",
                              AccelConfig(tolerance=1e-14, max_evaluations=2000))
        assert out.converged
        V = iota_delta_to_V(d1, mkt)
        r = np.log(mkt.weights) - V
        np.testing.assert_allclose(kalouptsidi_F(r, mkt), r, atol=1e-10)
        np.testing.assert_allclose(iota_V_to_delta(np.log(mkt.weights) - r, 0.0, mkt), d1,
                                   atol=1e-9)

    def test_mixed_agrees_with_delta1(self):
        mkt = self.two_type_market(1)
        cfg = AccelConfig(tolerance=1e-13, max_evaluations=1000)
        dm, om = solve_inner(mkt, "kalouptsidi_mixed", cfg)
        d1, o1 = solve_inner(mkt, "delta1", cfg)
        assert om.converged and o1.converged
        assert dist_metric(dm, mkt) < 1e-12
        assert np.max(np.abs(dm - d1)) < 1e-8

    def test_tilde_variant_converges(self):
        mkt = self.two_type_market(2)
        cfg = AccelConfig(tolerance=1e-13, max_evaluations=1000)
        dt, ot = solve_inner(mkt, "kalouptsidi_tilde", cfg)
        assert ot.converged
        assert dist_metric(dt, mkt) < 1e-12

    def test_single_type_closed_form(self):
        mkt, delta = homogeneous_market(seed=3, J=4, I=1)
        d, out = solve_inner(mkt, "kalouptsidi_mixed",
                             AccelConfig(tolerance=1e-13, max_evaluations=50))
        assert out.converged
        np.testing.assert_allclose(d, delta, atol=1e-10)

    def test_tilde_rejects_a_single_type_before_any_evaluation(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the mapping was solved")

        monkeypatch.setattr(static_rcl, "solve", no_solve)
        mkt, _ = homogeneous_market(seed=3, J=4, I=1)
        with pytest.raises(ValueError, match="at least two types"):
            solve_inner(mkt, "kalouptsidi_tilde", AccelConfig())
        with pytest.raises(ValueError, match="at least two types"):
            kalouptsidi_Ftilde(np.zeros(0), mkt)


class TestJsonFixtures:
    def test_round_trip(self):
        mkt, _ = small_market(53)
        clone = market_from_json(market_to_json(mkt))
        np.testing.assert_array_equal(clone.shares, mkt.shares)
        np.testing.assert_array_equal(clone.mu, mkt.mu)
        np.testing.assert_array_equal(clone.weights, mkt.weights)
        assert clone.outside_share == mkt.outside_share

    @pytest.mark.parametrize("version", [99, None, "1", True])
    def test_rejects_other_schema_versions(self, version):
        mkt, _ = small_market(53)
        doc = json.loads(market_to_json(mkt))
        if version is None:
            del doc["schema_version"]
        else:
            doc["schema_version"] = version
        with pytest.raises(ValueError, match="schema_version"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["shares", "outside_share", "mu", "weights"])
    def test_rejects_a_missing_key(self, key):
        mkt, _ = small_market(53)
        doc = json.loads(market_to_json(mkt))
        del doc[key]
        with pytest.raises(ValueError, match=f"missing the keys \\['{key}'\\]"):
            market_from_json(json.dumps(doc))


LARGE_HETERO = large_heterogeneity_market()[0]  # two types, two products

# kernel, the name of its iterate, that iterate's shape on its market, and
# wrong shapes; at the first of each, some kernels broadcast silently (a V of
# length 1 over both types, an r of length 1 to one value) and others failed
# inside numpy (a 2 x 2 delta, one row of IV, a delta of one entry or with an
# extra axis in the raw-array share functions)
KERNEL_SHAPES = {
    "phi_delta": (lambda x: phi_delta(x, 1.0, LARGE_HETERO), "delta", (2,)),
    "iota_delta_to_V": (lambda x: iota_delta_to_V(x, LARGE_HETERO), "delta", (2,)),
    "dist_metric": (lambda x: dist_metric(x, LARGE_HETERO), "delta", (2,)),
    "iota_V_to_delta": (lambda x: iota_V_to_delta(x, 0.0, LARGE_HETERO), "V", (2,)),
    "phi_V": (lambda x: phi_V(x, 1.0, LARGE_HETERO), "V", (2,)),
    "kalouptsidi_F": (lambda x: kalouptsidi_F(x, LARGE_HETERO), "r", (2,)),
    "kalouptsidi_Ftilde": (lambda x: kalouptsidi_Ftilde(x, LARGE_HETERO), "r_tilde", (1,)),
    "rcnl_phi_delta": (lambda x: rcnl_phi_delta(x, 1.0, J5_NESTED), "delta", (5,)),
    "rcnl_iota_delta_to_IV": (lambda x: rcnl_iota_delta_to_IV(x, J5_NESTED), "delta", (5,)),
    "rcnl_shares": (lambda x: rcnl_shares(x, J5_NESTED), "delta", (5,)),
    "rcnl_dist_metric": (lambda x: rcnl_dist_metric(x, J5_NESTED), "delta", (5,)),
    "rcnl_iota_IV_to_delta": (lambda x: rcnl_iota_IV_to_delta(x, 0.0, J5_NESTED), "IV", (7, 3)),
    "rcnl_phi_IV": (lambda x: rcnl_phi_IV(x, 1.0, J5_NESTED), "IV", (7, 3)),
    "logit_shares": (lambda x: logit_shares(x, np.zeros((3, 4)), np.full(3, 1 / 3)), "delta",
                     (4,)),
    "nested_shares": (lambda x: nested_shares(x, J5.mu, J5.weights, J5_NESTED.nest_of,
                                              J5_NESTED.rho), "delta", (5,)),
}

# the raw-array share functions and the market, on four products
SHARE_ARRAYS = {
    "logit_shares": lambda mu, w: logit_shares(np.zeros(4), mu, w),
    "nested_shares": lambda mu, w: nested_shares(np.zeros(4), mu, w, np.zeros(4, int),
                                                 np.array([0.5])),
    "StaticMarket": lambda mu, w: StaticMarket(np.full(4, 0.1), 0.6, mu, w),
}


def wrong_shapes(shape):
    """Shapes a caller may mistake for shape: one entry, one entry more, an
    extra axis, the axes reversed or flattened, a scalar."""
    size = int(np.prod(shape))
    candidates = [(1,), shape[:-1] + (shape[-1] + 1,), shape + (1,), shape[::-1], (size,), ()]
    return [c for c in dict.fromkeys(candidates) if c != shape]


class TestIterateShapes:
    @pytest.mark.parametrize("kernel, wrong", [
        pytest.param(kernel, wrong, id=f"{kernel}-{'x'.join(map(str, wrong)) or 'scalar'}")
        for kernel, (_, _, shape) in KERNEL_SHAPES.items() for wrong in wrong_shapes(shape)])
    def test_a_public_kernel_rejects_an_iterate_of_another_shape(self, kernel, wrong):
        fn, name, shape = KERNEL_SHAPES[kernel]
        fn(np.zeros(shape))
        with pytest.raises(ValueError, match=rf"{name} must have shape "
                                             rf"{re.escape(str(shape))}, not "
                                             rf"{re.escape(str(wrong))}"):
            fn(np.zeros(wrong))


class TestShareArrays:
    @pytest.mark.parametrize("function", SHARE_ARRAYS)
    def test_mu_must_be_a_matrix_and_weights_one_per_row(self, function):
        shares = SHARE_ARRAYS[function]
        shares(np.zeros((3, 4)), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match=r"mu must be I x J, not of shape \(4,\)"):
            shares(np.zeros(4), np.full(3, 1 / 3))
        with pytest.raises(ValueError, match=r"weights must have shape \(3,\), not \(2,\)"):
            shares(np.zeros((3, 4)), np.full(2, 0.5))

    @pytest.mark.parametrize("call,message", [
        (lambda: logit_shares(np.zeros(2), np.zeros((3, 2)), [0.5, 0.6, -0.1]),
         "weights must be non-negative and sum to 1"),
        (lambda: nested_shares(np.zeros(3), np.zeros((2, 3)), [0.7, 0.7], [0, 0, 1], 0.5),
         "weights must be non-negative and sum to 1"),
        (lambda: logit_shares(np.zeros(0), np.zeros((3, 0)), np.full(3, 1 / 3)),
         "a market needs at least one product and one consumer type"),
        (lambda: nested_shares(np.zeros(0), np.zeros((3, 0)), np.full(3, 1 / 3), [], 0.5),
         "a market needs at least one product and one consumer type"),
        (lambda: logit_shares(np.zeros(2), np.array([[0.0, np.nan]]), [1.0]),
         "mu must be finite"),
        (lambda: nested_shares(np.zeros(2), np.full((1, 2), np.inf), [1.0], [0, 0], 0.5),
         "mu must be finite"),
        (lambda: logit_shares(np.zeros(2), np.array([[0.0, 701.0]]), [1.0]), "mu spans 701"),
        (lambda: nested_shares(np.zeros(2), np.array([[0.0, 701.0]]), [1.0], [0, 1], 0.5),
         "mu spans 701"),
        # mu spans 400, but mu / (1 - rho) spans 800 in nest 0
        (lambda: nested_shares(np.zeros(3), [[0, 400, 0], [0, 0, 0]], [0.5, 0.5], [0, 0, 1],
                               0.5),
         r"mu / \(1 - rho\) in nest 0 spans 800"),
    ], ids=["logit-negative-weight", "nested-weights-sum-1.4", "logit-no-products",
            "nested-no-products", "logit-nan-mu", "nested-infinite-mu", "logit-span",
            "nested-span", "nested-nest-span"])
    def test_mu_and_weights_pass_the_market_checks(self, call, message):
        # the messages of StaticMarket, which shares the checks
        with pytest.raises(ValueError, match=message):
            call()


class TestMarketValidation:
    def test_rejects_bad_share_sum(self):
        with pytest.raises(ValueError):
            StaticMarket([0.5, 0.4], 0.2, np.zeros((1, 2)), [1.0])

    def test_rejects_nonpositive_shares(self):
        with pytest.raises(ValueError):
            StaticMarket([0.5, 0.0], 0.5, np.zeros((1, 2)), [1.0])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            StaticMarket([0.5], 0.5, np.zeros((2, 1)), [0.4, 0.4])
