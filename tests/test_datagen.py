from dataclasses import fields

import numpy as np
import pytest

from demandinv import datagen
from demandinv.accel import AccelConfig
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams, _terminal_value,
                               draw_theta, gen_dynamic_market,
                               gen_nested_market, gen_static_market)
from demandinv.dynamic import (_exp_mu_t, _omega_from_delta, _solution, bellman_residual,
                               pf_solve)
from demandinv.rcnl import rcnl_dist_metric
from demandinv.static_rcl import dist_metric


def assert_terminal_residual(beta, omega, v):
    """v is finite, at least max(omega, 0), and solves v = log(exp(beta v) +
    exp(omega)) within 2 ulp of max(|v|, 1)."""
    assert np.all(np.isfinite(v))
    assert np.all(v >= np.maximum(omega, 0.0))
    resid = np.abs(np.logaddexp(beta * v, omega) - v)
    assert np.all(resid <= 2.0 * np.spacing(np.maximum(np.abs(v), 1.0)))


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

    def test_zero_sd_homogeneous_closed_form(self, monkeypatch):
        monkeypatch.setattr(datagen, "_STATIC_SDS", (0.0, 0.0, 0.0, 0.0, 0.0))
        p = StaticDgpParams(n_products=8, n_draws=5)
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

    def test_a_design_without_a_valid_draw_is_rejected(self, monkeypatch):
        # every draw prices one product at ~1e300, so its share is 0
        monkeypatch.setattr(datagen, "_PRICE_XI", 1e300)
        p = StaticDgpParams(n_products=5, n_draws=7)
        with pytest.raises(ValueError, match=r"1000 draws of StaticDgpParams\(n_products=5"):
            gen_static_market(p, np.random.default_rng(0))

    @pytest.mark.parametrize("gen, params", [
        (gen_static_market, StaticDgpParams(n_products=3, n_draws=4)),
        (gen_dynamic_market, DynamicDgpParams(n_products=3, n_draws=4, horizon=3))],
        ids=["static", "durable"])
    def test_theta_true_is_a_fresh_array_per_instance(self, gen, params):
        a = gen(params, SeededRng(1, 0).generator())
        a.theta_true[:] = -1.0
        b = gen(params, SeededRng(1, 0).generator())
        assert np.all(b.theta_true >= 0.0) and np.any(b.theta_true > 0.0)

    @pytest.mark.parametrize("gen, params, truth", [
        (gen_static_market, StaticDgpParams(n_products=3, n_draws=4), "delta_true"),
        (gen_nested_market, StaticDgpParams(n_products=3, n_draws=4), "delta_true"),
        (gen_dynamic_market, DynamicDgpParams(n_products=3, n_draws=4, horizon=3),
         "solution_true")], ids=["static", "nested", "durable"])
    def test_an_instance_holds_its_market_truth_and_draws(self, gen, params, truth):
        inst = gen(params, SeededRng(1, 0).generator())
        assert [f.name for f in fields(inst)] == ["market", truth, "theta_true", "X", "nodes"]


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

    def test_truth_dist_is_the_library_audit_at_the_truth(self):
        # a solve at the truth's (delta, V) would report this dist: at
        # rounding level, and not 0 by construction
        dists = []
        for horizon in (50, 25, 12):
            for rep in range(4):
                inst = gen_dynamic_market(DynamicDgpParams(horizon=horizon),
                                          SeededRng(11, rep).generator())
                truth, mkt = inst.solution_true, inst.market
                em = _exp_mu_t(mkt)
                audit = _solution(truth.delta, truth.value,
                                  _omega_from_delta(truth.delta, em), mkt, em).dist
                assert truth.dist == audit < 1e-12
                dists.append(truth.dist)
        assert max(dists) > 0.0

    def test_pf_recovers_truth(self):
        p = DynamicDgpParams(n_products=5, n_draws=8, horizon=10, beta=0.9)
        inst = gen_dynamic_market(p, SeededRng(6, 2).generator())
        sol, out = pf_solve(inst.market, 1.0,
                            AccelConfig(tolerance=1e-13, max_evaluations=5000))
        assert out.converged
        assert np.max(np.abs(sol.delta - inst.solution_true.delta)) < 1e-9

    def test_truth_is_exact_at_beta_0999(self):
        p = DynamicDgpParams(horizon=10, beta=0.999)
        inst = gen_dynamic_market(p, SeededRng(11, 0).generator())
        assert bellman_residual(inst.solution_true, inst.market) < 1e-12

    def test_a_beta_without_a_terminal_fixed_point_is_rejected(self):
        # DynamicDgpParams rejects beta 1 (see TestParams); the terminal solve
        # still checks its beta, since at 1 the equation has no root
        with pytest.raises(ValueError, match=r"terminal value needs a beta in \[0, 1\), not 1.0"):
            _terminal_value(1.0, np.zeros(3))

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 0.99, 0.999, 1.0 - 2.0 ** -53])
    def test_the_terminal_value_solves_its_equation_to_rounding(self, beta):
        omega = np.array([-2e300, -800.0, -5.0, 0.0, 3.0, 50.0, 1e300])
        v = _terminal_value(beta, omega)
        assert_terminal_residual(beta, omega, v)

    @pytest.mark.parametrize("horizon", [50, 25])
    def test_the_default_designs_truth_solves_the_terminal_equation(self, horizon,
                                                                    monkeypatch):
        calls = []

        def terminal_value(beta, omega_T):
            v = _terminal_value(beta, omega_T)
            calls.append((beta, omega_T, v))
            return v
        monkeypatch.setattr(datagen, "_terminal_value", terminal_value)
        inst = gen_dynamic_market(DynamicDgpParams(horizon=horizon), SeededRng(11, 0).generator())
        assert len(calls) == 1
        beta, omega_T, v = calls[0]
        assert_terminal_residual(beta, omega_T, v)
        assert np.array_equal(inst.solution_true.value[:, -1], v)

    def test_a_design_without_a_valid_draw_is_rejected(self, monkeypatch):
        # an intercept of -800 puts every inside share below 1e-300
        monkeypatch.setattr(datagen, "_MAX_DRAWS", 3)
        monkeypatch.setattr(datagen, "_DURABLE_MEANS", (-800.0, 1.0, 1.0, 0.5, 2.0))
        p = DynamicDgpParams(n_products=3, n_draws=4, horizon=3)
        with pytest.raises(ValueError, match=r"3 draws of DynamicDgpParams\("):
            gen_dynamic_market(p, SeededRng(1, 0).generator())

    @pytest.mark.parametrize("design", [dict(_Z_INIT=1e300),
                                        dict(_DURABLE_MEANS=(-800.0, 1.0, 1.0, 0.5, 2.0))])
    def test_draws_whose_inclusive_values_underflow_the_shares_skip_the_terminal_value(
            self, design, monkeypatch):
        # omega ~ -2e300 or ~ -800 in every period: no draw can clear 1e-300
        def terminal_value(*_):
            raise AssertionError("a draw without a valid share reached the terminal value")
        monkeypatch.setattr(datagen, "_terminal_value", terminal_value)
        for name, value in design.items():
            monkeypatch.setattr(datagen, name, value)
        p = DynamicDgpParams(n_products=3, n_draws=4, horizon=3)
        with pytest.raises(ValueError, match=r"1000 draws of DynamicDgpParams\("):
            gen_dynamic_market(p, SeededRng(1, 0).generator())

    @pytest.mark.parametrize("x", [-30.0, 0.0, 2.5, 40.0])
    def test_terminal_value_starts_at_0_where_omega_underflows_the_shares(self, x):
        # the start max(omega, 0) is 0 at omega = -2e300, where the entry
        # stays, and the other entry keeps its bits
        v = _terminal_value(0.99, np.array([-2e300, x]))
        assert v[0] == 0.0
        assert np.array_equal(v[1:], _terminal_value(0.99, np.array([x])))

    def test_draws_where_only_some_types_underflow_are_rejected_quickly(self, monkeypatch):
        # some types' terminal inclusive values are ~ -1e300, so each draw
        # passes the period check and reaches the terminal value; a period
        # where every type has bought has no active consumer, and its shares
        # divide 0 by 0 (a RuntimeWarning would be an error under pytest.ini)
        monkeypatch.setattr(datagen, "_Z_INIT", 1e300)
        monkeypatch.setattr(datagen, "_DURABLE_SDS", (0.0, 0.5, 0.5, 0.0, 5.0))
        p = DynamicDgpParams(n_products=3, n_draws=4, horizon=3)
        with pytest.raises(ValueError, match=r"1000 draws of DynamicDgpParams\("):
            gen_dynamic_market(p, SeededRng(1, 0).generator())

    def test_per_period_normalization(self):
        p = DynamicDgpParams(n_products=5, n_draws=8, horizon=10)
        inst = gen_dynamic_market(p, SeededRng(6, 3).generator())
        sums = inst.market.shares.sum(axis=0) + inst.market.outside_shares
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(n_products=0), dict(n_products=2.5), dict(n_products=True), dict(n_draws=0),
    ], ids=["zero-products", "float-products", "bool-products", "zero-draws"])
    def test_static_rejects(self, kwargs):
        with pytest.raises(ValueError):
            StaticDgpParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(beta=np.nan), dict(beta=1.0), dict(beta=-0.1), dict(beta=True),
        dict(horizon=0), dict(horizon=3.0), dict(n_draws=0), dict(n_products=0),
    ], ids=["nan-beta", "beta-1", "negative-beta", "bool-beta", "zero-horizon",
            "float-horizon", "zero-draws", "zero-products"])
    def test_dynamic_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DynamicDgpParams(**kwargs)

    def test_the_designs_are_not_parameters(self):
        with pytest.raises(TypeError):
            StaticDgpParams(mean_coefs=(0.0, 1.5, 1.5, 0.5, -3.0))
        with pytest.raises(TypeError):
            DynamicDgpParams(z_init=8.0)

    # The designs are constants now; each keeps the shape and range that
    # construction used to check (finite reals, standard deviations >= 0).
    @pytest.mark.parametrize("name, shape, sd", [
        ("_STATIC_MEANS", (5,), False), ("_STATIC_SDS", (5,), True),
        ("_CHAR_COV", (3, 3), False), ("_PRICE_CONST", (), False),
        ("_PRICE_XI", (), False), ("_PRICE_SHOCK_HI", (), False),
        ("_DURABLE_MEANS", (5,), False), ("_DURABLE_SDS", (5,), True),
        ("_CHI_SD", (), True), ("_PRICE_COEFS", (7,), False),
        ("_PRICE_CROSS", (3,), False), ("_Z_INIT", (), False), ("_Z_CONST", (), False),
        ("_Z_RHO", (), False), ("_Z_SHOCK_SD", (), True), ("_W_SHOCK_SD", (), True),
        ("_U_SHOCK_SD", (), True)])
    def test_design_constant_is_valid(self, name, shape, sd):
        value = getattr(datagen, name)
        arr = np.array(value, dtype=float)
        assert arr.shape == shape
        assert np.all(np.isfinite(arr))
        if sd:
            assert np.all(arr >= 0.0)

    def test_char_cov_is_a_correlation_matrix(self):
        cov = np.array(datagen._CHAR_COV)
        np.testing.assert_array_equal(cov, cov.T)
        np.testing.assert_array_equal(np.diag(cov), 1.0)
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_defaults_are_kept_as_floats(self):
        assert DynamicDgpParams().beta == 0.99
        assert type(DynamicDgpParams(beta=0).beta) is float


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
