import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandinv import dynamic
from demandinv.accel import SOLVE_ERRSTATE, AccelConfig
from demandinv.datagen import (DynamicDgpParams, SeededRng, draw_theta,
                               gen_dynamic_market)
from demandinv.fixtures import market_from_json, market_to_json
from demandinv.numerics import (chebyshev_fit_matrix, chebyshev_nodes, logsumexp,
                                normal_quadrature, ols_ar1_rows)
from demandinv.dynamic import (DurableMarket, IvsGrid, bellman_residual,
                               initial_delta_myopic, ivs_solve, pf_solve,
                               pf_value_update, traditional_joint_solve)
from demandinv.rcnl import NestedMarket, rcnl_initial_delta, rcnl_phi_delta
from demandinv.static_rcl import (StaticMarket, initial_delta, iota_V_to_delta,
                                  logit_shares, phi_delta)


def desk_instance(rep=0, horizon=12, n_products=4, n_draws=6, beta=0.9):
    """Small but genuinely dynamic instance with recorded truth."""
    p = DynamicDgpParams(n_products=n_products, n_draws=n_draws,
                         horizon=horizon, beta=beta)
    rng = SeededRng(99, rep).generator()
    return gen_dynamic_market(p, rng), rng


def static_like_market(seed=0, J=3, I=4, T=5):
    """beta = 0 durable data: myopic values, but owners still exit.

    Shares are conditional on the shrinking active population, so the data
    is internally consistent with the durable model. Returns the market,
    the true deltas (J, T), and the true active fractions (I, T).
    """
    rng = np.random.default_rng(seed)
    mu = rng.normal(size=(I, J, T))
    w = rng.random(I) + 0.5
    w /= w.sum()
    deltas = rng.normal(size=(J, T))
    shares = np.empty((J, T))
    pr0 = np.ones((I, T))
    for t in range(T):
        _, _, s_ij = logit_shares(deltas[:, t], mu[:, :, t], w)
        b = w * pr0[:, t]
        shares[:, t] = (b[:, None] * s_ij).sum(axis=0) / b.sum()
        if t + 1 < T:
            pr0[:, t + 1] = pr0[:, t] * (1.0 - s_ij.sum(axis=1))
    outside = 1.0 - shares.sum(axis=0)
    mkt = DurableMarket(shares, outside, mu, w, beta=0.0)
    return mkt, deltas, pr0


def forward(V, mkt):
    """The forward pass at V: (delta (J,T), pr0 (I,T))."""
    delta, _, pr0 = dynamic._forward_pass(mkt, dynamic._exp_mu_t(mkt))(V)
    return delta, pr0


class TestForwardPass:
    def test_beta0_single_period_is_static_iota(self):
        mkt, _, _ = static_like_market(T=1)
        V = np.zeros((mkt.n_types, 1))
        delta, pr0 = forward(V, mkt)
        static = StaticMarket(mkt.shares[:, 0], mkt.outside_shares[0],
                              mkt.mu[:, :, 0], mkt.weights)
        np.testing.assert_allclose(delta[:, 0],
                                   iota_V_to_delta(V[:, 0], 0.0, static),
                                   atol=1e-13)
        np.testing.assert_allclose(pr0[:, 0], 1.0)

    def test_truth_reproduced(self):
        inst, _ = desk_instance()
        truth = inst.solution_true
        delta, pr0 = forward(truth.value, inst.market)
        np.testing.assert_allclose(delta, truth.delta, atol=1e-9)
        np.testing.assert_allclose(pr0, truth.pr0, atol=1e-9)

    def test_two_period_toy_closed_form(self):
        # J = I = 1: conditional shares are the ccps, invertible by hand
        beta = 0.8
        S = np.array([[0.4, 0.55]])
        outside = 1.0 - S.sum(axis=0)
        mkt = DurableMarket(S, outside, np.zeros((1, 1, 2)), [1.0], beta)
        v2 = np.log(1 - S[0, 1]) / (beta - 1.0)
        d2 = np.log(S[0, 1]) + v2
        v1 = beta * v2 - np.log(1 - S[0, 0])
        d1 = np.log(S[0, 0]) + v1
        sol, out = pf_solve(mkt, 0.0, AccelConfig(tolerance=1e-14,
                                                  max_evaluations=5000))
        assert out.converged
        np.testing.assert_allclose(sol.value[0], [v1, v2], atol=1e-12)
        np.testing.assert_allclose(sol.delta[0], [d1, d2], atol=1e-12)

    def test_ownership_absorbing_along_iterations(self):
        inst, rng = desk_instance(1)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        V = np.zeros((mkt.n_types, mkt.horizon))
        for _ in range(5):
            delta, pr0 = forward(V, mkt)
            assert np.all(np.diff(pr0, axis=1) <= 1e-15)
            assert np.all(pr0 >= 0)
            V = pf_value_update(V, delta, 1.0, mkt)


class TestValueUpdate:
    def test_bellman_identity_at_truth_gamma0(self):
        inst, _ = desk_instance(2)
        truth = inst.solution_true
        out = pf_value_update(truth.value, truth.delta, 0.0, inst.market)
        np.testing.assert_allclose(out, truth.value, atol=1e-12)

    def test_correction_vanishes_at_truth_gamma1(self):
        inst, _ = desk_instance(2)
        truth = inst.solution_true
        out = pf_value_update(truth.value, truth.delta, 1.0, inst.market)
        np.testing.assert_allclose(out, truth.value, atol=1e-11)

    def test_beta0_homogeneous_static_one_shot(self):
        mkt, deltas, _ = static_like_market(seed=9, T=3)
        V0 = np.zeros((mkt.n_types, 3))
        d, _ = forward(V0, mkt)
        out = pf_value_update(V0, d, 1.0, mkt)
        # with beta = 0 the update equals the static corrected value map
        for t in range(3):
            static = StaticMarket(mkt.shares[:, t], mkt.outside_shares[t],
                                  mkt.mu[:, :, t], mkt.weights)
            from demandinv.static_rcl import iota_delta_to_V
            s0_hat = float(mkt.weights @ np.exp(-V0[:, t]))
            corr = np.log(s0_hat) - np.log(mkt.outside_shares[t])
            ref = np.log(np.exp(corr) * np.exp(
                iota_delta_to_V(d[:, t], static)) - np.exp(corr) + 1.0)
            np.testing.assert_allclose(out[:, t], ref, atol=1e-10)

    def test_monotone_in_delta(self):
        inst, _ = desk_instance(3)
        mkt = inst.market
        V = inst.solution_true.value + 0.1
        delta = inst.solution_true.delta.copy()
        base = pf_value_update(V, delta, 0.0, mkt)
        delta[2, 5] += 1e-4
        bumped = pf_value_update(V, delta, 0.0, mkt)
        assert np.all(bumped - base >= -1e-15)
        assert bumped[0, 5] > base[0, 5]

    def test_the_backup_is_logaddexp_to_4_ulp(self):
        # random finite pairs, equal pairs and pairs 800 apart; an ulp is taken
        # at the larger of the result and the larger term, since near a result
        # of 0 the formula cancels as np.logaddexp's does
        mkt = desk_instance()[0].market
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 20000)) * 10.0 ** rng.uniform(-3, 3, size=(3, 20000))
        b = np.concatenate([a[0] + rng.normal(size=20000) * 10.0 ** rng.uniform(-3, 3),
                            a[1], a[2] + np.where(rng.random(20000) < 0.5, 800.0, -800.0)])
        a = a.ravel()
        with np.errstate(**SOLVE_ERRSTATE):
            got = dynamic._backup(None, a, b, 0.0, None, mkt)
        want = np.logaddexp(mkt.beta * a, b)
        ulp = np.spacing(np.maximum(np.abs(want), np.abs(np.maximum(mkt.beta * a, b))))
        assert np.all(np.abs(got - want) <= 4 * ulp)

    def test_the_backup_is_non_finite_where_logaddexp_is(self):
        mkt = desk_instance()[0].market
        values = np.array([np.inf, -np.inf, np.nan, 0.0, -3.5, 1e300])
        a, b = (v.ravel() for v in np.meshgrid(values, values))
        with np.errstate(**SOLVE_ERRSTATE):
            got = dynamic._backup(None, a, b, 0.0, None, mkt)
            want = np.logaddexp(mkt.beta * a, b)
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))


class TestPfSolve:
    def test_recovers_truth(self):
        inst, _ = desk_instance(4)
        sol, out = pf_solve(inst.market, 1.0,
                            AccelConfig(tolerance=1e-13, max_evaluations=5000))
        assert out.converged
        assert np.max(np.abs(sol.delta - inst.solution_true.delta)) < 1e-9
        assert sol.dist < 1e-12
        assert bellman_residual(sol, inst.market) < 1e-10

    def test_gamma_independence_of_solution(self):
        inst, rng = desk_instance(5)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        cfg = AccelConfig(tolerance=1e-13, max_evaluations=5000)
        sol0, out0 = pf_solve(mkt, 0.0, cfg)
        sol1, out1 = pf_solve(mkt, 1.0, cfg)
        assert out0.converged and out1.converged
        assert np.max(np.abs(sol0.delta - sol1.delta)) < 1e-9

    def test_time_blocks_spectral_converges(self):
        inst, rng = desk_instance(6)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        cfg = AccelConfig(method="spectral", tolerance=1e-12,
                          max_evaluations=5000, use_blocks=True)
        sol, out = pf_solve(mkt, 1.0, cfg)
        assert out.converged
        assert sol.dist < 1e-12

    def test_beta0_matches_per_period_static(self):
        # with beta = 0 each period is a static inversion over the active
        # (exit-reweighted) population
        mkt, deltas, pr0 = static_like_market(seed=21)
        sol, out = pf_solve(mkt, 1.0, AccelConfig(tolerance=1e-13,
                                                  max_evaluations=2000))
        assert out.converged
        np.testing.assert_allclose(sol.delta, deltas, atol=1e-9)
        for t in range(mkt.horizon):
            b = mkt.weights * pr0[:, t]
            static = StaticMarket(mkt.shares[:, t], mkt.outside_shares[t],
                                  mkt.mu[:, :, t], b / b.sum())
            from demandinv.static_rcl import solve_inner
            d_t, o_t = solve_inner(static, "delta1",
                                   AccelConfig(tolerance=1e-13,
                                               max_evaluations=2000))
            assert o_t.converged
            np.testing.assert_allclose(sol.delta[:, t], d_t, atol=1e-9)

    def test_terminal_condition_stationary(self):
        inst, _ = desk_instance(7)
        sol, out = pf_solve(inst.market, 1.0,
                            AccelConfig(tolerance=1e-13, max_evaluations=5000))
        assert out.converged
        omega_T = np.log(np.exp(sol.delta[:, -1][None, :]
                                + inst.market.mu[:, :, -1]).sum(axis=1))
        lhs = np.logaddexp(inst.market.beta * sol.value[:, -1], omega_T)
        np.testing.assert_allclose(lhs, sol.value[:, -1], atol=1e-11)


class TestTraditionalJoint:
    def test_agrees_with_pf(self):
        inst, rng = desk_instance(8)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        cfg = AccelConfig(tolerance=1e-13, max_evaluations=20000)
        sol_j, out_j = traditional_joint_solve(mkt, 1.0, 1.0, cfg)
        sol_v, out_v = pf_solve(mkt, 1.0, cfg)
        assert out_j.converged and out_v.converged
        assert np.max(np.abs(sol_j.delta - sol_v.delta)) < 1e-9

    def test_dampening_still_converges(self):
        inst, _ = desk_instance(9)
        cfg = AccelConfig(tolerance=1e-12, max_evaluations=40000)
        sol, out = traditional_joint_solve(inst.market, 0.0, 0.7, cfg)
        assert out.converged
        assert sol.dist < 1e-10


class TestAlgorithmEquivalence:
    def test_pf_and_joint_coincide(self):
        inst, rng = desk_instance(12)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        cfg = AccelConfig(tolerance=1e-13, max_evaluations=20000)
        sol_v, out_v = pf_solve(mkt, 1.0, cfg)
        sol_j, out_j = traditional_joint_solve(mkt, 0.0, 1.0, cfg)
        assert out_v.converged and out_j.converged
        assert np.max(np.abs(sol_v.delta - sol_j.delta)) < 1e-9


class TestBellmanResidual:
    def test_small_at_convergence_and_sensitive_to_perturbation(self):
        inst, _ = desk_instance(13)
        sol, out = pf_solve(inst.market, 1.0,
                            AccelConfig(tolerance=1e-13, max_evaluations=5000))
        assert out.converged
        assert bellman_residual(sol, inst.market) < 1e-10
        sol.value[1, 3] += 1e-3
        assert bellman_residual(sol, inst.market) > 1e-4

    def test_beta0_equals_static_identity_residual(self):
        mkt, deltas, _ = static_like_market(seed=41)
        sol, out = pf_solve(mkt, 0.0, AccelConfig(tolerance=1e-13,
                                                  max_evaluations=2000))
        assert out.converged
        assert bellman_residual(sol, mkt) < 1e-11


class TestIvs:
    def test_converges_and_matches_data(self):
        p = DynamicDgpParams(n_products=4, n_draws=6, horizon=12, beta=0.9)
        inst = gen_dynamic_market(p, SeededRng(99, 20).generator())
        sol, out = ivs_solve(inst.market, 1.0, IvsGrid(),
                             AccelConfig(tolerance=1e-12, max_evaluations=5000))
        assert out.converged
        assert sol.dist < 1e-12
        assert [f.name for f in fields(sol)] == ["value", "delta", "pr0", "dist"]

    def test_the_final_state_is_rebuilt_from_the_solution_and_the_grid(self):
        # the recipe of ivs_solve's docstring: V at the nodes from the point,
        # the AR(1) fits from the inclusive values at sol.delta; together they
        # solve the IVS Bellman equations at the data points and the nodes
        inst, _ = desk_instance(3)
        mkt, grid = inst.market, IvsGrid()
        sol, out = ivs_solve(mkt, 1.0, grid, AccelConfig(method="anderson", tolerance=1e-13,
                                                           max_evaluations=2000))
        assert out.converged
        I, T, N = mkt.n_types, mkt.horizon, grid.n_nodes
        np.testing.assert_array_equal(sol.value, out.point[:I * T].reshape(I, T))
        v_grid = out.point[I * T:].reshape(I, N)
        nodes = chebyshev_nodes(N, grid.lo, grid.hi)
        omega = logsumexp(sol.delta[None, :, :] + mkt.mu, 1)  # (I, T)
        theta0, theta1, sd = ols_ar1_rows(omega)
        ghx, ghw = normal_quadrature(grid.gh_order)
        coefs = v_grid @ chebyshev_fit_matrix(N).T

        def expected(points):  # E[V(x') | x] by the clamped interpolant, per type
            x = np.clip(theta0[:, None, None] + theta1[:, None, None] * points[:, :, None]
                        + sd[:, None, None] * ghx, grid.lo, grid.hi)
            z = (2.0 * x - (grid.lo + grid.hi)) / (grid.hi - grid.lo)
            return np.stack([np.polynomial.chebyshev.chebval(z[i], coefs[i])
                             for i in range(I)]) @ ghw

        beta = mkt.beta
        np.testing.assert_allclose(
            v_grid, np.logaddexp(beta * expected(np.tile(nodes, (I, 1))), nodes), atol=1e-10)
        # the gamma term vanishes at a solution: its outside shares are the data's
        np.testing.assert_allclose(sol.value, np.logaddexp(beta * expected(omega), omega),
                                   atol=1e-10)

    def test_beta0_matches_per_period_static(self):
        mkt, deltas, _ = static_like_market(seed=55)
        sol, out = ivs_solve(mkt, 1.0, IvsGrid(),
                             AccelConfig(tolerance=1e-13, max_evaluations=2000))
        assert out.converged
        np.testing.assert_allclose(sol.delta, deltas, atol=1e-9)

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_short_horizons_are_rejected_by_ivs_and_solved_by_pf(self, horizon):
        inst, _ = desk_instance(horizon=horizon)
        cfg = AccelConfig(tolerance=1e-12, max_evaluations=2000)
        with pytest.raises(ValueError, match=f"ivs_solve needs a horizon of at least 3 "
                                             f"periods .*AR\\(1\\).*not {horizon}"):
            ivs_solve(inst.market, 1.0, IvsGrid(), cfg)
        assert pf_solve(inst.market, 1.0, cfg)[1].converged

    @pytest.mark.parametrize("kwargs", [
        dict(n_nodes=2.5), dict(n_nodes=True), dict(n_nodes=0), dict(gh_order=True),
        dict(gh_order=0), dict(gh_order=5.0), dict(hi=np.inf), dict(lo=-np.inf),
        dict(lo=np.nan), dict(lo=-1e308, hi=1e308), dict(lo=1e307, hi=1.5e308),
        dict(lo=5.0, hi=5.0), dict(lo=1.0, hi=0.0), dict(hi="10"),
    ], ids=["float-nodes", "bool-nodes", "zero-nodes", "bool-order", "zero-order",
            "float-order", "infinite-hi", "infinite-lo", "nan-lo", "infinite-span",
            "hi-above-half-max", "empty", "reversed", "string-hi"])
    def test_grid_rejects(self, kwargs):
        with pytest.raises(ValueError):
            IvsGrid(**kwargs)

    def test_grid_defaults(self):
        assert IvsGrid() == IvsGrid(10, -20.0, 10.0, 5)
        half = np.finfo(float).max / 2
        assert IvsGrid(lo=-half, hi=half).hi == half

    @pytest.mark.parametrize("method", ["plain", "anderson"])
    def test_a_wide_grid_ends_non_finite_without_a_warning(self, method):
        # a fitted AR(1) slope above 1 times a node near max/2 overflows
        rng = SeededRng(99, 0).generator()
        inst = gen_dynamic_market(DynamicDgpParams(n_products=4, n_draws=6, horizon=4,
                                                   beta=0.9), rng)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        half = np.finfo(float).max / 2
        cfg = AccelConfig(method=method, tolerance=1e-12, max_evaluations=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, out = ivs_solve(mkt, 1.0, IvsGrid(lo=-half, hi=half), cfg)
        assert out.termination == "non_finite"
        assert np.all(np.isfinite(out.point))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("period", [0, -1])
    def test_a_non_finite_omega_ends_the_solve_at_x0(self, monkeypatch, value, period):
        # one non-finite purchase inclusive value makes its type's AR(1) fit
        # NaN, and so the image, even where the backup of omega = -inf is finite
        forward_pass = dynamic._forward_pass

        def patched(mkt, em):
            forward = forward_pass(mkt, em)

            def with_bad_omega(V):
                delta, omega, pr0 = forward(V)
                omega = omega.copy()
                omega[1, period] = value
                return delta, omega, pr0
            return with_bad_omega
        monkeypatch.setattr(dynamic, "_forward_pass", patched)
        inst, _ = desk_instance(horizon=5)
        grid = IvsGrid()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, out = ivs_solve(inst.market, 1.0, grid, AccelConfig(method="anderson"))
        assert out.termination == "non_finite" and out.evaluations == 1
        np.testing.assert_array_equal(
            out.point, np.zeros(inst.market.n_types * (inst.market.horizon + grid.n_nodes)))

    def test_a_quadrature_order_without_finite_weights_is_rejected(self):
        # by the grid itself, before any solve
        with pytest.raises(ValueError, match="order-400 Gauss-Hermite weights are not finite"):
            IvsGrid(gh_order=400)
        assert IvsGrid(gh_order=371).gh_order == 371

    def test_the_expectation_is_the_x_space_formula_with_its_clamp(self):
        # the nodes x = theta0 + theta1 * point + sd * node of random AR(1)
        # fits fall on both sides of the grid; the x-space formula clamps them
        # to [lo, hi], maps them to [-1, 1] and evaluates the interpolants
        grid = IvsGrid(n_nodes=10, lo=-20.0, hi=10.0, gh_order=5)
        ghx, ghw = normal_quadrature(grid.gh_order)
        rng = np.random.default_rng(12)
        I, M = 7, 40
        nodes = chebyshev_nodes(grid.n_nodes, grid.lo, grid.hi)
        coefs = (np.log1p(np.exp(nodes)) * rng.uniform(0.5, 2.0, size=(I, 1))
                 ) @ chebyshev_fit_matrix(grid.n_nodes).T
        theta0, theta1 = rng.uniform(-25.0, 15.0, size=I), rng.uniform(0.0, 1.5, size=I)
        sd = rng.uniform(0.0, 8.0, size=I)
        theta0[0], theta1[0], sd[0] = 0.0, 1.0, 0.0  # type 0 moves nowhere
        points = rng.uniform(-40.0, 30.0, size=(I, M))
        points[0, :2] = grid.hi + 10.0, grid.lo - 10.0
        got = dynamic._expectations(coefs, (theta0, theta1, sd), points, grid, ghx, ghw)
        x = np.clip(theta0[:, None, None] + theta1[:, None, None] * points[:, :, None]
                    + sd[:, None, None] * ghx, grid.lo, grid.hi)
        z = (2.0 * x - (grid.lo + grid.hi)) / (grid.hi - grid.lo)
        want = np.stack([np.polynomial.chebyshev.chebval(z[i], coefs[i]) for i in range(I)]) @ ghw
        assert (x == grid.lo).any() and (x == grid.hi).any()
        assert np.mean((x > grid.lo) & (x < grid.hi)) > 0.3
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # the clamp: beyond the grid, the interpolant at its end
        chebval = np.polynomial.chebyshev.chebval
        assert got[0, 0] == pytest.approx(chebval(1.0, coefs[0]), rel=1e-14)
        assert got[0, 1] == pytest.approx(chebval(-1.0, coefs[0]), rel=1e-14)

    @pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (-1e-310, 1e-310)])
    def test_a_grid_narrower_than_rounding_maps_every_node_to_an_end(self, lo, hi):
        # (2x - lo - hi) / (hi - lo) overflows to +-inf, which clamps to +-1
        inst, _ = desk_instance()
        _, out = ivs_solve(inst.market, 1.0, IvsGrid(lo=lo, hi=hi),
                           AccelConfig(tolerance=1e-12, max_evaluations=300))
        assert out.termination == "converged"

    def test_noiseless_ar1_expectation_equals_direct_evaluation(self):
        # sigma -> 0: the quadrature collapses onto the deterministic next state
        from demandinv.numerics import (chebyshev_eval_rows, chebyshev_fit_matrix,
                                        chebyshev_nodes, normal_quadrature)
        lo, hi = -20.0, 10.0
        nodes = chebyshev_nodes(10, lo, hi)
        coefs = (chebyshev_fit_matrix(10) @ np.log(1 + np.exp(nodes)))[None, :]
        gh_nodes, gh_weights = normal_quadrature(5)
        theta0, theta1, sd = 0.5, 0.9, 0.0
        omega = 2.3
        nxt = (2.0 * (theta0 + theta1 * omega) - (lo + hi)) / (hi - lo)  # in [-1, 1]
        args = nxt + sd * gh_nodes
        expect = float(np.sum(gh_weights * chebyshev_eval_rows(coefs, args[None, :])[0]))
        direct = float(chebyshev_eval_rows(coefs, np.array([nxt]))[0])
        assert expect == pytest.approx(direct, abs=1e-12)


class TestJson:
    def test_round_trip(self):
        inst, _ = desk_instance(14, horizon=4, n_products=2, n_draws=3)
        mkt = inst.market
        clone = market_from_json(market_to_json(mkt))
        np.testing.assert_array_equal(clone.shares, mkt.shares)
        np.testing.assert_array_equal(clone.mu, mkt.mu)
        np.testing.assert_array_equal(clone.pr0_init, mkt.pr0_init)
        assert clone.beta == mkt.beta

    def test_rejects_other_schema_version(self):
        inst, _ = desk_instance(14, horizon=4, n_products=2, n_draws=3)
        doc = json.loads(market_to_json(inst.market))
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["shares", "outside_shares", "mu", "weights", "beta",
                                     "pr0_init"])
    def test_rejects_a_missing_key(self, key):
        inst, _ = desk_instance(14, horizon=4, n_products=2, n_draws=3)
        doc = json.loads(market_to_json(inst.market))
        del doc[key]
        with pytest.raises(ValueError, match=f"missing the keys \\['{key}'\\]"):
            market_from_json(json.dumps(doc))


    @pytest.mark.parametrize("T", [3, 5, 4.0, "4", True, None])
    def test_rejects_a_T_that_is_not_the_number_of_periods(self, T):
        """Version-1 durable fixtures carried the horizon T; version 2 takes it
        from mu alone, and any T key is unknown."""
        inst, _ = desk_instance(14, horizon=4, n_products=2, n_draws=3)
        doc = json.loads(market_to_json(inst.market))
        doc["T"] = T
        with pytest.raises(ValueError, match=r"unknown fixture keys \['T'\]"):
            market_from_json(json.dumps(doc))

    def test_log_shares_are_the_logs_of_the_shares(self):
        mkt = desk_instance(horizon=4)[0].market
        np.testing.assert_array_equal(mkt.log_shares, np.log(mkt.shares))
        np.testing.assert_array_equal(mkt.log_outside, np.log(mkt.outside_shares))


class TestValidation:
    @pytest.mark.parametrize("build", [
        lambda: StaticMarket([0.5], 0.5, [[np.nan]], [1.0]),
        lambda: StaticMarket([0.5], 0.5, [[np.inf]], [1.0]),
        lambda: StaticMarket([0.5], 0.5, np.zeros((2, 1)), [1.5, -0.5]),
        lambda: StaticMarket([0.5], 0.5, np.zeros((2, 1)), [np.nan, 1.0]),
        lambda: DurableMarket([[1.2], [-0.3]], [0.1], np.zeros((1, 2, 1)), [1.0], 0.9),
        lambda: DurableMarket([[0.3]], [0.7], np.zeros((2, 1, 1)), [1.5, 1.5], 0.9),
        lambda: DurableMarket([[0.3]], [0.7], np.zeros((2, 1, 1)), [1.5, -0.5], 0.9),
        lambda: DurableMarket([[0.3]], [0.7], np.full((1, 1, 1), np.nan), [1.0], 0.9),
        lambda: DurableMarket([[0.3]], [0.7], np.zeros((1, 1, 1)), [1.0], 0.9,
                              pr0_init=[np.nan]),
        lambda: NestedMarket(StaticMarket([0.5], 0.5, np.zeros((1, 1)), [1.0]), [0], np.nan),
        lambda: StaticMarket(["0.3", "0.3"], "0.4", np.zeros((1, 2)), ["1.0"]),
        lambda: StaticMarket([0.5], 0.5, np.zeros((1, 1)), [True]),
        lambda: DurableMarket([[0.3]], [0.7], np.zeros((1, 1, 1)), [1.0], "0.5"),
        lambda: DurableMarket([[0.3]], [0.7], np.zeros((1, 1, 1)), [1.0], [0.5]),
        lambda: DurableMarket([[0.3]], ["0.7"], np.zeros((1, 1, 1)), [1.0], 0.5),
        lambda: NestedMarket(StaticMarket([0.3, 0.3], 0.4, np.zeros((1, 2)), [1.0]),
                             [0.7, 1.2], 0.5),
        lambda: NestedMarket(StaticMarket([0.3, 0.3], 0.4, np.zeros((1, 2)), [1.0]),
                             [0, 1], "0.5"),
        lambda: StaticMarket([0.3, 0.3], 0.4, [[0.0, 0.0], [-350.0, 351.0]], [0.5, 0.5]),
        lambda: DurableMarket([[0.3, 0.3], [0.3, 0.3]], [0.4, 0.4],
                              [[[0.0, 0.0], [0.0, 701.0]]], [1.0], 0.5),
        lambda: NestedMarket(StaticMarket([0.3, 0.3], 0.4, [[0.0, 360.0]], [1.0]),
                             [0, 0], 0.5),
    ], ids=["static-nan-mu", "static-inf-mu", "static-negative-weight", "static-nan-weight",
            "durable-negative-share", "durable-weights-sum-3", "durable-negative-weight",
            "durable-nan-mu", "durable-nan-pr0", "nested-nan-rho",
            "static-string-data", "static-bool-weights", "durable-string-beta",
            "durable-vector-beta", "durable-string-outside", "nested-fractional-ids",
            "nested-string-rho", "static-mu-span-701", "durable-mu-span-701-in-period-2",
            "nested-mu-span-720-over-1-minus-rho"])
    def test_market_constructors_reject_bad_data(self, build):
        with pytest.raises(ValueError):
            build()

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_constructors_reject_or_build_finite_markets(self, data):
        """Every draw of constructor inputs, valid or spoiled, either raises
        ValueError or builds a market whose start point and first mapping
        evaluation are finite."""
        kind = data.draw(st.sampled_from(["static", "nested", "durable"]))
        build, start, evaluate = _MARKET_KINDS[kind](data.draw)
        try:
            mkt = build()
        except ValueError:
            return
        x0 = start(mkt)
        assert np.all(np.isfinite(x0))
        assert np.all(np.isfinite(evaluate(x0, mkt)))

    def test_rejects_bad_period_sums(self):
        with pytest.raises(ValueError):
            DurableMarket(np.full((1, 2), 0.3), np.array([0.5, 0.7]),
                          np.zeros((1, 1, 2)), [1.0], 0.9)

    def test_spans_up_to_the_limit_build(self):
        StaticMarket([0.3, 0.3], 0.4, [[0.0, 0.0], [-350.0, 350.0]], [0.5, 0.5])
        NestedMarket(StaticMarket([0.3, 0.3], 0.4, [[0.0, 360.0]], [1.0]), [0, 1], 0.5)
        NestedMarket(StaticMarket([0.3, 0.3], 0.4, [[0.0, 340.0]], [1.0]), [0, 0], 0.5)

    def test_fixture_with_a_string_beta_is_rejected(self):
        inst, _ = desk_instance(horizon=3)
        doc = json.loads(market_to_json(inst.market))
        doc["beta"] = "0.5"
        with pytest.raises(ValueError, match="beta"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("name, V_shape, delta_shape", [
        ("V", (1, 12), (4, 12)), ("V", (6, 11), (4, 12)), ("V", (72,), (4, 12)),
        ("delta", (6, 12), (4, 11)), ("delta", (6, 12), (48,)), ("delta", (6, 12), (6, 12))])
    def test_the_value_update_checks_its_arguments_shapes(self, name, V_shape, delta_shape):
        # a (1, 12) V was broadcast over all 6 types; the others failed inside numpy
        inst, _ = desk_instance()
        shape = r"\(6, 12\)" if name == "V" else r"\(4, 12\)"
        with pytest.raises(ValueError, match=rf"{name} must have shape {shape}, not"):
            pf_value_update(np.zeros(V_shape), np.zeros(delta_shape), 1.0, inst.market)

    def test_the_bellman_audit_checks_its_solutions_shape(self):
        inst, _ = desk_instance()
        sol = inst.solution_true
        assert bellman_residual(sol, inst.market) < 1e-12
        with pytest.raises(ValueError, match=r"V must have shape \(6, 12\), not \(1, 12\)"):
            bellman_residual(replace(sol, value=sol.value[:1]), inst.market)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            DurableMarket(np.full((1, 1), 0.3), np.array([0.7]),
                          np.zeros((1, 1, 1)), [1.0], 1.0)


# Inputs for the market constructors: valid data, then maybe one entry
# replaced by a special value or one axis made one longer or shorter.
_SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -1.0, 1.0)


def _spoil(draw, valid, specials=_SPECIAL):
    arr = np.array(valid)
    how = draw(st.sampled_from(["keep", "value", "shape"]))
    if how == "value" and arr.size:
        arr.flat[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(specials))
    elif how == "shape":
        if arr.ndim == 0:
            return np.array([arr, arr])
        axis = draw(st.integers(0, arr.ndim - 1))
        n = arr.shape[axis] + draw(st.sampled_from([-1, 1]))
        arr = np.resize(np.moveaxis(arr, axis, -1), arr.shape[:axis] + arr.shape[axis + 1:]
                        + (max(n, 0),))
        arr = np.moveaxis(arr, -1, axis)
    return arr


def _simplex(draw, n):
    """n positive entries summing to 1 (up to rounding)."""
    x = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return x / x.sum()


def _scaled(draw, mu):
    """mu as drawn, or scaled so that its per-type spans may pass
    MU_SPAN_LIMIT (700), centred on 0 per type and period so that an accepted
    market's utilities stay within +-350 of the outside option's."""
    scale = draw(st.sampled_from([1.0, 100.0, 300.0]))
    if scale == 1.0 or mu.size == 0:
        return mu
    mid = 0.5 * (mu.max(axis=1, keepdims=True) + mu.min(axis=1, keepdims=True))
    return (mu - mid) * scale


def _static_inputs(draw):
    I, J = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    s = _simplex(draw, J + 1)
    mu = _scaled(draw, np.array(draw(st.lists(st.floats(-5, 5), min_size=I * J,
                                               max_size=I * J))).reshape(I, J))
    return (_spoil(draw, s[:J]), _spoil(draw, s[J]),
            _spoil(draw, mu), _spoil(draw, _simplex(draw, I)))


def _static(draw):
    args = _static_inputs(draw)
    return (lambda: StaticMarket(*args), initial_delta,
            lambda x, mkt: phi_delta(x, 1.0, mkt))


def _nested(draw):
    args = _static_inputs(draw)
    J = np.asarray(args[0]).size
    n_nests = draw(st.integers(1, max(J, 1)))
    nest_of = _spoil(draw, np.arange(J) % n_nests, specials=(-1, 0, n_nests))
    rho = _spoil(draw, np.full(draw(st.sampled_from([(), (n_nests,)])),
                               draw(st.floats(0.0, 0.95))))
    return (lambda: NestedMarket(StaticMarket(*args), nest_of, rho), rcnl_initial_delta,
            lambda x, mkt: rcnl_phi_delta(x, 1.0, mkt))


def _durable(draw):
    I, J, T = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    s = np.column_stack([_simplex(draw, J + 1) for _ in range(T)])
    n = I * J * T
    mu = _scaled(draw, np.array(draw(st.lists(st.floats(-3, 3), min_size=n,
                                               max_size=n))).reshape(I, J, T))
    pr0 = (None if draw(st.booleans()) else _spoil(draw, np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=I, max_size=I)))))
    args = (_spoil(draw, s[:J]), _spoil(draw, s[J]), _spoil(draw, mu),
            _spoil(draw, _simplex(draw, I)), _spoil(draw, np.float64(draw(st.floats(0.0, 0.99)))))
    return (lambda: DurableMarket(*args, pr0_init=pr0), initial_delta_myopic,
            lambda x, mkt: pf_value_update(np.zeros((mkt.n_types, mkt.horizon)), x, 1.0, mkt))


_MARKET_KINDS = {"static": _static, "nested": _nested, "durable": _durable}
