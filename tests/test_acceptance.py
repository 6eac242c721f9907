"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; the
dynamic criteria dominate the runtime (several minutes).
"""

from dataclasses import replace

import numpy as np
import pytest

from demandinv.accel import AccelConfig
from demandinv.bench import AlgorithmSpec, default_config, run_suite, summarize
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams,
                               draw_theta, gen_dynamic_market,
                               gen_nested_market, gen_static_market,
                               large_heterogeneity_market)
from demandinv.dynamic import (IvsGrid, bellman_residual, ivs_solve, pf_solve,
                               traditional_joint_solve)
from demandinv.rcnl import (rcnl_iota_delta_to_IV, rcnl_phi_IV,
                            rcnl_phi_delta, rcnl_shares)
from demandinv.static_rcl import (StaticMarket, dist_metric, initial_delta,
                                  iota_delta_to_V, logit_shares, phi_V,
                                  phi_delta, predict_shares, solve_inner)

from oracles import newton_invert


def report(num: int, passed: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def rows_by_label(records, dist_tol=1e-12):
    return {r.algorithm: r for r in summarize(records, dist_tol=dist_tol)}


@pytest.fixture(scope="module")
def static_j25_rows():
    cfg = default_config("static_j25")
    return rows_by_label(run_suite(cfg)), cfg


@pytest.fixture(scope="module")
def static_j250_rows():
    cfg = default_config("static_j250")
    return rows_by_label(run_suite(cfg)), cfg


@pytest.fixture(scope="module")
def dynamic_pf_results():
    """20 replications of the T=50 design: plain V-(1), V-(1)+Anderson,
    joint plain; keeps Bellman residuals for the audit."""
    reps = 20
    out = {"plain": [], "anderson": [], "joint": []}
    for rep in range(reps):
        rng = SeededRng(11, rep).generator()
        inst = gen_dynamic_market(DynamicDgpParams(horizon=50), rng)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        cfg_p = AccelConfig(tolerance=1e-12, max_evaluations=3000)
        cfg_a = AccelConfig(method="anderson", tolerance=1e-12,
                            max_evaluations=3000)
        for key, run in (("plain", lambda: pf_solve(mkt, 1.0, cfg_p)),
                         ("anderson", lambda: pf_solve(mkt, 1.0, cfg_a))):
            sol, o = run()
            out[key].append((o.evaluations, o.converged, sol.dist,
                             bellman_residual(sol, mkt) if o.converged else np.inf))
        sol, o = traditional_joint_solve(mkt, 1.0, 1.0, cfg_p)
        out["joint"].append((o.evaluations, o.converged, sol.dist,
                             bellman_residual(sol, mkt) if o.converged else np.inf))
    return out


def test_criterion_1_large_heterogeneity_reproduction():
    import time
    t0 = time.perf_counter()
    mkt, delta = large_heterogeneity_market()
    _, _, s_ij = predict_shares(delta, mkt)
    s_i0 = 1.0 - s_ij.sum(axis=1)
    table = np.array([[0.9999, 0.0001], [0.0000, 0.9998], [0.0000, 0.0001]])
    got = np.vstack([s_ij.T, s_i0])
    ccp_ok = np.array_equal(np.round(got, 4), table)

    d_plain, o_plain = solve_inner(
        mkt, "delta1", AccelConfig(tolerance=1e-13, max_evaluations=2000))
    plain_fails = not o_plain.converged

    d_spec, o_spec = solve_inner(
        mkt, "delta1", AccelConfig(method="spectral", tolerance=1e-13,
                                   max_evaluations=2000))
    spec_ok = (o_spec.converged and o_spec.evaluations <= 200
               and dist_metric(d_spec, mkt) < 1e-12)
    elapsed = time.perf_counter() - t0
    report(1, ccp_ok and plain_fails and spec_ok and elapsed < 1.0,
           f"ccp table={ccp_ok}, plain diverges={plain_fails}, "
           f"spectral evals={o_spec.evaluations}, runtime={elapsed:.2f}s")


def test_criterion_2_static_speedups_j25(static_j25_rows):
    rows, cfg = static_j25_rows
    all_labels = [a.label for a in cfg.algorithms]
    conv_ok = all(rows[lab].conv_pct == 100.0 for lab in all_labels)
    ratio = rows["delta-(1)"].mean_evals / rows["delta-(0)"].mean_evals
    anderson_mean = rows["delta-(1)+anderson"].mean_evals
    p = StaticDgpParams(n_products=25)
    outside = np.mean([gen_static_market(p, SeededRng(cfg.master_seed, r)
                                         .generator()).market.outside_share
                       for r in range(cfg.replications)])
    ok = (conv_ok and ratio <= 0.6 and 5.0 <= anderson_mean <= 15.0
          and abs(outside - 0.85) <= 0.05)
    report(2, ok, f"all rows 100%={conv_ok}, delta1/delta0={ratio:.2f}, "
                  f"delta1+anderson mean={anderson_mean:.2f}, "
                  f"outside share={outside:.3f}")


def test_criterion_3_small_outside_share_j250(static_j250_rows):
    rows, cfg = static_j250_rows
    d1 = rows["delta-(1)"].mean_evals
    d0 = rows["delta-(0)"].mean_evals
    in_band = 0.5 * 24.32 <= d1 <= 1.5 * 24.32
    ordering = True
    for base in ("delta-(0)", "delta-(1)", "V-(0)", "V-(1)"):
        a = rows[f"{base}+anderson"].mean_evals
        ordering &= a <= rows[f"{base}+spectral"].mean_evals
        ordering &= a <= rows[f"{base}+squarem"].mean_evals
    ok = d1 <= 0.5 * d0 and in_band and ordering
    report(3, ok, f"delta1 mean={d1:.2f} vs delta0={d0:.2f}, "
                  f"band 12.16..36.48={in_band}, anderson<=spectral/squarem={ordering}")


def test_criterion_4_duality_suite():
    rng = np.random.default_rng(2024)
    worst_dual = 0.0
    worst_path = 0.0
    for _ in range(200):
        J = int(rng.integers(2, 7))
        I = int(rng.integers(2, 7))
        d_true = rng.normal(size=J)
        mu = rng.normal(size=(I, J))
        w = rng.random(I) + 0.2
        w /= w.sum()
        s_j, s_0, _ = logit_shares(d_true, mu, w)
        mkt = StaticMarket(s_j, 1.0 - s_j.sum(), mu, w)
        d = d_true + rng.normal(size=J)
        for gamma in (0.0, 1.0):
            lhs = iota_delta_to_V(phi_delta(d, gamma, mkt), mkt)
            rhs = phi_V(iota_delta_to_V(d, mkt), gamma, mkt)
            worst_dual = max(worst_dual, float(np.max(np.abs(lhs - rhs))))
            dd = initial_delta(mkt)
            VV = iota_delta_to_V(dd, mkt)
            for _ in range(10):
                dd = phi_delta(dd, gamma, mkt)
                VV = phi_V(VV, gamma, mkt)
                gap = float(np.max(np.abs(iota_delta_to_V(dd, mkt) - VV)))
                worst_path = max(worst_path, gap)
    ok = worst_dual < 1e-11 and worst_path < 1e-10
    report(4, ok, f"max duality residual={worst_dual:.1e}, "
                  f"max 10-step path gap={worst_path:.1e}")


def test_criterion_5_nonexpansiveness_and_one_shot():
    rng = np.random.default_rng(77)
    worst = -np.inf
    for _ in range(1000):
        J = int(rng.integers(2, 6))
        I = int(rng.integers(2, 6))
        d_true = rng.normal(size=J)
        mu = 1.5 * rng.normal(size=(I, J))
        w = np.full(I, 1.0 / I)
        s_j, s_0, _ = logit_shares(d_true, mu, w)
        mkt = StaticMarket(s_j, 1.0 - s_j.sum(), mu, w)
        d1 = rng.normal(size=J) * 2
        d2 = rng.normal(size=J) * 2
        lhs = np.max(np.abs(phi_delta(d1, 0.0, mkt) - phi_delta(d2, 0.0, mkt)))
        worst = max(worst, lhs - np.max(np.abs(d1 - d2)))
    nonexp_ok = worst <= 1e-12

    # homogeneous one-shot: gamma=1 output is constant in its argument
    d_true = rng.normal(size=8)
    mu0 = np.zeros((5, 8))
    w = np.full(5, 0.2)
    s_j, s_0, _ = logit_shares(d_true, mu0, w)
    mkt0 = StaticMarket(s_j, 1.0 - s_j.sum(), mu0, w)
    closed = mkt0.log_shares - mkt0.log_outside
    oneshot = 0.0
    for _ in range(20):
        out = phi_delta(rng.normal(size=8) * 5, 1.0, mkt0)
        oneshot = max(oneshot, float(np.max(np.abs(out - closed))))
    oneshot_ok = oneshot < 1e-12
    report(5, nonexp_ok and oneshot_ok,
           f"max expansiveness excess={worst:.1e}, one-shot gap={oneshot:.1e}")


def test_criterion_6_step_size_rules(static_j25_rows, static_j250_rows):
    rows25, cfg25 = static_j25_rows
    rows250, _ = static_j250_rows
    # alpha_S3 rows converge 100% wherever Tables 1-2 report 100%
    s3_ok = all(rows25[lab].conv_pct == 100.0
                for lab in rows25 if "spectral" in lab or "squarem" in lab)
    s3_ok &= all(rows250[lab].conv_pct == 100.0
                 for lab in rows250 if "spectral" in lab or "squarem" in lab)

    cfg = replace(default_config("stepsize_sweep"),
                  algorithms=[AlgorithmSpec("delta", 1.0, "spectral", "S1")])
    s1_rows = rows_by_label(run_suite(cfg))
    s1_conv = s1_rows["delta-(1)+spectral[S1]"].conv_pct
    s1_ok = s1_conv < 100.0

    rng = np.random.default_rng(5)
    prop10_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 8))
        A = rng.normal(size=(dim, dim))
        A *= rng.uniform(0.3, 0.95) / np.linalg.norm(A, 2)
        b = rng.normal(size=dim)
        x_star = np.linalg.solve(np.eye(dim) - A, b)
        x = x_star + rng.normal(size=dim)
        alpha = -float(rng.uniform(0.01, 2.0))
        moved = x + alpha * (A @ x + b - x)
        prop10_ok &= (np.linalg.norm(moved - x_star) > np.linalg.norm(x - x_star))
    report(6, s3_ok and s1_ok and prop10_ok,
           f"S3 rows 100%={s3_ok}, S1 delta1+spectral conv={s1_conv:.0f}%<100, "
           f"negative-alpha property={prop10_ok}")


def test_criterion_7_rcnl():
    cfg = replace(default_config("rcnl"),
                  algorithms=[AlgorithmSpec("delta", 0.0), AlgorithmSpec("delta", 1.0),
                              AlgorithmSpec("IV", 1.0)])
    rows = rows_by_label(run_suite(cfg))
    conv_ok = (rows["delta-(1)"].conv_pct == 100.0
               and rows["IV-(1)"].conv_pct == 100.0
               and rows["delta-(1)"].dist_below_pct == 100.0
               and rows["IV-(1)"].dist_below_pct == 100.0)
    ratio = rows["delta-(1)"].mean_evals / rows["delta-(0)"].mean_evals

    # rho = 0 reduction at 1e-12 on generated data
    rng = np.random.default_rng(12)
    red_ok = True
    for rep in range(5):
        inst = gen_nested_market(StaticDgpParams(n_products=75),
                                 SeededRng(7, rep).generator(), rho=0.0)
        mkt = inst.market
        d = inst.delta_true + rng.normal(size=75) * 0.5
        s_j, _, s_0, _ = rcnl_shares(d, mkt)
        sj_s, s0_s, _ = logit_shares(d, mkt.base.mu, mkt.base.weights)
        red_ok &= float(np.max(np.abs(s_j - sj_s))) < 1e-12
        red_ok &= abs(s_0 - s0_s) < 1e-12
        static = StaticMarket(mkt.base.shares, mkt.base.outside_share,
                              mkt.base.mu, mkt.base.weights)
        red_ok &= float(np.max(np.abs(rcnl_phi_delta(d, 1.0, mkt)
                                      - phi_delta(d, 1.0, static)))) < 1e-12
        iv = rcnl_iota_delta_to_IV(d, mkt)
        dual = rcnl_iota_delta_to_IV(rcnl_phi_delta(d, 1.0, mkt), mkt)
        red_ok &= float(np.max(np.abs(dual - rcnl_phi_IV(iv, 1.0, mkt)))) < 1e-12
    ok = conv_ok and ratio <= 0.5 and red_ok
    report(7, ok, f"delta1/IV1 100% and DIST<1e-12={conv_ok}, "
                  f"delta1/delta0 mean ratio={ratio:.2f}, rho=0 reduction={red_ok}")


def test_criterion_8_kalouptsidi():
    p = StaticDgpParams(n_products=250, n_draws=2)
    cfg = AccelConfig(tolerance=1e-13, max_evaluations=1000)
    all_ok = True
    worst_gap = 0.0
    for rep in range(50):
        rng = SeededRng(7, rep).generator()
        inst = gen_static_market(p, rng)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        dm, om = solve_inner(mkt, "kalouptsidi_mixed", cfg)
        d1, o1 = solve_inner(mkt, "delta1", cfg)
        all_ok &= om.converged and o1.converged
        all_ok &= dist_metric(dm, mkt) < 1e-12
        worst_gap = max(worst_gap, float(np.max(np.abs(dm - d1))))
    ok = all_ok and worst_gap < 1e-8
    report(8, ok, f"50 reps converged with DIST<1e-12={all_ok}, "
                  f"max |delta_mixed - delta_1|={worst_gap:.1e}")


def test_criterion_9_dynamic_perfect_foresight(dynamic_pf_results):
    import time
    res = dynamic_pf_results
    and_conv = all(r[1] for r in res["anderson"])
    and_dist = all(r[2] < 1e-12 for r in res["anderson"])
    mean_and = np.mean([r[0] for r in res["anderson"]])
    mean_plain = np.mean([r[0] for r in res["plain"]])
    ratio_ok = mean_and <= 0.4 * mean_plain
    conv_share_plain = np.mean([r[1] for r in res["plain"]])
    conv_share_joint = np.mean([r[1] for r in res["joint"]])
    joint_ok = conv_share_joint <= conv_share_plain
    bellman_ok = all(r[3] < 1e-10
                     for key in res for r in res[key] if r[1])
    ok = and_conv and and_dist and ratio_ok and joint_ok and bellman_ok
    report(9, ok, f"anderson conv={and_conv} dist_ok={and_dist} "
                  f"mean {mean_and:.0f} vs plain {mean_plain:.0f} "
                  f"(ratio {mean_and / mean_plain:.2f}), "
                  f"joint conv share {conv_share_joint:.2f} <= "
                  f"plain {conv_share_plain:.2f}={joint_ok}, "
                  f"bellman<1e-10={bellman_ok}")


def test_criterion_10_dynamic_ivs():
    reps = 20
    evals = {"plain": [], "anderson": []}
    conv = {"plain": [], "anderson": []}
    for rep in range(reps):
        rng = SeededRng(11, rep).generator()
        inst = gen_dynamic_market(DynamicDgpParams(horizon=25), rng)
        mkt = inst.with_theta(draw_theta(inst.theta_true, rng))
        for key, method in (("plain", "plain"), ("anderson", "anderson")):
            cfg = AccelConfig(method=method, tolerance=1e-12,
                              max_evaluations=3000)
            sol, o = ivs_solve(mkt, 1.0, IvsGrid(), cfg)
            evals[key].append(o.evaluations)
            conv[key].append(o.converged)
    and_conv = all(conv["anderson"])
    mean_and = np.mean(evals["anderson"])
    mean_plain = np.mean(evals["plain"])
    ratio_ok = mean_and <= 0.25 * mean_plain
    ok = and_conv and ratio_ok
    report(10, ok, f"anderson conv 100%={and_conv}, mean {mean_and:.0f} vs "
                   f"plain {mean_plain:.0f} (ratio {mean_and / mean_plain:.2f}); "
                   f"numerics invariants covered in test_numerics")


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(31337)
    methods = ("plain", "anderson", "spectral", "squarem")
    mappings = ("delta0", "delta1", "V0", "V1")
    worst = 0.0
    checked = 0
    for k in range(20):
        J = int(rng.integers(1, 4))
        I = int(rng.integers(1, 4))
        d_true = rng.normal(size=J)
        mu = rng.normal(size=(I, J))
        w = rng.random(I) + 0.3
        w /= w.sum()
        s_j, s_0, _ = logit_shares(d_true, mu, w)
        mkt = StaticMarket(s_j, 1.0 - s_j.sum(), mu, w)
        oracle = newton_invert(mkt.shares, mkt.mu, mkt.weights, tol=1e-14)
        for mapping in mappings:
            for method in methods:
                cfg = AccelConfig(method=method, tolerance=1e-14,
                                  max_evaluations=5000)
                d, out = solve_inner(mkt, mapping, cfg)
                assert out.converged, (mapping, method, k)
                worst = max(worst, float(np.max(np.abs(d - oracle))))
                checked += 1
        if I >= 2:
            d, out = solve_inner(mkt, "kalouptsidi_mixed",
                                 AccelConfig(tolerance=1e-14,
                                             max_evaluations=5000))
            assert out.converged
            worst = max(worst, float(np.max(np.abs(d - oracle))))
            checked += 1
    ok = worst < 1e-10
    report(11, ok, f"{checked} solver runs vs damped-Newton oracle, "
                   f"max gap={worst:.1e}")
