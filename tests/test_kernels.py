"""Exp-space share kernels against the log-space references in oracles.py.

Every kernel must agree with its reference to a relative 1e-13, or both must
be non-finite in the same entries, and must raise no RuntimeWarning. Log-type
outputs (mappings, inclusive values, delta) are compared relative to the
largest entry; static and nested shares, entry by entry. The dynamic
ownership paths, choice probabilities and shares are compared relative to
the largest entry too, and are exps of sums of mu, V and delta: where those
reach a size M, each rounding of an exponent moves the result by M * eps
relative in either kernel, so the durable cases allow max(1e-13, 8 M eps).
The static value-space mapping works in exp space on markets with at least
2^17 entries in mu and in log space below (see the README); the static cases
cover both sides of that cutoff and are held to the same references. The
durable forward pass and ownership path, which skip the floor where it binds
nowhere, must also equal bit for bit the loops in oracles.py that floor every
period.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from demandinv import dynamic, rcnl, static_rcl
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams, draw_theta,
                               gen_dynamic_market, gen_nested_market, gen_static_market)
from demandinv.dynamic import DurableMarket
from demandinv.rcnl import NestedMarket
from demandinv.static_rcl import MU_SPAN_LIMIT, StaticMarket

import oracles

RTOL = 1e-13


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def assert_agree(x, y, per_entry=False, rtol=RTOL):
    x, y = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    finite = np.isfinite(y)
    np.testing.assert_array_equal(np.isfinite(x), finite)
    gap = np.abs(x[finite] - y[finite])
    scale = np.abs(y[finite]) if per_entry else np.max(np.abs(y[finite]), initial=0.0)
    assert np.all(gap <= rtol * scale), np.max(gap / np.maximum(scale, 1e-300), initial=0.0)


def _simplex(rng, n):
    x = rng.random(n) + 0.1
    return x / x.sum()


def _random_static(seed, span=None, shape=None):
    """A random static market, I x J if shape is given; with span, every
    type's mu spans exactly that."""
    rng = np.random.default_rng(seed)
    I, J = shape or (int(rng.integers(1, 6)), int(rng.integers(2, 9)))
    mu = rng.normal(size=(I, J)) * 2.0
    if span is not None:
        mu = rng.random((I, J))
        mu[:, 0], mu[:, 1] = 0.0, 1.0
        mu = (mu - 0.5) * span
    s = _simplex(rng, J + 1)
    return StaticMarket(s[:J], s[J], mu, _simplex(rng, I)), rng


def _dgp_static():
    g = SeededRng(4, 0).generator()
    inst = gen_static_market(StaticDgpParams(n_products=250), g)
    return inst.with_theta(draw_theta(inst.theta_true, g))


STATIC_CASES = {
    **{f"random{k}": (lambda k=k: _random_static(k)[0], 0.0) for k in range(6)},
    "static_j250": (_dgp_static, 0.0),
    "delta+800": (lambda: _random_static(11)[0], 800.0),
    "delta-800": (lambda: _random_static(12)[0], -800.0),
    "span-near-limit": (lambda: _random_static(13, span=MU_SPAN_LIMIT - 10.0)[0], 0.0),
    # at or above the value mapping's exp-space cutoff, and just below it
    "static_j250+800": (_dgp_static, 800.0),
    "static_j250-800": (_dgp_static, -800.0),
    "span-near-limit-600x250": (
        lambda: _random_static(14, span=MU_SPAN_LIMIT - 10.0, shape=(600, 250))[0], 0.0),
    "below-cutoff-511x256": (lambda: _random_static(15, shape=(511, 256))[0], 0.0),
}
EXP_SPACE_CASES = {"static_j250", "static_j250+800", "static_j250-800",
                   "span-near-limit-600x250"}


def test_static_cases_cover_both_sides_of_the_exp_space_cutoff():
    exp_space = {case for case, (build, _) in STATIC_CASES.items()
                 if build().mu.size >= static_rcl._EXP_SPACE_MIN_SIZE}
    assert exp_space == EXP_SPACE_CASES


@pytest.mark.parametrize("case", sorted(STATIC_CASES))
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_static_kernels_match_the_log_space_reference(case, gamma):
    build, shift = STATIC_CASES[case]
    mkt = build()
    rng = np.random.default_rng(7)
    delta = static_rcl.initial_delta(mkt) + rng.normal(size=mkt.n_products) + shift
    s_j, s_0, s_ij = quiet(static_rcl.logit_shares, delta, mkt.mu, mkt.weights)
    o_j, o_0 = oracles.log_shares(delta, mkt.mu, mkt.weights)
    assert_agree(s_j, o_j, per_entry=True)
    assert_agree(s_0, o_0, per_entry=True)
    assert_agree(s_j, mkt.weights @ s_ij, per_entry=True)
    assert_agree(quiet(static_rcl.phi_delta, delta, gamma, mkt),
                 oracles.log_phi_delta(delta, gamma, mkt))
    V = quiet(static_rcl.iota_delta_to_V, delta, mkt)
    assert_agree(V, oracles.log_iota_delta_to_V(delta, mkt.mu))
    V = np.abs(V) + rng.random(mkt.n_types)
    assert_agree(quiet(static_rcl.iota_V_to_delta, V, gamma, mkt),
                 oracles.log_iota_V_to_delta(V, gamma, mkt))
    assert_agree(quiet(static_rcl.phi_V, V, gamma, mkt), oracles.log_phi_V(V, gamma, mkt))
    r = np.log(mkt.weights) - V
    assert_agree(quiet(static_rcl.iota_V_to_delta, np.log(mkt.weights) - r, 0.0, mkt),
                 oracles.log_kalouptsidi_delta_from_r(r, mkt))


def test_static_value_mapping_at_drifted_values():
    # Anderson on V0 can drift every V_i together to ~1e14 (see the README).
    # At gamma = 1 the outside correction cancels the drift: V' = O(1) comes
    # out of differences of ~1e14 in both kernels, so only gamma = 0 compares.
    mkt = _dgp_static()
    V = 1.23e14 + np.random.default_rng(3).normal(size=mkt.n_types)
    assert_agree(quiet(static_rcl.phi_V, V, 0.0, mkt), oracles.log_phi_V(V, 0.0, mkt))


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_delta_mappings_keep_log_s0_when_s0_underflows(gamma):
    # every utility ~900 above the outside option: s_0 ~ exp(-900) underflows
    # to 0 on the first evaluation, log s_0 does not
    mkt = StaticMarket([0.6], 0.4, [[900.0]], [1.0])
    delta = static_rcl.initial_delta(mkt)
    assert quiet(static_rcl.logit_shares, delta, mkt.mu, mkt.weights)[1] == 0.0
    assert_agree(quiet(static_rcl.phi_delta, delta, gamma, mkt),
                 oracles.log_phi_delta(delta, gamma, mkt))
    nested = NestedMarket(mkt, [0], 0.5)
    delta = rcnl.rcnl_initial_delta(nested)
    assert quiet(rcnl.rcnl_shares, delta, nested)[2] == 0.0
    assert_agree(quiet(rcnl.rcnl_phi_delta, delta, gamma, nested),
                 oracles.log_rcnl_phi_delta(delta, gamma, nested))


def _random_nested(seed, span=None):
    """A random nested market; with span, one nest with rho = 0.5 whose
    mu / (1 - rho) spans 2 * span."""
    mkt, rng = _random_static(seed, span)
    if span is not None:
        return NestedMarket(mkt, np.zeros(mkt.n_products, dtype=int), 0.5)
    n_nests = min(int(rng.integers(1, 4)), mkt.n_products)
    return NestedMarket(mkt, np.arange(mkt.n_products) % n_nests, rng.random(n_nests) * 0.9)


def _dgp_nested():
    g = SeededRng(7, 0).generator()
    inst = gen_nested_market(StaticDgpParams(n_products=75), g)
    return inst.with_theta(draw_theta(inst.theta_true, g))


NESTED_CASES = {
    **{f"random{k}": (lambda k=k: _random_nested(k), 0.0) for k in range(6)},
    "rcnl_j75": (_dgp_nested, 0.0),
    "delta+800": (lambda: _random_nested(11), 800.0),
    "delta-800": (lambda: _random_nested(12), -800.0),
    "span-near-limit": (lambda: _random_nested(13, span=(MU_SPAN_LIMIT - 10.0) * 0.5), 0.0),
}


@pytest.mark.parametrize("case", sorted(NESTED_CASES))
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_nested_kernels_match_the_log_space_reference(case, gamma):
    build, shift = NESTED_CASES[case]
    mkt = build()
    base = mkt.base
    rng = np.random.default_rng(8)
    delta = rcnl.rcnl_initial_delta(mkt) + rng.normal(size=base.n_products) + shift
    s_j, _, s_0, iv = quiet(rcnl.rcnl_shares, delta, mkt)
    o_j, o_0, o_iv = oracles.log_nested_shares(delta, base.mu, base.weights, mkt.groups,
                                               mkt.rho)
    assert_agree(s_j, o_j, per_entry=True)
    assert_agree(s_0, o_0, per_entry=True)
    assert_agree(iv, o_iv)
    assert_agree(quiet(rcnl.rcnl_phi_delta, delta, gamma, mkt),
                 oracles.log_rcnl_phi_delta(delta, gamma, mkt))
    iv = np.abs(o_iv) + rng.random(o_iv.shape)
    assert_agree(quiet(rcnl.rcnl_iota_IV_to_delta, iv, gamma, mkt),
                 oracles.log_rcnl_iota_IV_to_delta(iv, gamma, mkt))
    assert_agree(quiet(rcnl.rcnl_phi_IV, iv, gamma, mkt), oracles.log_rcnl_phi_IV(iv, gamma, mkt))
    # drifted values, as in test_static_value_mapping_at_drifted_values
    iv = 1.23e14 + rng.random(o_iv.shape)
    assert_agree(quiet(rcnl.rcnl_phi_IV, iv, 0.0, mkt), oracles.log_rcnl_phi_IV(iv, 0.0, mkt))


def _dgp_durable(horizon):
    g = SeededRng(11, 0).generator()
    inst = gen_dynamic_market(DynamicDgpParams(horizon=horizon), g)
    return inst.with_theta(draw_theta(inst.theta_true, g)), inst.solution_true.value


def _random_durable(seed, span):
    rng = np.random.default_rng(seed)
    I, J, T = 3, 4, 5
    mu = (rng.random((I, J, T)) - 0.5) * span
    mu[:, 0, :], mu[:, 1, :] = -0.5 * span, 0.5 * span
    s = np.column_stack([_simplex(rng, J + 1) for _ in range(T)])
    mkt = DurableMarket(s[:J], s[J], mu, _simplex(rng, I), beta=0.9)
    return mkt, rng.random((I, T)) * 5.0


def _durable_at_the_floor():
    """dynamic_t50's true V shifted by N(0, 5) per type: hundreds of the
    ownership fractions end at PR0_FLOOR, which a uniform shift never does."""
    mkt, V = _dgp_durable(50)
    return mkt, V + np.random.default_rng(0).normal(0.0, 5.0, size=(mkt.n_types, 1))


DURABLE_CASES = {
    "dynamic_t50": lambda: _dgp_durable(50),
    "dynamic_t50 V+N(0,5) per type": _durable_at_the_floor,
    "dynamic_t50 V+800": lambda: (lambda m, v: (m, v + 800.0))(*_dgp_durable(50)),
    "dynamic_t50 V-800": lambda: (lambda m, v: (m, v - 800.0))(*_dgp_durable(50)),
    "random": lambda: _random_durable(5, 6.0),
    "span-near-limit": lambda: _random_durable(6, MU_SPAN_LIMIT - 10.0),
}


@pytest.mark.parametrize("case", sorted(DURABLE_CASES))
def test_durable_kernels_match_the_log_space_reference(case):
    mkt, V = DURABLE_CASES[case]()
    em = dynamic._exp_mu_t(mkt)
    delta, omega, pr0 = quiet(dynamic._forward, V, mkt, em)
    o_delta, o_omega, o_pr0 = oracles.log_durable_forward(V, mkt)
    size = max(np.max(np.abs(a)) for a in (mkt.mu, V, o_delta))
    rtol = max(RTOL, 8.0 * size * np.finfo(float).eps)
    assert_agree(delta, o_delta)
    assert_agree(pr0, o_pr0, rtol=rtol)
    with np.errstate(over="ignore"):
        assert_agree(quiet(dynamic._ccp, delta, V, em),
                     np.exp(o_delta[None, :, :] + mkt.mu - V[:, None, :]), rtol=rtol)
    assert_agree(omega, o_omega)
    assert_agree(quiet(dynamic._omega_from_delta, delta, em), omega, rtol=0)
    pr0_at, s = quiet(dynamic._shares_at, delta, V, omega, mkt, em)
    assert_agree(pr0_at, o_pr0, rtol=rtol)
    assert_agree(s, oracles.log_durable_shares(delta, V, o_pr0, mkt), rtol=rtol)


def _durable_with_an_owner():
    """dynamic_t50 where type 3 starts as an owner (pr0_init 0)."""
    mkt, V = _dgp_durable(50)
    pr0_init = np.ones(mkt.n_types)
    pr0_init[3] = 0.0
    return replace(mkt, pr0_init=pr0_init), V


def _durable_with_a_nan():
    mkt, V = _dgp_durable(50)
    V = V.copy()
    V[2, 7] = np.nan
    return mkt, V


LOOP_CASES = {**DURABLE_CASES, "pr0_init with a 0": _durable_with_an_owner,
              "a NaN in V": _durable_with_a_nan}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_durable_kernels_keep_the_bits_of_the_period_loops(case):
    mkt, V = LOOP_CASES[case]()
    em = dynamic._exp_mu_t(mkt)
    forward = quiet(dynamic._forward, V, mkt, em)
    for got, want in zip(forward, oracles.loop_durable_forward(V, mkt, em)):
        np.testing.assert_array_equal(got, want)  # NaNs in the same entries
    omega = forward[1]
    pr0 = quiet(dynamic._pr0_path, omega, V, mkt)
    np.testing.assert_array_equal(pr0, oracles.loop_pr0_path(omega, V, mkt))
    if case == "pr0_init with a 0":
        for path in (forward[2], pr0):
            np.testing.assert_array_equal(path[:, 0], mkt.pr0_init)
            assert np.all(path[3, 1:] == dynamic.PR0_FLOOR)
    if case == "a NaN in V":
        assert np.isnan(forward[0]).any() and np.isnan(pr0).any()


def test_the_floor_case_reaches_the_floor():
    mkt, V = _durable_at_the_floor()
    _, _, pr0 = quiet(dynamic._forward, V, mkt, dynamic._exp_mu_t(mkt))
    assert np.sum(pr0 == dynamic.PR0_FLOOR) > 100
