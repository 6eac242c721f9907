"""Exp-space share kernels against the log-space references in oracles.py.

Every kernel must agree with its reference to a relative 1e-13, or both must
be non-finite in the same entries, and must raise no RuntimeWarning. Log-type
outputs (mappings, inclusive values, delta) are compared relative to the
largest entry; static and nested shares, entry by entry. The dynamic
ownership paths and shares are compared relative to the largest entry too, and are exps of sums of mu, V and delta: where those
reach a size M, each rounding of an exponent moves the result by M * eps
relative in either kernel, so the durable cases allow max(1e-13, 8 M eps).
The static value-space mapping works in exp space on markets with at least
2^17 entries in mu and in log space below (see the README); the static cases
cover both sides of that cutoff and are held to the same references. The
durable forward pass must also equal bit for bit its plain loop over periods
in oracles.py, and the ownership path, which skips the floor where it binds
nowhere, the loop that floors every period. Where the floor binds nowhere,
the pass's active mass w . pr0_t must be the product of pr0_init's mass and
the outside shares before t. The mapping that solve_inner and
rcnl_solve_inner build once per solve, evaluated under the error state of
accel.solve, must equal the public kernel bit for bit, and a short solve of
it must raise no warning: the built maps silence nothing themselves. The
nested kernels, which loop over nest-size classes, must equal bit for bit the
per-nest loops they replaced, kept in oracles.py.

A market's exp factorisation em is built once for all its solves and audits
that run back to back, and is held only for the last market and only while
that market lives: a solve on a warm slot must equal one on a cold slot bit
for bit.
The durable forward pass allocates its buffers once per solve: a reused
pass must keep the period loops' bits, and no image or solution may share
memory with the next evaluation.

The durable helpers are private and run, as in a solve, under accel.solve's
error state, which only the public functions enter: every public kernel must
raise no warning where its arithmetic overflows, and no private or nested
function of the package may enter np.errstate. Every public entry that takes
a gamma, and the joint solve its phi, must reject a bad one before any
evaluation.
"""

import ast
import gc
import threading
import warnings
import weakref
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from demandinv import accel, dynamic, rcnl, static_rcl
from demandinv.accel import METHODS, AccelConfig, SolveOutcome
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams, draw_theta,
                               gen_dynamic_market, gen_nested_market, gen_static_market,
                               large_heterogeneity_market)
from demandinv.dynamic import DurableMarket
from demandinv.numerics import logsumexp
from demandinv.rcnl import NestedMarket
from demandinv.static_rcl import MU_SPAN_LIMIT, StaticMarket

import oracles

RTOL = 1e-13


def quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def in_solve(fn, *args):
    """quiet(fn, *args) under the error state that accel.solve evaluates a
    mapping in."""
    with np.errstate(**accel.SOLVE_ERRSTATE):
        return quiet(fn, *args)


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


def assert_same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert (x.dtype, x.shape) == (y.dtype, y.shape)
    assert x.tobytes() == y.tobytes(), np.max(np.abs(x - y))


def _renested(seed, nest_of, rho, n_types=257):
    base = _random_static(seed, shape=(n_types, len(nest_of)))[0]
    return NestedMarket(base, np.asarray(nest_of), rho)


def _random_classes(seed):
    """A random nested market of up to 1200 types and 90 products in up to six
    nests of random sizes, the nest ids shuffled across the products."""
    rng = np.random.default_rng(seed)
    I, J = int(rng.integers(1, 1201)), int(rng.integers(1, 91))
    G = int(rng.integers(1, min(6, J) + 1))
    nest_of = np.concatenate([np.arange(G), rng.integers(0, G, J - G)])
    rng.shuffle(nest_of)
    rho = rng.random(G) * 0.9
    rho[rng.integers(G)] *= seed % 2  # rho = 0 in one nest of every other market
    return _renested(seed, nest_of, rho, n_types=I)


# markets whose nests fall into several size classes, beside NESTED_CASES
CLASS_CASES = {
    # nests of 1, 3, 3 and 5 products: three classes, one a singleton nest
    "three-classes": lambda: _renested(21, [2, 0, 3, 1, 2, 3, 1, 3, 2, 3, 1, 3],
                                       [0.3, 0.6, 0.1, 0.8]),
    "interleaved-19-19-19-18": lambda: _renested(22, np.arange(75) % 4, 0.5, n_types=1000),
    "one-nest": lambda: _renested(23, np.zeros(40, dtype=int), 0.7),
    "rho0-in-one-nest": lambda: _renested(24, np.arange(30) % 3, [0.0, 0.4, 0.8]),
    **{case: build for case, (build, _) in NESTED_CASES.items()},
}


@np.errstate(all="ignore")
def assert_per_nest_bits(mkt, rng):
    """The kernels over size classes equal, bit for bit, the per-nest loops
    in oracles.py at deltas shifted by 0 and +-800 and at inclusive values
    around 1 and drifted to 1.23e14. Shares that underflow there may give
    infinities and NaNs (0 * inf at rho = 0), so warnings are off and only
    bits count."""
    base, groups, rho = mkt.base, mkt.groups, mkt.rho
    em = oracles.per_nest_exp_mu(base.mu, groups, rho)
    for shift in (0.0, 800.0, -800.0):
        delta = rcnl.rcnl_initial_delta(mkt) + rng.normal(size=base.n_products) + shift
        want = oracles.per_nest_shares(delta, base.weights, groups, rho, em)
        for got, bits in zip(rcnl.rcnl_shares(delta, mkt), want):
            assert_same_bits(got, bits)
        assert_same_bits(rcnl.rcnl_iota_delta_to_IV(delta, mkt), want[3])
        for gamma in (0.0, 1.0):
            assert_same_bits(rcnl.rcnl_phi_delta(delta, gamma, mkt),
                             oracles.per_nest_phi_delta_map(mkt, gamma, em)(delta))
    for iv in (np.abs(want[3]) + rng.random(want[3].shape),
               1.23e14 + rng.random(want[3].shape)):
        for gamma in (0.0, 1.0):
            to_delta = oracles.per_nest_iota_IV_to_delta_map(mkt, gamma, em)
            assert_same_bits(rcnl.rcnl_iota_IV_to_delta(iv, gamma, mkt), to_delta(iv))
            assert_same_bits(rcnl.rcnl_phi_IV(iv, gamma, mkt),
                             oracles.per_nest_within(to_delta(iv), groups, rho, em)[0].T)


@pytest.mark.parametrize("case", sorted(CLASS_CASES))
def test_size_class_kernels_equal_the_per_nest_loops_bit_for_bit(case):
    assert_per_nest_bits(CLASS_CASES[case](), np.random.default_rng(9))


def test_size_classes_of_the_cases():
    sizes = {case: sorted({idx.size for idx in build().groups})
             for case, build in CLASS_CASES.items()}
    assert sizes["three-classes"] == [1, 3, 5]
    assert sizes["interleaved-19-19-19-18"] == [18, 19]
    assert CLASS_CASES["one-nest"]().n_nests == 1
    assert 0.0 in CLASS_CASES["rho0-in-one-nest"]().rho


@pytest.mark.parametrize("block", range(4))
def test_size_class_kernels_equal_the_per_nest_loops_on_random_markets(block):
    for seed in range(50 * block, 50 * block + 50):
        assert_per_nest_bits(_random_classes(seed), np.random.default_rng(seed))


@pytest.mark.parametrize("I", [1, 2, 7, 8, 9, 100, 1000, 4097])
def test_the_outside_log_sum_equals_logsumexp_on_the_column(I):
    # numpy adds fewer than 8 entries one by one and more in pairwise blocks
    rng = np.random.default_rng(I)
    for draw in range(20):
        w = _simplex(rng, I)
        if draw % 2 and I > 1:  # zero weights
            w[rng.random(I) < 0.5] = 0.0
            w[rng.integers(I)] = 1.0
            w /= w.sum()
        base = rng.normal(size=I) * 3.0
        for V in (base, base + 800.0, base - 800.0, base + 1e14):
            want = logsumexp((-V)[:, None], 0, w)[0]
            assert_same_bits(quiet(static_rcl._log_s0, V, w), want)


def _count_calls(monkeypatch, module, name):
    """A list that grows by one at each call of module.name from now on."""
    calls, build = [], getattr(module, name)

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _built_map(monkeypatch, module, entry, mkt, mapping):
    """(FixedPointMap, start point) that entry builds for mapping, left
    unevaluated."""
    built = []

    def no_solve(fp, x0, cfg):
        built.append((fp, x0))
        return SolveOutcome(x0, False, 0, "max_evaluations", np.inf)

    with monkeypatch.context() as m:
        m.setattr(module, "solve", no_solve)
        entry(mkt, mapping, AccelConfig())
    (fp, x0), = built
    return fp, x0


def _static_reference(mkt, mapping):
    """The public static kernel that mapping iterates."""
    gamma = 1.0 if mapping.endswith("1") else 0.0
    if mapping.startswith("V"):
        return lambda V: static_rcl.phi_V(V, gamma, mkt)
    if mapping.startswith("delta"):
        return lambda d: static_rcl.phi_delta(d, gamma, mkt)
    if mapping == "kalouptsidi_tilde":
        return lambda rt: static_rcl.kalouptsidi_Ftilde(rt, mkt)

    def mixed(r):  # a fresh map latches at its first non-finite F
        out = static_rcl.kalouptsidi_F(r, mkt)
        if np.all(np.isfinite(out)):
            return out
        rt = static_rcl.kalouptsidi_Ftilde(r[:-1] - r[-1], mkt)
        return static_rcl._r_from_r_tilde(rt, mkt)
    return mixed


# V at the start, shifted by +-800 and drifted to 1e14; the Kalouptsidi
# mappings iterate on r = log w - V
V_SHIFTS = (0.0, 800.0, -800.0, 1e14)


def assert_solves_quietly(fp, x):
    """accel.solve raises no warning on fp from x with 3 evaluations, by each
    method: the built maps silence nothing themselves, the solve does."""
    for method in METHODS:
        quiet(accel.solve, fp, x, AccelConfig(method=method, max_evaluations=3))


@pytest.mark.parametrize("case", sorted(STATIC_CASES))
@pytest.mark.parametrize("mapping", static_rcl.MAPPINGS)
def test_solve_inner_iterates_the_public_kernel_bit_for_bit(case, mapping, monkeypatch):
    mkt = STATIC_CASES[case][0]()
    if mapping == "kalouptsidi_tilde" and mkt.n_types < 2:
        with pytest.raises(ValueError, match="at least two types"):
            static_rcl.solve_inner(mkt, mapping, AccelConfig())
        return
    reference = _static_reference(mkt, mapping)
    sign = -1.0 if mapping.startswith("kalouptsidi") else 1.0
    builds = _count_calls(monkeypatch, static_rcl, "exp_mu")
    for shift in V_SHIFTS:
        fp, x0 = _built_map(monkeypatch, static_rcl, static_rcl.solve_inner, mkt, mapping)
        x = x0 + sign * shift
        assert_same_bits(in_solve(fp.evaluate, x), quiet(reference, x))
        assert_solves_quietly(fp, x)
    assert len(builds) == 1  # the solves and the public kernels share one build


@pytest.mark.parametrize("case", sorted(NESTED_CASES))
@pytest.mark.parametrize("mapping", rcnl.RCNL_MAPPINGS)
def test_rcnl_solve_inner_iterates_the_public_kernel_bit_for_bit(case, mapping, monkeypatch):
    mkt = NESTED_CASES[case][0]()
    gamma = 1.0 if mapping.endswith("1") else 0.0
    builds = _count_calls(monkeypatch, rcnl, "nest_exp_mu")
    fp, x0 = _built_map(monkeypatch, rcnl, rcnl.rcnl_solve_inner, mkt, mapping)
    shape = (mkt.base.n_types, mkt.n_nests)
    for shift in V_SHIFTS:
        x = x0 + shift
        if mapping.startswith("IV"):
            want = quiet(rcnl.rcnl_phi_IV, x.reshape(shape), gamma, mkt).ravel()
        else:
            want = quiet(rcnl.rcnl_phi_delta, x, gamma, mkt)
        assert_same_bits(in_solve(fp.evaluate, x), want)
        assert_solves_quietly(fp, x)
    assert len(builds) == 1


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
    delta, omega, pr0 = in_solve(dynamic._forward_pass(mkt, em), V)
    o_delta, o_omega, o_pr0 = oracles.log_durable_forward(V, mkt)
    size = max(np.max(np.abs(a)) for a in (mkt.mu, V, o_delta))
    rtol = max(RTOL, 8.0 * size * np.finfo(float).eps)
    assert_agree(delta, o_delta)
    assert_agree(pr0, o_pr0, rtol=rtol)
    assert_agree(omega, o_omega)
    assert_agree(in_solve(dynamic._omega_from_delta, delta, em), omega)
    pr0_at, s = in_solve(dynamic._shares_at, delta, V, omega, mkt, em)
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


def _one_period_with_an_owner():
    """The first period of _durable_with_an_owner: no pr0_{t+1} lies below
    the floor, so the unfloored run stands, with the floored run's bits."""
    mkt, V = _durable_with_an_owner()
    return DurableMarket(mkt.shares[:, :1], mkt.outside_shares[:1], mkt.mu[:, :, :1],
                         mkt.weights, mkt.beta, mkt.pr0_init), V[:, :1]


LOOP_CASES = {**DURABLE_CASES, "pr0_init with a 0": _durable_with_an_owner,
              "one period, pr0_init with a 0": _one_period_with_an_owner,
              "a NaN in V": _durable_with_a_nan}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_durable_kernels_keep_the_bits_of_the_period_loops(case):
    mkt, V = LOOP_CASES[case]()
    em = dynamic._exp_mu_t(mkt)
    forward = in_solve(dynamic._forward_pass(mkt, em), V)
    for got, want in zip(forward, oracles.loop_durable_forward(V, mkt, em)):
        np.testing.assert_array_equal(got, want)  # NaNs in the same entries
    omega = forward[1]
    pr0 = in_solve(dynamic._pr0_path, omega, V, mkt)
    np.testing.assert_array_equal(pr0, oracles.loop_pr0_path(omega, V, mkt))
    if case == "pr0_init with a 0":
        for path in (forward[2], pr0):
            np.testing.assert_array_equal(path[:, 0], mkt.pr0_init)
            assert np.all(path[3, 1:] == dynamic.PR0_FLOOR)
    if case == "a NaN in V":
        assert np.isnan(forward[0]).any() and np.isnan(pr0).any()


def test_the_floor_case_reaches_the_floor():
    mkt, V = _durable_at_the_floor()
    _, _, pr0 = in_solve(dynamic._forward_pass(mkt, dynamic._exp_mu_t(mkt)), V)
    assert np.sum(pr0 == dynamic.PR0_FLOOR) > 100


@pytest.mark.parametrize("sigma", [0.1, 0.3, 1.0])
def test_the_active_mass_is_the_product_of_the_outside_shares(sigma):
    # exactly the consumers who choose the outside option stay active, so
    # w . pr0_{t+1} = (w . pr0_t) S0_t wherever the floor binds nowhere
    mkt, V = _dgp_durable(50)
    V = V + np.random.default_rng(1).normal(0.0, sigma, size=V.shape)
    _, _, pr0 = in_solve(dynamic._forward_pass(mkt, dynamic._exp_mu_t(mkt)), V)
    assert np.all(pr0 > dynamic.PR0_FLOOR)
    mass = (mkt.weights @ mkt.pr0_init) * np.cumprod(np.r_[1.0, mkt.outside_shares[:-1]])
    assert_agree(mkt.weights @ pr0, mass, per_entry=True, rtol=1e-14)


def test_the_pass_matches_the_inside_shares_when_the_outside_shares_are_off():
    # the constructor accepts outside shares up to 1e-12 away from 1 - sum_j
    # S_jt; the active mass follows the inside shares, which delta matches
    mkt, V = _dgp_durable(50)
    mkt = replace(mkt, outside_shares=mkt.outside_shares + 5e-13)
    em = dynamic._exp_mu_t(mkt)
    delta, omega, _ = in_solve(dynamic._forward_pass(mkt, em), V)
    _, s = in_solve(dynamic._shares_at, delta, V, omega, mkt, em)
    assert_agree(s, mkt.shares, per_entry=True)


@pytest.mark.parametrize("case", ["dynamic_t50 V+N(0,5) per type", "pr0_init with a 0",
                                  "a NaN in V"])
def test_a_reused_forward_pass_keeps_the_bits_of_the_period_loops(case):
    # one forward pass, as a solve builds it, alternates between the case's V
    # (the floored re-run, a floored start, NaN) and the truth, where the
    # floor binds nowhere
    mkt, V = LOOP_CASES[case]()
    em = dynamic._exp_mu_t(mkt)
    forward = dynamic._forward_pass(mkt, em)
    for V_k in (_dgp_durable(50)[1], V, _dgp_durable(50)[1], V):
        got = in_solve(forward, V_k)
        for g, want in zip(got, oracles.loop_durable_forward(V_k, mkt, em)):
            np.testing.assert_array_equal(g, want)


# ---------------------------------------------------------------------------
# One exp factorisation per market


def _small_static(seed=4, n_products=25):
    g = SeededRng(seed, 0).generator()
    inst = gen_static_market(StaticDgpParams(n_products=n_products, n_draws=200), g)
    return inst.with_theta(draw_theta(inst.theta_true, g))


def _small_nested():
    g = SeededRng(5, 0).generator()
    inst = gen_nested_market(StaticDgpParams(n_products=24, n_draws=200), g)
    return inst.with_theta(draw_theta(inst.theta_true, g))


def _small_durable(seed=11):
    g = SeededRng(seed, 0).generator()
    inst = gen_dynamic_market(DynamicDgpParams(n_products=5, n_draws=10, horizon=8), g)
    return inst.with_theta(draw_theta(inst.theta_true, g))


EM_CFG = AccelConfig(max_evaluations=300)

# per market: its builder, the module whose exp_mu (nest_exp_mu for the
# nested market) builds its factorisation, its solves and the audit of a
# solve's first return value
EM_CASES = {
    "static": (_small_static, static_rcl,
               [lambda mkt, m=m: static_rcl.solve_inner(mkt, m, EM_CFG)
                for m in static_rcl.MAPPINGS],
               static_rcl.dist_metric),
    "nested": (_small_nested, rcnl,
               [lambda mkt, m=m: rcnl.rcnl_solve_inner(mkt, m, EM_CFG)
                for m in rcnl.RCNL_MAPPINGS],
               rcnl.rcnl_dist_metric),
    "durable": (_small_durable, dynamic,
                [lambda mkt: dynamic.pf_solve(mkt, 1.0, EM_CFG),
                 lambda mkt: dynamic.traditional_joint_solve(mkt, 1.0, 1.0, EM_CFG),
                 lambda mkt: dynamic.ivs_solve(mkt, 1.0, dynamic.IvsGrid(), EM_CFG)],
                dynamic.bellman_residual),
}


def _cold_em():
    static_rcl._last_em = (None, None)


def _em_run(case, mkt, cold=False):
    """Each solve of mkt and its audit, on a cold slot if cold, as the bytes
    of the first return value, the point, the evaluations, the termination,
    the residual history and the audit."""
    _, _, solves, audit = EM_CASES[case]
    out = []
    for solve in solves:
        if cold:
            _cold_em()
        first, outcome = solve(mkt)
        value = first.value if isinstance(first, dynamic.DurableSolution) else first
        out.append((value.tobytes(), outcome.point.tobytes(), outcome.evaluations,
                    outcome.termination, np.asarray(outcome.residual_history).tobytes(),
                    np.float64(audit(first, mkt)).tobytes()))
    return out


@pytest.mark.parametrize("case", sorted(EM_CASES))
def test_solves_and_audits_of_one_market_build_em_once(case, monkeypatch):
    build, module, _, _ = EM_CASES[case]
    mkt = build()
    want = _em_run(case, mkt, cold=True)
    _cold_em()
    calls = _count_calls(monkeypatch, module, "nest_exp_mu" if case == "nested" else "exp_mu")
    assert _em_run(case, mkt) == want
    assert len(calls) == 1


def test_same_shape_markets_solved_alternately_get_their_own_em():
    markets = [_small_static(4), _small_static(6)]
    assert markets[0].mu.shape == markets[1].mu.shape
    want = [_em_run("static", mkt, cold=True) for mkt in markets]
    for _ in range(2):
        for mkt, bits in zip(markets, want):
            a, E = static_rcl._em(mkt)
            fresh = static_rcl.exp_mu(mkt.mu)
            assert a.tobytes() == fresh[0].tobytes() and E.tobytes() == fresh[1].tobytes()
            assert _em_run("static", mkt) == bits


@pytest.mark.parametrize("case", sorted(EM_CASES))
def test_em_arrays_are_read_only(case):
    mkt = EM_CASES[case][0]()
    em = {"static": static_rcl._em, "nested": rcnl._em, "durable": dynamic._exp_mu_t}[case](mkt)
    arrays = [x for part in (em if case == "nested" else (em,)) for x in part]
    assert len(arrays) == (5 if case == "nested" else 2)  # the nested market's one size class
    for x in arrays:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0


def test_em_dies_with_its_market():
    mkt = _small_static()
    E = weakref.ref(static_rcl._em(mkt)[1])
    static_rcl.dist_metric(static_rcl.initial_delta(mkt), mkt)
    assert E() is not None
    del mkt
    gc.collect()
    assert E() is None
    assert static_rcl._last_em == (None, None)


def _in_two_threads(case, markets, serial, rounds=4):
    """Solve markets[k] rounds times in thread k; each run must equal serial[k]."""
    got = [[], []]
    start = threading.Barrier(2)

    def work(k):
        start.wait()
        for _ in range(rounds):
            got[k].append(_em_run(case, markets[k]))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in range(2):
        assert got[k] == [serial[k]] * rounds


def test_two_threads_solving_two_markets_reproduce_the_serial_bits():
    markets = [_small_static(4, n_products=10), _small_static(6, n_products=10)]
    _in_two_threads("static", markets, [_em_run("static", mkt, cold=True) for mkt in markets])


def test_two_durable_markets_solved_alternately_and_in_two_threads_keep_their_bits():
    # each solve has a forward pass of its own: pf_solve, the joint solve
    # and ivs_solve of one market never see the other's buffers
    markets = [_small_durable(11), _small_durable(12)]
    serial = [_em_run("durable", mkt, cold=True) for mkt in markets]
    for _ in range(2):
        for mkt, bits in zip(markets, serial):
            assert _em_run("durable", mkt) == bits
    _in_two_threads("durable", markets, serial, rounds=2)


def _arrays(obj):
    """Every array field of a DurableSolution and of its IvsState."""
    values = [getattr(obj, f.name) for f in fields(obj)]
    return ([v for v in values if isinstance(v, np.ndarray)]
            + [a for v in values if is_dataclass(v) for a in _arrays(v)])


@pytest.mark.parametrize("entry", ["pf_solve", "ivs_solve"])
def test_no_image_or_solution_shares_memory_with_the_next_evaluation(entry, monkeypatch):
    """The forward pass's buffers live for the whole solve; what leaves an
    evaluation (the image) or the solve (the solution) must not be them."""
    mkt = _small_durable()
    images, built, passes = [], [], []

    def recording_solve(fp, x0, cfg):
        def evaluate(x):
            images.append(fp.evaluate(x))
            return images[-1]
        built.append(fp)
        return accel.solve(accel.FixedPointMap(evaluate), x0, cfg)

    build_pass = dynamic._forward_pass

    def recording_pass(market, em):
        passes.append(build_pass(market, em))
        return passes[-1]

    monkeypatch.setattr(dynamic, "solve", recording_solve)
    monkeypatch.setattr(dynamic, "_forward_pass", recording_pass)
    cfg = AccelConfig(method="anderson", max_evaluations=40)
    if entry == "pf_solve":
        sol, outcome = dynamic.pf_solve(mkt, 1.0, cfg)
    else:
        sol, outcome = dynamic.ivs_solve(mkt, 1.0, dynamic.IvsGrid(), cfg)
    (fp,), (forward,) = built, passes
    kept = _arrays(sol)
    assert outcome.evaluations == len(images) > 2
    assert (sol.ivs is not None) == (entry == "ivs_solve")
    before = [a.tobytes() for a in kept + images]
    for image, after in zip(images, images[1:]):
        assert not np.shares_memory(image, after)
    # the next evaluation, and the forward pass it runs, at the solve's point
    V = outcome.point[:mkt.n_types * mkt.horizon].reshape(mkt.n_types, mkt.horizon)
    nxt = [fp.evaluate(outcome.point), *forward(V)]
    for a in kept + images:
        for b in nxt:
            assert not np.shares_memory(a, b)
    assert [a.tobytes() for a in kept + images] == before


# ---------------------------------------------------------------------------
# Bad gamma and phi, rejected at entry


GAMMA_ENTRIES = {
    "pf_solve": lambda g: dynamic.pf_solve(_small_durable(), g, AccelConfig()),
    "traditional_joint_solve":
        lambda g: dynamic.traditional_joint_solve(_small_durable(), g, 1.0, AccelConfig()),
    "ivs_solve": lambda g: dynamic.ivs_solve(_small_durable(), g, dynamic.IvsGrid(),
                                             AccelConfig()),
    "pf_value_update": lambda g: dynamic.pf_value_update(np.zeros((10, 8)), np.zeros((5, 8)),
                                                         g, _small_durable()),
    "phi_delta": lambda g: static_rcl.phi_delta(np.zeros(2), g, _large_hetero()),
    "iota_V_to_delta": lambda g: static_rcl.iota_V_to_delta(np.zeros(2), g, _large_hetero()),
    "phi_V": lambda g: static_rcl.phi_V(np.zeros(2), g, _large_hetero()),
    "rcnl_phi_delta": lambda g: rcnl.rcnl_phi_delta(np.zeros(6), g, _nested6()),
    "rcnl_iota_IV_to_delta":
        lambda g: rcnl.rcnl_iota_IV_to_delta(np.zeros((1000, 3)), g, _nested6()),
    "rcnl_phi_IV": lambda g: rcnl.rcnl_phi_IV(np.zeros((1000, 3)), g, _nested6()),
}


def _no_solve(*args):
    raise AssertionError("the mapping was solved")


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, True, "1", None], ids=repr)
@pytest.mark.parametrize("entry", sorted(GAMMA_ENTRIES))
def test_a_gamma_that_is_not_a_finite_real_is_rejected_before_any_evaluation(entry, gamma,
                                                                           monkeypatch):
    # a NaN or infinite gamma used to end a durable solve non_finite after
    # one evaluation, True ran as 1, and "1" and None raised numpy errors
    # mid-evaluation
    monkeypatch.setattr(dynamic, "solve", _no_solve)
    with pytest.raises(ValueError, match="gamma must be a finite real"):
        GAMMA_ENTRIES[entry](gamma)


@pytest.mark.parametrize("phi", [np.nan, np.inf, 0.0, -1.0, True, "1", None], ids=repr)
def test_the_joint_solve_rejects_a_phi_that_is_not_a_finite_positive_real(phi, monkeypatch):
    monkeypatch.setattr(dynamic, "solve", _no_solve)
    with pytest.raises(ValueError, match="phi must be a finite positive real"):
        dynamic.traditional_joint_solve(_small_durable(), 1.0, phi, AccelConfig())


# ---------------------------------------------------------------------------
# One error state, entered by the public functions only


def _wide_delta(n):
    """+-1e308 in turn: differences of the entries overflow."""
    return np.where(np.arange(n) % 2 == 0, 1e308, -1e308)


def _large_hetero():
    return large_heterogeneity_market()[0]


def _nested6():
    return gen_nested_market(StaticDgpParams(n_products=6), SeededRng(1, 0).generator()).market


# every public kernel at points where its arithmetic overflows or divides by 0
OVERFLOWING_CALLS = {
    "logit_shares": lambda: static_rcl.logit_shares(_wide_delta(2), _large_hetero().mu,
                                                     _large_hetero().weights),
    "phi_delta": lambda: static_rcl.phi_delta(_wide_delta(2), 1.0, _large_hetero()),
    "iota_delta_to_V": lambda: static_rcl.iota_delta_to_V(_wide_delta(2), _large_hetero()),
    "iota_V_to_delta": lambda: static_rcl.iota_V_to_delta(_wide_delta(2), 1.0, _large_hetero()),
    "phi_V": lambda: static_rcl.phi_V(_wide_delta(2), 1.0, _large_hetero()),
    "dist_metric": lambda: static_rcl.dist_metric(_wide_delta(2), _large_hetero()),
    "kalouptsidi_F": lambda: static_rcl.kalouptsidi_F(_wide_delta(2), _large_hetero()),
    "kalouptsidi_Ftilde":
        lambda: static_rcl.kalouptsidi_Ftilde(_wide_delta(1), _large_hetero()),
    "nested_shares": lambda: (lambda m: rcnl.nested_shares(
        np.full(6, 1e308), m.base.mu, m.base.weights, m.nest_of, m.rho))(_nested6()),
    "rcnl_shares": lambda: rcnl.rcnl_shares(np.full(6, 1e308), _nested6()),
    "rcnl_phi_delta": lambda: rcnl.rcnl_phi_delta(np.full(6, 1e308), 1.0, _nested6()),
    "rcnl_iota_delta_to_IV": lambda: rcnl.rcnl_iota_delta_to_IV(np.full(6, 1e308), _nested6()),
    "rcnl_iota_IV_to_delta": lambda: (lambda m: rcnl.rcnl_iota_IV_to_delta(
        np.full((m.base.n_types, m.n_nests), 1e308), 1.0, m))(_nested6()),
    "rcnl_phi_IV": lambda: (lambda m: rcnl.rcnl_phi_IV(
        np.full((m.base.n_types, m.n_nests), 1e308), 1.0, m))(_nested6()),
    "rcnl_dist_metric": lambda: rcnl.rcnl_dist_metric(np.full(6, 1e308), _nested6()),
    "pf_value_update": lambda: dynamic.pf_value_update(
        _wide_delta(8) * np.ones((10, 1)), _wide_delta(8) * np.ones((5, 1)), 0.0,
        _small_durable()),
}


@pytest.mark.parametrize("kernel", sorted(OVERFLOWING_CALLS))
def test_public_kernels_raise_no_warning_where_their_arithmetic_overflows(kernel):
    quiet(OVERFLOWING_CALLS[kernel])


def _errstate_owners(tree):
    """(qualified name, hidden) of every function that enters np.errstate, by
    `with` or by decorator; hidden if it or an enclosing class or function is
    private (a leading underscore, dunders aside) or it is nested in a
    function."""
    found = []

    def enters(expr):
        func = getattr(expr, "func", None)
        return isinstance(expr, ast.Call) and (
            getattr(func, "attr", None) or getattr(func, "id", None)) == "errstate"

    def visit(node, qualname, owner, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                hidden = in_function or any(part.startswith("_") and not part.endswith("__")
                                            for part in name.split("."))
                if isinstance(child, ast.ClassDef):
                    visit(child, name, None, in_function)
                    continue
                if any(enters(d) for d in child.decorator_list):
                    found.append((name, hidden))
                visit(child, name, (name, hidden), True)
                continue
            if isinstance(child, (ast.With, ast.AsyncWith)) and owner is not None \
                    and any(enters(item.context_expr) for item in child.items):
                found.append(owner)
            visit(child, qualname, owner, in_function)
    visit(tree, "", None, False)
    return found


def test_no_private_or_nested_function_enters_an_error_state():
    # warnings are silenced once, by the public entry or by accel.solve: a
    # private helper or a built mapping that entered its own error state
    # would do so once per evaluation
    owners = []
    for path in sorted(Path(static_rcl.__file__).parent.glob("*.py")):
        owners += [(f"{path.stem}.{name}", hidden)
                   for name, hidden in _errstate_owners(ast.parse(path.read_text()))]
    assert [name for name, hidden in owners if hidden] == []
    assert {"accel.solve", "dynamic.pf_solve", "static_rcl.phi_delta"} <= {
        name for name, _ in owners}


def test_the_error_state_scan_sees_private_and_nested_functions():
    source = '''
@np.errstate(all="ignore")
def public():
    def nested():
        with np.errstate(over="ignore"):
            pass

def _private():
    with np.errstate(invalid="ignore"):
        pass

class _Hidden:
    def method(self):
        with errstate(divide="ignore"):
            pass

class Shown:
    def __init__(self):
        with np.errstate(over="ignore"):
            pass
'''
    assert _errstate_owners(ast.parse(source)) == [
        ("public", False), ("public.nested", True), ("_private", True),
        ("_Hidden.method", True), ("Shown.__init__", False)]
