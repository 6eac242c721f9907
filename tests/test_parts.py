"""The value mapping's kernels read each part of mu alone, in the caller's thread.

Type i's inclusive value from iota_delta_to_V reads row i of mu, and product
j's delta from iota_V_to_delta reads column j. On markets below the exp-space
cutoff (log space) that holds bit for bit: these tests cut a market's rows or
columns into parts, change mu outside one part, and compare that part of each
output with the whole market's. They also check that the kernels run under the
caller's numpy error state, that a forked child computes what its parent does,
and that solving a market starts no thread.
"""

import multiprocessing
import threading
import warnings

import numpy as np
import pytest

from demandinv import static_rcl
from demandinv.accel import AccelConfig
from demandinv.datagen import (SeededRng, StaticDgpParams, draw_theta, gen_static_market,
                               large_heterogeneity_market)
from demandinv.static_rcl import StaticMarket, iota_delta_to_V, iota_V_to_delta, phi_V


def random_market(I, J, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.random(J + 1) + 0.1
    w = rng.random(I) + 0.1
    return StaticMarket(s[:J] / s.sum(), s[J] / s.sum(), 2.0 * rng.normal(size=(I, J)),
                        w / w.sum())


def with_mu(mkt, mu):
    return StaticMarket(mkt.shares, mkt.outside_share, mu, mkt.weights)


SHAPES = [(1, 9), (9, 1), (2, 2), (9, 5), (13, 2), (4, 250), (31, 17)]


@pytest.mark.parametrize("I, J", SHAPES)
@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e3, 1.23e14])
def test_split_kernels_equal_one_part_bit_for_bit(I, J, parts, gamma, scale):
    mkt = random_market(I, J, seed=I * 100 + J)
    assert mkt.mu.size < static_rcl._EXP_SPACE_MIN_SIZE
    other = random_market(I, J, seed=I * 100 + J + 1).mu
    V = scale + np.random.default_rng(J).normal(size=I) * (1.0 if scale > 1e3 else scale)
    delta = iota_V_to_delta(V, gamma, mkt)
    V2 = iota_delta_to_V(delta, mkt)
    assert np.array_equal(phi_V(V, gamma, mkt), V2)
    assert max(min(I, parts), min(J, parts)) > 1
    for rows in np.array_split(np.arange(I), min(I, parts)):
        mu = other.copy()
        mu[rows] = mkt.mu[rows]
        assert np.array_equal(iota_delta_to_V(delta, with_mu(mkt, mu))[rows], V2[rows])
    for cols in np.array_split(np.arange(J), min(J, parts)):
        mu = other.copy()
        mu[:, cols] = mkt.mu[:, cols]
        assert np.array_equal(iota_V_to_delta(V, gamma, with_mu(mkt, mu))[cols], delta[cols])


def _underflow_case(kernel, underflows):
    """A call of one kernel whose exp underflows in rows 3-5 (kernel "rows",
    iota_delta_to_V) or columns 2-3 (kernel "columns", iota_V_to_delta)
    exactly when underflows."""
    mu = np.zeros((6, 4))
    if kernel == "rows":  # u = delta + mu spans 800 in rows 3-5
        mu[3:, 0] = -700.0
        mkt = with_mu(random_market(6, 4), mu)
        delta = np.array([-100.0 if underflows else 0.0, 0.0, 0.0, 0.0])
        return lambda: iota_delta_to_V(delta, mkt)
    mu[1, 2:] = -700.0  # mu - V spans 800 in columns 2-3
    mkt = with_mu(random_market(6, 4), mu)
    V = np.array([0.0, 100.0 if underflows else 0.0, 0.0, 0.0, 0.0, 0.0])
    return lambda: iota_V_to_delta(V, 1.0, mkt)


@pytest.mark.parametrize("kernel", ["rows", "columns"])
@pytest.mark.parametrize("underflows", [True, False])
def test_workers_run_under_the_callers_error_state(kernel, underflows):
    call = _underflow_case(kernel, underflows)
    with np.errstate(under="raise"):
        if underflows:
            with pytest.raises(FloatingPointError):
                call()
        else:
            call()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()  # numpy's default ignores underflow


def test_workers_ignore_what_the_caller_ignores():
    # V_i = -inf makes every column's max inf and inf - inf = NaN: "invalid"
    mkt = random_market(4, 6)
    V = np.array([0.0, -np.inf, 0.0, 0.0])
    with np.errstate(invalid="ignore"):
        one = iota_V_to_delta(V, 0.0, mkt)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        assert np.array_equal(iota_V_to_delta(V, 0.0, mkt), one, equal_nan=True)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        iota_V_to_delta(V, 0.0, mkt)


def _child_phi_V(conn, V, mkt):
    conn.send(phi_V(V, 1.0, mkt).tobytes())
    conn.close()


def test_a_forked_child_computes_without_its_parents_threads():
    mkt = random_market(1000, 250, seed=5)  # exp space: matrix-vector products
    assert mkt.mu.size >= static_rcl._EXP_SPACE_MIN_SIZE
    V = np.random.default_rng(6).normal(size=1000)
    want = phi_V(V, 1.0, mkt).tobytes()
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_phi_V, args=(send, V, mkt))
    child.start()
    send.close()
    try:
        got = receive.recv() if receive.poll(60) else None
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert got == want
    assert child.exitcode == 0


def _two_type_market():
    rng = SeededRng(7, 0).generator()
    inst = gen_static_market(StaticDgpParams(n_products=250, n_draws=2), rng)
    return inst.with_theta(draw_theta(inst.theta_true, rng))


def test_small_markets_start_no_thread():
    threads = threading.active_count()
    cfg = AccelConfig(method="anderson", tolerance=1e-13, max_evaluations=200)
    for mkt in (_two_type_market(), large_heterogeneity_market()[0]):
        for mapping in ("V0", "V1", "delta1"):
            static_rcl.solve_inner(mkt, mapping, cfg)
    assert threading.active_count() == threads
