"""The value mapping's kernels split across threads: bit-identical to one part.

iota_delta_to_V splits mu by rows and iota_V_to_delta by columns once a market
is large enough. These tests force the split on small markets by shrinking
the minimum part size and fixing the CPU count, and compare every output with
the one-part result bit for bit. They also check that the workers run under
the caller's numpy error state, that their exceptions reach the caller, that
a forked child computes without its parent's threads, and that small markets
start no thread.
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


@pytest.fixture
def split(monkeypatch):
    """split(cpus, min_part): how the kernels split from then on. The pool made
    under these settings is shut down after the test."""
    def set_split(cpus, min_part=1):
        monkeypatch.setattr(static_rcl, "_cpus", lambda: cpus)
        monkeypatch.setattr(static_rcl, "_MIN_PART_SIZE", min_part)

    monkeypatch.setattr(static_rcl, "_pool", None)
    yield set_split
    if static_rcl._pool is not None:
        static_rcl._pool.shutdown()


def random_market(I, J, seed=0):
    rng = np.random.default_rng(seed)
    s = rng.random(J + 1) + 0.1
    w = rng.random(I) + 0.1
    return StaticMarket(s[:J] / s.sum(), s[J] / s.sum(), 2.0 * rng.normal(size=(I, J)),
                        w / w.sum())


def outputs(V, gamma, mkt):
    delta = iota_V_to_delta(V, gamma, mkt)
    return delta, iota_delta_to_V(delta, mkt), phi_V(V, gamma, mkt)


@pytest.mark.parametrize("n, min_len", [(1, 1), (2, 2), (7, 1), (7, 2), (250, 2), (1001, 1)])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_blocks_cover_mu_with_at_least_min_len_each(split, n, min_len, axis, cpus):
    split(cpus)
    mu = np.arange(5.0 * n).reshape((n, 5) if axis == 0 else (5, n))
    widths = []

    def part(block):
        widths.append(block.shape[axis])
        return np.take(block, 0, axis=1 - axis)

    first = np.arange(n) * (5 if axis == 0 else 1)  # mu's first column (axis 0) or row
    assert np.array_equal(static_rcl._in_parts(part, mu, axis, min_len), first)
    assert len(widths) == max(1, min(cpus, n // min_len))
    assert min(widths) >= min(min_len, n)


SHAPES = [(1, 9), (9, 1), (2, 2), (9, 5), (13, 2), (4, 250), (31, 17)]


@pytest.mark.parametrize("I, J", SHAPES)
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e3, 1.23e14])
def test_split_kernels_equal_one_part_bit_for_bit(split, I, J, cpus, gamma, scale):
    mkt = random_market(I, J, seed=I * 100 + J)
    V = scale + np.random.default_rng(J).normal(size=I) * (1.0 if scale > 1e3 else scale)
    split(1)
    one = outputs(V, gamma, mkt)
    split(cpus)
    assert max(static_rcl._n_parts(I, I * J, 1), static_rcl._n_parts(J, I * J, 2)) > 1
    for got, want in zip(outputs(V, gamma, mkt), one):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("I, J, min_part", [(511, 256, 1 << 16), (512, 256, 1 << 16),
                                            (8, 6, 25), (8, 6, 24)])
@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_sizes_at_the_threshold_equal_one_part(split, I, J, min_part, gamma):
    mkt = random_market(I, J, seed=I + J)
    V = np.random.default_rng(I).normal(size=I)
    split(1)
    one = outputs(V, gamma, mkt)
    split(2, min_part)
    assert static_rcl._n_parts(I, I * J, 1) == (2 if I * J >= 2 * min_part else 1)
    for got, want in zip(outputs(V, gamma, mkt), one):
        assert np.array_equal(got, want)


def _underflow_case(kernel, worker_only):
    """A call of one kernel, split in 2 parts, whose second part (a worker's)
    underflows an exp when worker_only; the first part never does."""
    mu = np.zeros((6, 4))
    if kernel == "rows":  # rows 3-5 are the worker's: u = delta + mu spans 800 there
        mu[3:, 0] = -700.0
        mkt = random_market(6, 4)
        mkt = StaticMarket(mkt.shares, mkt.outside_share, mu, mkt.weights)
        delta = np.array([-100.0 if worker_only else 0.0, 0.0, 0.0, 0.0])
        return lambda: iota_delta_to_V(delta, mkt)
    mu[1, 2:] = -700.0  # columns 2-3 are the worker's: mu - V spans 800 there
    mkt = random_market(6, 4)
    mkt = StaticMarket(mkt.shares, mkt.outside_share, mu, mkt.weights)
    V = np.array([0.0, 100.0 if worker_only else 0.0, 0.0, 0.0, 0.0, 0.0])
    return lambda: iota_V_to_delta(V, 1.0, mkt)


@pytest.mark.parametrize("kernel", ["rows", "columns"])
@pytest.mark.parametrize("underflows", [True, False])
def test_workers_run_under_the_callers_error_state(split, kernel, underflows):
    call = _underflow_case(kernel, underflows)
    for cpus in (1, 2):
        split(cpus)
        with np.errstate(under="raise"):
            if underflows:
                with pytest.raises(FloatingPointError):
                    call()
            else:
                call()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call()  # numpy's default ignores underflow, in the workers too


def test_workers_ignore_what_the_caller_ignores(split):
    # V_i = -inf makes every column's max inf and inf - inf = NaN: "invalid"
    mkt = random_market(4, 6)
    V = np.array([0.0, -np.inf, 0.0, 0.0])
    split(1)
    with np.errstate(invalid="ignore"):
        one = iota_V_to_delta(V, 0.0, mkt)
    split(3)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        assert np.array_equal(iota_V_to_delta(V, 0.0, mkt), one, equal_nan=True)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        iota_V_to_delta(V, 0.0, mkt)


def test_a_workers_exception_reaches_the_caller(split):
    split(2)
    seen = []

    def part(block):
        seen.append(block[0, 0])
        if block[0, 0] > 0:
            raise KeyError("worker block")
        return block[:, 0]

    with pytest.raises(KeyError, match="worker block"):
        static_rcl._in_parts(part, np.arange(24.0).reshape(6, 4), 0)
    assert sorted(seen) == [0.0, 12.0]  # the caller's block ran too


def _child_phi_V(conn, V, mkt):
    conn.send(phi_V(V, 1.0, mkt).tobytes())
    conn.close()


def test_a_forked_child_computes_without_its_parents_threads(split):
    split(2, static_rcl._MIN_PART_SIZE)  # J=250, I=1000 splits in 2 parts
    mkt = random_market(1000, 250, seed=5)
    V = np.random.default_rng(6).normal(size=1000)
    want = phi_V(V, 1.0, mkt).tobytes()  # starts the parent's pool
    assert static_rcl._pool is not None
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
    pool, threads = static_rcl._pool, threading.active_count()
    cfg = AccelConfig(method="anderson", tolerance=1e-13, max_evaluations=200)
    for mkt in (_two_type_market(), large_heterogeneity_market()[0]):
        for mapping in ("V0", "V1", "delta1"):
            static_rcl.solve_inner(mkt, mapping, cfg)
    assert static_rcl._pool is pool
    assert threading.active_count() == threads
