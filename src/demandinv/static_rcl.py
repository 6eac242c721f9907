"""Static random-coefficients logit: share prediction and inner-loop inversion.

The unknown is the vector of mean utilities delta. Observed shares S and the
consumer-type utility deviations mu are data. Two families of fixed-point
mappings solve S_j = s_j(delta):

* delta-space updates delta <- delta + (log S - log s) - gamma*(log S0 - log s0),
  where gamma = 0 is the classic contraction and gamma = 1 adds the
  outside-share correction;
* value-space updates on the per-type inclusive values V, linked to the
  delta-space mappings by an exact duality.

Also included: the mixed/normalized per-type mappings of Kalouptsidi (2012),
which iterate on r_i = log(w_i * s_i0).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass

import numpy as np

from .accel import AccelConfig, FixedPointMap, solve
from .numerics import log_share_gap, logsumexp

SCHEMA_VERSION = 1

MAPPINGS = ("delta0", "delta1", "V0", "V1", "kalouptsidi_mixed", "kalouptsidi_tilde")


@dataclass(frozen=True)
class StaticMarket:
    """Observed market data: shares, outside share, mu (I x J), type weights."""

    shares: np.ndarray
    outside_share: float
    mu: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        shares = numeric_array("shares", self.shares)
        outside = numeric_array("outside_share", self.outside_share)
        mu = numeric_array("mu", self.mu)
        weights = numeric_array("weights", self.weights)
        if shares.ndim != 1 or outside.ndim != 0:
            raise ValueError("shares must be a vector and outside_share a scalar")
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "outside_share", float(outside))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "weights", weights)
        if mu.ndim != 2 or mu.shape[1] != shares.size:
            raise ValueError("mu must be I x J")
        if weights.shape != (mu.shape[0],):
            raise ValueError("weights must have one entry per consumer type")
        check_market_data(shares, self.outside_share, mu, weights)
        for arr in (shares, mu, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "log_shares", np.log(shares))
        object.__setattr__(self, "log_outside", float(np.log(self.outside_share)))

    @property
    def n_products(self) -> int:
        return self.shares.size

    @property
    def n_types(self) -> int:
        return self.weights.size


def numeric_array(name: str, value) -> np.ndarray:
    """value as a float array; ValueError unless it holds numbers (strings,
    booleans and objects are rejected, not converted)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numeric, not {arr.dtype}")
    return arr.astype(float, copy=False)


# The share kernels factor exp(mu_ij) = exp(a_i) * E_ij with a_i = max_j mu_ij
# (see exp_mu). E_ij >= exp(-span_i) must stay a normal double (exp(-708) is
# the smallest), so a consumer type's mu may span at most this much.
MU_SPAN_LIMIT = 700.0


def check_mu_span(span, what: str = "mu") -> None:
    """ValueError if any per-type span of mu exceeds MU_SPAN_LIMIT."""
    if not np.all(span <= MU_SPAN_LIMIT):
        raise ValueError(f"{what} spans {np.max(span):.6g} across one consumer type's "
                         f"products; exp-space shares need at most {MU_SPAN_LIMIT:g}")


def check_market_data(shares, outside, mu, weights) -> None:
    """Checks shared by every market: shares positive and adding up to 1 with
    the outside share (in every period), weights a distribution, and mu finite
    and within MU_SPAN_LIMIT for every type (in every period; products lie
    on axis 1)."""
    if not (np.all(shares > 0) and np.all(outside > 0)):
        raise ValueError("all shares must be strictly positive")
    if np.max(np.abs(shares.sum(axis=0) + outside - 1.0)) > 1e-12:
        raise ValueError("shares + outside share must sum to 1")
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):  # NaN fails
        raise ValueError("weights must be non-negative and sum to 1")
    if mu.size == 0:
        raise ValueError("a market needs at least one product and one consumer type")
    with np.errstate(invalid="ignore"):
        span = np.ptp(mu, axis=1)
    if not np.all(np.isfinite(span)):  # a span is finite exactly when its mu are
        raise ValueError("mu must be finite")
    check_mu_span(span)


# ---------------------------------------------------------------------------
# Exp-space kernels. The mappings take an optional ``em``, the market's
# exp_mu(mu): the solvers build it once per solve and pass it, and a direct
# call builds it. The result is the same either way. The value-space mapping
# (iota_delta_to_V, iota_V_to_delta, phi_V) stays in log space and splits
# large markets across threads: see "The value mapping" below.


def exp_mu(mu: np.ndarray):
    """(a, E) with a = max of mu over its last axis (products) and
    E = exp(mu - a), so that exp(mu) = exp(a) * E with every E in (0, 1]."""
    a = mu.max(axis=-1)
    return a, np.exp(mu - a[..., None])


def _logit(delta, a, E):
    """Each type's logit of utilities u_ij = delta_j + mu_ij against an
    outside option at 0, with mu_ij = a_i + log E_ij.

    Returns (ed, eb, e0, denom): type i's inside terms exp(u_ij - k_i) are
    eb_i * E_ij * ed_j with ed = exp(delta - max delta), its outside term is
    e0_i = exp(-k_i), and denom_i sums them. The shift is k_i = max(max delta
    + a_i, 0), so every exp argument is <= 0.
    """
    c = delta.max()
    ed = np.exp(delta - c)
    b = a + c
    k = np.maximum(b, 0.0)
    eb = np.exp(b - k)
    e0 = np.exp(-k)
    return ed, eb, e0, e0 + eb * (E @ ed)


def _shares(delta, weights, a, E):
    """(s_j, s_0): mixed-logit shares, two matrix-vector products over E."""
    ed, eb, e0, denom = _logit(delta, a, E)
    wd = weights / denom
    return ed * ((wd * eb) @ E), float(wd @ e0)


def logit_shares(delta, mu, weights):
    """Mixed-logit shares from raw arrays: (s_j, s_0, per-type s_ij)."""
    delta = np.asarray(delta, dtype=float)
    a, E = exp_mu(mu)
    ed, eb, _, denom = _logit(delta, a, E)
    return (*_shares(delta, weights, a, E), (eb / denom)[:, None] * E * ed)


def predict_shares(delta, mkt: StaticMarket):
    """Model shares at delta: (s_j, s_0, per-type choice probabilities s_ij)."""
    return logit_shares(delta, mkt.mu, mkt.weights)


def phi_delta(delta, gamma: float, mkt: StaticMarket, em=None) -> np.ndarray:
    """delta + (log S - log s(delta)) - gamma * (log S0 - log s0(delta))."""
    delta = np.asarray(delta, dtype=float)
    s_j, s_0 = _shares(delta, mkt.weights, *(em or exp_mu(mkt.mu)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta + (mkt.log_shares - np.log(s_j))
        if gamma != 0.0:
            # s_0 underflows when every type's utilities sit ~745 above the
            # outside option; log s_0 = log sum_i w_i exp(-V_i) does not
            log_s0 = (np.log(s_0) if s_0 != 0.0 else
                      logsumexp((-iota_delta_to_V(delta, mkt))[:, None], 0, mkt.weights)[0])
            out = out - gamma * (mkt.log_outside - log_s0)
    return out


def outside_logit(u: np.ndarray):
    """Each row's logit of utilities u (I, K) against an outside option at 0,
    in log space: (shift a, exp(u - a), exp(-a), denominator exp(-a) +
    sum_k exp(u - a)). a includes the outside utility 0, so nothing overflows.

    The RCNL top level and the static DGPs' market data use this form;
    iota_delta_to_V does the same arithmetic in place, in parts.
    """
    a = np.maximum(u.max(axis=1), 0.0)
    e = np.exp(u - a[:, None])
    e0 = np.exp(-a)
    return a, e, e0, e0 + e.sum(axis=1)


# ---------------------------------------------------------------------------
# The value mapping. iota_delta_to_V and iota_V_to_delta stay in log space,
# bit for bit as before the exp-space kernels: Anderson on V0 drifts along a
# nearly flat direction, so its last bits decide where it ends, and the
# benchmark's known-defect check pins one such drift (seed 102, replication
# 15 of the two-type markets) to the market it was found on.
#
# On a large market both kernels split their I x J work across threads (numpy
# releases the GIL in its loops). iota_delta_to_V sums over products row by
# row, and iota_V_to_delta over types column by column, so each part does the
# whole array's operations, in the same order, on a block of rows (columns).
# numpy sums each row on its own, and sums over axis 0 by adding the rows one
# after another when there are two or more columns (one column it sums
# pairwise), so the results are bit-identical for any number of parts.

_MIN_PART_SIZE = 1 << 16  # entries of mu per part: a smaller part gains less than a thread costs
_pool = None  # the worker threads, created by the first call that splits
_pool_lock = threading.Lock()


def _forget_pool():
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cpus() -> int:
    """The CPUs this process may run on (its affinity, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _n_parts(n: int, size: int, min_len: int) -> int:
    """How many parts split an axis of length n of an array of size entries:
    at most one per CPU, each with at least _MIN_PART_SIZE entries and min_len
    indices of the axis."""
    n_parts = min(size // _MIN_PART_SIZE, n // min_len)
    return min(n_parts, _cpus()) if n_parts > 1 else 1


def _in_parts(part, mu: np.ndarray, axis: int, min_len: int = 1) -> np.ndarray:
    """part(block), the result for one block of mu's rows (axis 0) or columns
    (axis 1), for the blocks that split mu (see _n_parts), concatenated. The
    caller's thread computes the first block and the module's pool the others.
    Every block runs under the caller's numpy error state, and an exception of
    any block is raised here once every block has finished."""
    n_parts = 1 if mu.size < 2 * _MIN_PART_SIZE else _n_parts(mu.shape[axis], mu.size, min_len)
    if n_parts == 1:
        return part(mu)
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="demandinv")
        pool = _pool
    err, call = np.geterr(), np.geterrcall()

    def worker(block):  # np.errstate is context-local: a pool thread has the defaults
        with np.errstate(call=call, **err):
            return part(block)

    first, *rest = np.array_split(mu, n_parts, axis=axis)
    futures = [pool.submit(worker, block) for block in rest]
    try:
        first = part(first)
    finally:
        for f in futures:  # wait for every block, also when the caller's own one raised
            f.exception()
    return np.concatenate([first] + [f.result() for f in futures])


def iota_delta_to_V(delta, mkt: StaticMarket) -> np.ndarray:
    """Per-type inclusive value V_i = log(1 + sum_j exp(delta_j + mu_ij))."""
    delta = np.asarray(delta, dtype=float)[None, :]

    def rows(mu):  # outside_logit's arithmetic, in place
        u = delta + mu
        a = np.maximum(u.max(axis=1), 0.0)
        u -= a[:, None]
        np.exp(u, out=u)
        return a + np.log(np.exp(-a) + u.sum(axis=1))

    return _in_parts(rows, mkt.mu, 0)


def iota_V_to_delta(V, gamma: float, mkt: StaticMarket) -> np.ndarray:
    """Analytic delta given inclusive values, with the gamma outside correction."""
    V = np.asarray(V, dtype=float)
    Vc, w = V[:, None], mkt.weights[:, None]

    def columns(mu):  # logsumexp(mu - V[:, None], 0, weights)'s arithmetic, in place
        z = mu - Vc
        m = z.max(axis=0)
        z -= m
        np.exp(z, out=z)
        z *= w
        return m + np.log(z.sum(axis=0))

    delta = mkt.log_shares - _in_parts(columns, mkt.mu, 1, min_len=2)
    if gamma != 0.0:
        log_s0_hat = logsumexp((-V)[:, None], 0, mkt.weights)[0]
        delta = delta - gamma * (mkt.log_outside - log_s0_hat)
    return delta


def phi_V(V, gamma: float, mkt: StaticMarket) -> np.ndarray:
    return iota_delta_to_V(iota_V_to_delta(V, gamma, mkt), mkt)


def dist_metric(delta, mkt: StaticMarket) -> float:
    """sup_j |log S_j - log s_j(delta)|; the post-convergence audit metric."""
    s_j = _shares(np.asarray(delta, dtype=float), mkt.weights, *exp_mu(mkt.mu))[0]
    return log_share_gap(mkt.log_shares, s_j)


# ---------------------------------------------------------------------------
# Kalouptsidi (2012) per-type mappings on r_i = log(w_i * s_i0)


def _type_product_weights(r_full, a, E):
    """(ey, cb, col): ey = exp(a + r - cb) with cb = max(a + r), and
    col_j = sum_i ey_i E_ij, so sum_i exp(mu_ij + r_i) = exp(cb) * col_j."""
    y = a + r_full
    cb = y.max()
    ey = np.exp(y - cb)
    return ey, cb, ey @ E


def _kalouptsidi_rhs(r_full: np.ndarray, mkt: StaticMarket, em) -> np.ndarray:
    """log of the bracketed share sum in F_i, for every type i:
    log(sum_j S_j exp(mu_ij + r_i) / sum_k exp(mu_kj + r_k) + S_0 softmax(r)_i)."""
    a, E = em
    ey, _, col = _type_product_weights(r_full, a, E)
    er = np.exp(r_full - r_full.max())
    inner = ey * (E @ (mkt.shares / col)) + mkt.outside_share * (er / er.sum())
    with np.errstate(divide="ignore"):
        return np.log(inner)


def kalouptsidi_F(r, mkt: StaticMarket, em=None) -> np.ndarray:
    """The original mapping: head types via the share sum, last via adding up."""
    r = np.asarray(r, dtype=float)
    rhs = _kalouptsidi_rhs(r, mkt, em or exp_mu(mkt.mu))
    head = r[:-1] + np.log(mkt.weights[:-1]) - rhs[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.log(mkt.outside_share - np.exp(head).sum())  # log S_0 with one type
    return np.concatenate([head, [tail]])


def kalouptsidi_Ftilde(r_tilde, mkt: StaticMarket, em=None) -> np.ndarray:
    """Normalized variant on r_tilde = r - r_I (last type pinned at 0)."""
    rt = np.asarray(r_tilde, dtype=float)
    if mkt.n_types < 2:
        raise ValueError("the normalized mapping needs at least two types")
    r_full = np.concatenate([rt, [0.0]])
    rhs = _kalouptsidi_rhs(r_full, mkt, em or exp_mu(mkt.mu))
    return rt + np.log(mkt.weights[:-1]) - rhs[:-1]


def _r_from_r_tilde(rt: np.ndarray, mkt: StaticMarket) -> np.ndarray:
    r_full = np.concatenate([rt, [0.0]])
    return r_full + mkt.log_outside - logsumexp(r_full, 0)


def kalouptsidi_delta_from_r(r, mkt: StaticMarket, em=None) -> np.ndarray:
    """delta_j = log S_j - log(sum_i exp(mu_ij + r_i))."""
    a, E = em or exp_mu(mkt.mu)
    _, cb, col = _type_product_weights(np.asarray(r, dtype=float), a, E)
    return mkt.log_shares - cb - np.log(col)


def _kalouptsidi_mixed_solve(mkt: StaticMarket, cfg: AccelConfig):
    """Solve for r with the mixed algorithm and recover delta.

    F is used by default; once F turns non-finite (its adding-up residual
    S_0 - sum exp(F_i) goes non-positive, or a head entry is non-finite) the
    solve latches onto the normalized mapping for all remaining iterations.
    Re-checking every iteration instead makes the two branches thrash in a
    slow cycle. With one type F is the constant log S_0 and never latches.
    """
    em = exp_mu(mkt.mu)
    latched = False

    def mixed_map(r):
        nonlocal latched
        if not latched:
            out = kalouptsidi_F(r, mkt, em)
            if np.all(np.isfinite(out)):
                return out
            latched = True
        rt_next = kalouptsidi_Ftilde(r[:-1] - r[-1], mkt, em)
        return _r_from_r_tilde(rt_next, mkt)

    fp = FixedPointMap(mixed_map)
    outcome = solve(fp, np.log(mkt.weights), cfg)  # V = 0 start
    delta = kalouptsidi_delta_from_r(outcome.point, mkt, em)
    return delta, outcome


def _kalouptsidi_tilde_solve(mkt: StaticMarket, cfg: AccelConfig):
    em = exp_mu(mkt.mu)
    fp = FixedPointMap(lambda rt: kalouptsidi_Ftilde(rt, mkt, em))
    r0 = np.log(mkt.weights)
    outcome = solve(fp, r0[:-1] - r0[-1], cfg)
    delta = kalouptsidi_delta_from_r(_r_from_r_tilde(outcome.point, mkt), mkt, em)
    return delta, outcome


# ---------------------------------------------------------------------------


def initial_delta(mkt: StaticMarket) -> np.ndarray:
    """Homogeneous-logit inversion log S_j - log S_0, the standard start."""
    return mkt.log_shares - mkt.log_outside


def solve_inner(mkt: StaticMarket, mapping: str, cfg: AccelConfig):
    """Run one inner-loop algorithm to convergence.

    mapping: delta0 | delta1 | V0 | V1 | kalouptsidi_mixed | kalouptsidi_tilde.
    Returns (delta, SolveOutcome); divergence is reported in the outcome,
    never raised.
    """
    if mapping not in MAPPINGS:
        raise ValueError(f"unknown mapping {mapping!r}")
    if mapping == "kalouptsidi_mixed":
        return _kalouptsidi_mixed_solve(mkt, cfg)
    if mapping == "kalouptsidi_tilde":
        return _kalouptsidi_tilde_solve(mkt, cfg)
    gamma = 1.0 if mapping.endswith("1") else 0.0
    if mapping.startswith("delta"):
        em = exp_mu(mkt.mu)
        fp = FixedPointMap(lambda d: phi_delta(d, gamma, mkt, em))
        outcome = solve(fp, initial_delta(mkt), cfg)
        return outcome.point, outcome
    fp = FixedPointMap(lambda v: phi_V(v, gamma, mkt))
    outcome = solve(fp, np.zeros(mkt.n_types), cfg)
    delta = iota_V_to_delta(outcome.point, gamma, mkt)
    return delta, outcome


# ---------------------------------------------------------------------------
# JSON fixtures


def market_doc(mkt: StaticMarket) -> dict:
    """The JSON object of a static market fixture; nested fixtures extend it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "shares": mkt.shares.tolist(),
        "outside_share": mkt.outside_share,
        "mu": mkt.mu.tolist(),  # row-major, one row per consumer type
        "weights": mkt.weights.tolist(),
    }


def market_to_json(mkt: StaticMarket) -> str:
    return json.dumps(market_doc(mkt))


def parse_fixture(text: str, keys) -> dict:
    """The JSON object of a market fixture that has every one of the keys its
    loader reads; other schema versions and missing keys are rejected."""
    doc = json.loads(text)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"fixture schema_version {version!r} is not {SCHEMA_VERSION}")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"fixture is missing the keys {missing}")
    return doc


MARKET_KEYS = ("shares", "outside_share", "mu", "weights")  # read by market_from_doc


def market_from_doc(doc: dict) -> StaticMarket:
    """The market of a fixture object; StaticMarket checks every value."""
    return StaticMarket(**{k: doc[k] for k in MARKET_KEYS})


def market_from_json(text: str) -> StaticMarket:
    return market_from_doc(parse_fixture(text, MARKET_KEYS))
