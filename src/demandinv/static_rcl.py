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

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .accel import SOLVE_ERRSTATE, AccelConfig, FixedPointMap, checked_name, checked_real, solve
from .numerics import log_share_gap, logsumexp

MAPPINGS = ("delta0", "delta1", "V0", "V1", "kalouptsidi_mixed", "kalouptsidi_tilde")


@dataclass(frozen=True)
class StaticMarket:
    """Observed market data: shares, outside share, mu (I x J), type weights.

    Immutable: the constructor makes every array read-only, the caller's own
    float C-order arrays included. Writing through an alias made before
    construction is unsupported, since log_shares and the cached exp
    factorisation of mu (_market_em) would go stale.
    """

    shares: np.ndarray
    outside_share: float
    mu: np.ndarray
    weights: np.ndarray

    @np.errstate(invalid="ignore")  # _share_arrays' span of a non-finite mu
    def __post_init__(self):
        shares, mu, weights = _share_arrays("shares", self.shares, self.mu, self.weights)
        # C order: numpy adds up mu in an order that depends on its layout
        mu = np.ascontiguousarray(mu)
        outside = float(numeric_array("outside_share", self.outside_share, ()))
        check_market_data(shares, outside)
        _freeze(self, shares=shares, outside_share=outside, mu=mu, weights=weights,
                log_shares=np.log(shares), log_outside=float(np.log(outside)))

    @property
    def n_products(self) -> int:
        return self.shares.size

    @property
    def n_types(self) -> int:
        return self.weights.size


def _freeze(market, **values) -> None:
    """Set each value on the frozen dataclass market, and make every array
    among them (members of a tuple included) read-only."""
    for name, value in values.items():
        _read_only(value)
        object.__setattr__(market, name, value)


def _read_only(value) -> None:
    """Make value read-only if it is an array, or each array in it if it is a
    tuple (of arrays or tuples)."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for part in value:
            _read_only(part)


def _delta(delta, mkt: StaticMarket) -> np.ndarray:
    """A public kernel's delta, checked against the market's products."""
    return numeric_array("delta", delta, (mkt.n_products,))


def _share_arrays(name: str, x, mu, weights, axes: str = "IJ"):
    """(x, mu, weights) as float arrays, x named name; ValueError naming the
    argument unless mu has the axes named (consumer types I, products J,
    then any others), x mu's shape without I and weights (I,), weights are a
    distribution, and mu is non-empty, finite and within MU_SPAN_LIMIT for
    every type (and every later index)."""
    mu = numeric_array("mu", mu)
    if mu.ndim != len(axes):
        raise ValueError(f"mu must be {' x '.join(axes)}, not of shape {mu.shape}")
    x = numeric_array(name, x, mu.shape[1:])
    weights = numeric_array("weights", weights, mu.shape[:1])
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):  # NaN fails
        raise ValueError("weights must be non-negative and sum to 1")
    if mu.size == 0:
        raise ValueError("a market needs at least one product and one consumer type")
    span = np.ptp(mu, axis=1)  # its caller ignores the invalid inf - inf
    if not np.all(np.isfinite(span)):  # a span is finite exactly when its mu are
        raise ValueError("mu must be finite")
    check_mu_span(span)
    return x, mu, weights


def _checked_gamma(gamma) -> float:
    """gamma as a float; ValueError unless it is a finite real."""
    return checked_real("gamma", gamma, math.isfinite, "a finite real")


def numeric_array(name: str, value, shape=None) -> np.ndarray:
    """value as a float array; ValueError unless it holds numbers (strings,
    booleans and objects are rejected, not converted) of the shape given, if any."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be numeric, not {arr.dtype}")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {arr.shape}")
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


def check_market_data(shares, outside) -> None:
    """The share checks of every market, after _share_arrays' checks of mu
    and weights: shares positive and adding up to 1 with the outside share
    (in every period)."""
    if not (np.all(shares > 0) and np.all(outside > 0)):
        raise ValueError("all shares must be strictly positive")
    if np.max(np.abs(shares.sum(axis=0) + outside - 1.0)) > 1e-12:
        raise ValueError("shares + outside share must sum to 1")


# ---------------------------------------------------------------------------
# Exp-space kernels. Each mapping K(x, ..., mkt) calls a function of x alone
# that a builder (_phi_delta_map, _value_maps, _kalouptsidi_maps) returns with
# gamma, the market's arrays, its size branch and em = exp_mu(mu) fixed: a
# solve builds it once and a direct call for one evaluation, with the same
# bits. em itself comes from _market_em, which keeps the last market's, so
# the solves and audits of one market build it once between them. The
# value-space mapping (iota_delta_to_V, iota_V_to_delta, phi_V) works in exp
# space on large markets only: see "The value mapping" below.


def exp_mu(mu: np.ndarray):
    """(a, E) with a = max of mu over its last axis (products) and
    E = exp(mu - a), so that exp(mu) = exp(a) * E with every E in (0, 1]."""
    a = mu.max(axis=-1)
    E = mu - a[..., None]
    np.exp(E, out=E)  # in place: one I x J temporary, not two
    return a, E


# (weakref to the last market, its exp factorisation), replaced as one tuple:
# a reader never pairs one market with another's arrays, from any thread, and
# a race between threads costs at most a rebuild.
_last_em = (None, None)


def _market_em(mkt, build):
    """build(mkt), the exp factorisation of market mkt, with every array
    read-only. Only the last market's is kept, and only while that market
    lives: its solves run back to back, and one slot holds one E at a time."""
    global _last_em
    ref, em = _last_em
    if ref is not None and ref() is mkt:
        return em
    _last_em = (None, None)  # free the old E before the new one is built
    em = build(mkt)
    _read_only(em)
    _last_em = (weakref.ref(mkt, _drop_em), em)
    return em


def _drop_em(ref) -> None:  # the slot's market was collected
    global _last_em
    if _last_em[0] is ref:
        _last_em = (None, None)


def _em(mkt: StaticMarket):
    return _market_em(mkt, lambda m: exp_mu(m.mu))


def _logit(delta, a, E):
    """Each type's logit of utilities u_ij = delta_j + mu_ij against an
    outside option at 0, with mu_ij = a_i + log E_ij.

    Returns (ed, eb, k, e0, denom): type i's inside terms exp(u_ij - k_i) are
    eb_i * E_ij * ed_j with ed = exp(delta - max delta), its outside term is
    e0_i = exp(-k_i), and denom_i sums them. The shift is k_i = max(max delta
    + a_i, 0), so every exp argument is <= 0, and type i's inclusive value is
    V_i = k_i + log denom_i.
    """
    c = np.maximum.reduce(delta)
    ed = np.exp(delta - c)
    b = a + c
    k = np.maximum(b, 0.0)
    eb = np.exp(b - k)
    e0 = np.exp(-k)
    return ed, eb, k, e0, e0 + eb * E.dot(ed)


def _shares(delta, weights, a, E):
    """(s_j, s_0, logit): mixed-logit shares, two matrix-vector products over
    E, and the _logit terms they come from."""
    logit = _logit(delta, a, E)
    ed, eb, _, e0, denom = logit
    wd = weights / denom
    return ed * (wd * eb).dot(E), float(wd.dot(e0)), logit


@np.errstate(**SOLVE_ERRSTATE)
def logit_shares(delta, mu, weights):
    """Mixed-logit shares from raw arrays: (s_j, s_0, per-type choice
    probabilities s_ij)."""
    delta, mu, weights = _share_arrays("delta", delta, mu, weights)
    a, E = exp_mu(mu)
    s_j, s_0, (ed, eb, _, _, denom) = _shares(delta, weights, a, E)
    return s_j, s_0, (eb / denom)[:, None] * E * ed


def _log_s0(V, weights):
    """log sum_i w_i exp(-V_i) in 1-D, with numerics.logsumexp's bits on the column -V."""
    nV = -V
    m = np.maximum.reduce(nV)
    return m + np.log(np.add.reduce(np.exp(nV - m) * weights))


def _phi_delta_map(mkt: StaticMarket, gamma: float, em):
    weights, log_shares, log_outside = mkt.weights, mkt.log_shares, mkt.log_outside

    def phi(delta):
        s_j, s_0, (_, _, k, _, denom) = _shares(delta, weights, *em)
        out = delta + (log_shares - np.log(s_j))
        if gamma != 0.0:
            # s_0 underflows when every type's utilities sit ~745 above the
            # outside option; log s_0 = log sum_i w_i exp(-V_i), with
            # V_i = k_i + log denom_i, does not
            log_s0 = np.log(s_0) if s_0 != 0.0 else _log_s0(k + np.log(denom), weights)
            out = out - gamma * (log_outside - log_s0)
        return out
    return phi


@np.errstate(**SOLVE_ERRSTATE)
def phi_delta(delta, gamma: float, mkt: StaticMarket) -> np.ndarray:
    """delta + (log S - log s(delta)) - gamma * (log S0 - log s0(delta))."""
    return _phi_delta_map(mkt, _checked_gamma(gamma), _em(mkt))(_delta(delta, mkt))


def outside_logit(u: np.ndarray):
    """Each row's logit of utilities u (I, K) against an outside option at 0,
    in log space: (shift a, exp(u - a), exp(-a), denominator exp(-a) +
    sum_k exp(u - a)). a includes the outside utility 0, so nothing overflows.

    The RCNL top level and the static DGPs' market data use this form;
    iota_delta_to_V does the same arithmetic in place on a small market.
    """
    a = np.maximum(u.max(axis=1), 0.0)
    e = np.exp(u - a[:, None])
    e0 = np.exp(-a)
    return a, e, e0, e0 + e.sum(axis=1)


# ---------------------------------------------------------------------------
# The value mapping. On a market with at least _EXP_SPACE_MIN_SIZE entries in
# mu, iota_delta_to_V is k + log denom from _logit, and iota_V_to_delta sums
# w_i exp(a_i - V_i) E_ij over types with a matrix-vector product: no exp over
# I x J. A smaller market stays in log space, bit for bit as before the
# exp-space kernels: Anderson on V0 drifts along a nearly flat direction, so
# its last bits decide where it ends, and the benchmark's known-defect check
# pins one such drift (seed 102, replication 15 of the two-type markets) to
# the market it was found on.

# The log-space branch leaves with the benchmark change that drops that pin
# (ROADMAP item 1); until then the cutoff keeps the small markets' bits.
_EXP_SPACE_MIN_SIZE = 1 << 17


def _value_maps(mkt: StaticMarket, gamma: float, em):  # (iota_V_to_delta, iota_delta_to_V)
    log_shares, weights, mu = mkt.log_shares, mkt.weights, mkt.mu
    if mu.size >= _EXP_SPACE_MIN_SIZE:
        a, E = em

        def to_delta0(V):
            b = a - V
            cb = np.maximum.reduce(b)
            return log_shares - cb - np.log((weights * np.exp(b - cb)).dot(E))

        def to_V(delta):
            _, _, k, _, denom = _logit(delta, a, E)
            return k + np.log(denom)
    else:
        weight_col = weights[:, None]

        def to_delta0(V):  # logsumexp(mu - V[:, None], 0, weights)'s arithmetic, in place
            z = mu - V[:, None]
            m = np.maximum.reduce(z, 0)
            z -= m
            np.exp(z, out=z)
            z *= weight_col
            return log_shares - (m + np.log(np.add.reduce(z, 0)))

        def to_V(delta):  # outside_logit's arithmetic, in place
            u = delta + mu
            a = np.maximum(np.maximum.reduce(u, 1), 0.0)
            u -= a[:, None]
            np.exp(u, out=u)
            return a + np.log(np.exp(-a) + np.add.reduce(u, 1))
    if gamma == 0.0:
        return to_delta0, to_V
    return (lambda V: to_delta0(V) - gamma * (mkt.log_outside - _log_s0(V, weights))), to_V


@np.errstate(**SOLVE_ERRSTATE)
def iota_delta_to_V(delta, mkt: StaticMarket) -> np.ndarray:
    """Per-type inclusive value V_i = log(1 + sum_j exp(delta_j + mu_ij))."""
    return _value_maps(mkt, 0.0, _em(mkt))[1](_delta(delta, mkt))


@np.errstate(**SOLVE_ERRSTATE)
def iota_V_to_delta(V, gamma: float, mkt: StaticMarket) -> np.ndarray:
    """Analytic delta given inclusive values, with the gamma outside correction."""
    to_delta = _value_maps(mkt, _checked_gamma(gamma), _em(mkt))[0]
    return to_delta(numeric_array("V", V, (mkt.n_types,)))


@np.errstate(**SOLVE_ERRSTATE)
def phi_V(V, gamma: float, mkt: StaticMarket) -> np.ndarray:
    to_delta, to_V = _value_maps(mkt, _checked_gamma(gamma), _em(mkt))
    return to_V(to_delta(numeric_array("V", V, (mkt.n_types,))))


@np.errstate(**SOLVE_ERRSTATE)  # entries of delta may lie over 1.8e308 apart
def dist_metric(delta, mkt: StaticMarket) -> float:
    """sup_j |log S_j - log s_j(delta)|; the post-convergence audit metric.
    NaN if delta has a non-finite entry."""
    delta = _delta(delta, mkt)
    if not np.all(np.isfinite(delta)):
        return float("nan")
    return log_share_gap(mkt.log_shares, _shares(delta, mkt.weights, *_em(mkt))[0])


# ---------------------------------------------------------------------------
# Kalouptsidi (2012) per-type mappings on r_i = log(w_i * s_i0). With
# V_i = log w_i - r_i, iota_V_to_delta(V, 0) recovers delta from r.


def _kalouptsidi_maps(mkt: StaticMarket, em):  # (kalouptsidi_F, kalouptsidi_Ftilde)
    if not np.all(mkt.weights > 0):
        raise ValueError("kalouptsidi_mixed and kalouptsidi_tilde iterate on log(w_i s_i0): "
                         "each needs every weight positive")
    a, E = em
    shares, outside, log_w_head = mkt.shares, mkt.outside_share, np.log(mkt.weights[:-1])

    def rhs(r_full):
        """log of the bracketed share sum in F_i, for every type i: log(sum_j
        S_j exp(mu_ij + r_i) / sum_k exp(mu_kj + r_k) + S_0 softmax(r)_i)."""
        y = a + r_full
        ey = np.exp(y - np.maximum.reduce(y))  # sum_i exp(mu_ij + r_i) = exp(max y) (ey E)_j
        er = np.exp(r_full - np.maximum.reduce(r_full))
        return np.log(ey * E.dot(shares / ey.dot(E)) + outside * (er / np.add.reduce(er)))

    def F(r):
        head = r[:-1] + log_w_head - rhs(r)[:-1]
        # far from the fixed point exp(head) overflows and the tail is NaN: F latches
        tail = np.log(outside - np.add.reduce(np.exp(head)))  # log S_0 with one type
        return np.concatenate([head, [tail]])

    def Ftilde(rt):
        return rt + log_w_head - rhs(np.concatenate([rt, [0.0]]))[:-1]
    return F, Ftilde


@np.errstate(**SOLVE_ERRSTATE)
def kalouptsidi_F(r, mkt: StaticMarket) -> np.ndarray:
    """The original mapping: head types via the share sum, last via adding up.
    ValueError on a market with a zero weight, as for kalouptsidi_Ftilde."""
    return _kalouptsidi_maps(mkt, _em(mkt))[0](numeric_array("r", r, (mkt.n_types,)))


@np.errstate(**SOLVE_ERRSTATE)
def kalouptsidi_Ftilde(r_tilde, mkt: StaticMarket) -> np.ndarray:
    """Normalized variant on r_tilde = r - r_I (last type pinned at 0).
    ValueError on a market with fewer than two types or a zero weight: the
    mappings iterate on r_i = log(w_i s_i0)."""
    _check_two_types(mkt)
    return _kalouptsidi_maps(mkt, _em(mkt))[1](
        numeric_array("r_tilde", r_tilde, (mkt.n_types - 1,)))


def _check_two_types(mkt: StaticMarket) -> None:
    if mkt.n_types < 2:
        raise ValueError("the normalized mapping needs at least two types")


def _r_from_r_tilde(rt: np.ndarray, mkt: StaticMarket) -> np.ndarray:
    r_full = np.concatenate([rt, [0.0]])
    return r_full + mkt.log_outside - logsumexp(r_full, 0)


# ---------------------------------------------------------------------------


def initial_delta(mkt: StaticMarket) -> np.ndarray:
    """Homogeneous-logit inversion log S_j - log S_0, the standard start."""
    return mkt.log_shares - mkt.log_outside


@np.errstate(**SOLVE_ERRSTATE)  # for the V to delta map after a V solve
def solve_inner(mkt: StaticMarket, mapping: str, cfg: AccelConfig):
    """Run one inner-loop algorithm to convergence.

    mapping: delta0 | delta1 | V0 | V1 | kalouptsidi_mixed | kalouptsidi_tilde.
    Returns (delta, SolveOutcome); divergence is reported in the outcome,
    never raised. The Kalouptsidi mappings start at r = log w (V = 0).
    """
    checked_name("mapping", mapping, MAPPINGS)
    if mapping == "kalouptsidi_tilde":
        _check_two_types(mkt)
    gamma = 1.0 if mapping.endswith("1") else 0.0
    em = _em(mkt)
    if mapping.startswith("V"):
        to_delta, to_V = _value_maps(mkt, gamma, em)
        outcome = solve(FixedPointMap(lambda v: to_V(to_delta(v))), np.zeros(mkt.n_types), cfg)
        return to_delta(outcome.point), outcome
    if mapping.startswith("delta"):
        outcome = solve(FixedPointMap(_phi_delta_map(mkt, gamma, em)), initial_delta(mkt), cfg)
        return outcome.point, outcome
    log_w = np.log(mkt.weights)
    F, Ftilde = _kalouptsidi_maps(mkt, em)
    if mapping == "kalouptsidi_tilde":
        outcome = solve(FixedPointMap(Ftilde), log_w[:-1] - log_w[-1], cfg)
        r = _r_from_r_tilde(outcome.point, mkt)
    else:
        latched = False

        def mixed_map(r):
            """F until it turns non-finite (its adding-up residual S_0 - sum
            exp(F_i) goes non-positive, or a head entry is non-finite), then
            the normalized mapping for all remaining iterations. Re-checking
            every iteration instead makes the two branches thrash in a slow
            cycle. With one type F is the constant log S_0 and never latches."""
            nonlocal latched
            if not latched:
                out = F(r)
                if np.all(np.isfinite(out)):
                    return out
                latched = True
            return _r_from_r_tilde(Ftilde(r[:-1] - r[-1]), mkt)

        outcome = solve(FixedPointMap(mixed_map), log_w, cfg)
        r = outcome.point
    return _value_maps(mkt, 0.0, em)[0](log_w - r), outcome
