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
        shares = np.asarray(self.shares, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if shares.ndim != 1 or np.ndim(self.outside_share) != 0:
            raise ValueError("shares must be a vector and outside_share a scalar")
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "outside_share", float(self.outside_share))
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


def check_market_data(shares, outside, mu, weights) -> None:
    """Checks shared by every market: shares positive and adding up to 1 with
    the outside share (in every period), mu finite, weights a distribution."""
    if not (np.all(shares > 0) and np.all(outside > 0)):
        raise ValueError("all shares must be strictly positive")
    if np.max(np.abs(shares.sum(axis=0) + outside - 1.0)) > 1e-12:
        raise ValueError("shares + outside share must sum to 1")
    if not (np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12):  # NaN fails
        raise ValueError("weights must be non-negative and sum to 1")
    if not np.all(np.isfinite(mu)):
        raise ValueError("mu must be finite")


def outside_logit(u: np.ndarray):
    """Each row's logit of utilities u (I, K) against an outside option at 0:
    (shift a, exp(u - a), exp(-a), denominator exp(-a) + sum_k exp(u - a)).
    a includes the outside utility 0, so nothing overflows."""
    a = np.maximum(u.max(axis=1), 0.0)
    e = np.exp(u - a[:, None])
    e0 = np.exp(-a)
    return a, e, e0, e0 + e.sum(axis=1)


def logit_shares(delta, mu, weights):
    """Mixed-logit shares from raw arrays: (s_j, s_0, per-type s_ij)."""
    delta = np.asarray(delta, dtype=float)
    u = delta[None, :] + mu
    _, e, e0, denom = outside_logit(u)
    s_ij = e / denom[:, None]
    s_i0 = e0 / denom
    s_j = weights @ s_ij
    s_0 = float(weights @ s_i0)
    return s_j, s_0, s_ij


def predict_shares(delta, mkt: StaticMarket):
    """Model shares at delta: (s_j, s_0, per-type choice probabilities s_ij)."""
    return logit_shares(delta, mkt.mu, mkt.weights)


def phi_delta(delta, gamma: float, mkt: StaticMarket) -> np.ndarray:
    """delta + (log S - log s(delta)) - gamma * (log S0 - log s0(delta))."""
    delta = np.asarray(delta, dtype=float)
    s_j, s_0, _ = predict_shares(delta, mkt)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta + (mkt.log_shares - np.log(s_j))
        if gamma != 0.0:
            out = out - gamma * (mkt.log_outside - np.log(s_0))
    return out


def iota_delta_to_V(delta, mkt: StaticMarket) -> np.ndarray:
    """Per-type inclusive value V_i = log(1 + sum_j exp(delta_j + mu_ij))."""
    u = np.asarray(delta, dtype=float)[None, :] + mkt.mu  # outlives the exps, as in logsumexp
    a, _, _, denom = outside_logit(u)
    return a + np.log(denom)


def iota_V_to_delta(V, gamma: float, mkt: StaticMarket) -> np.ndarray:
    """Analytic delta given inclusive values, with the gamma outside correction."""
    V = np.asarray(V, dtype=float)
    delta = mkt.log_shares - logsumexp(mkt.mu - V[:, None], 0, mkt.weights)
    if gamma != 0.0:
        log_s0_hat = logsumexp((-V)[:, None], 0, mkt.weights)[0]
        delta = delta - gamma * (mkt.log_outside - log_s0_hat)
    return delta


def phi_V(V, gamma: float, mkt: StaticMarket) -> np.ndarray:
    return iota_delta_to_V(iota_V_to_delta(V, gamma, mkt), mkt)


def dist_metric(delta, mkt: StaticMarket) -> float:
    """sup_j |log S_j - log s_j(delta)|; the post-convergence audit metric."""
    return log_share_gap(mkt.log_shares, predict_shares(delta, mkt)[0])


# ---------------------------------------------------------------------------
# Kalouptsidi (2012) per-type mappings on r_i = log(w_i * s_i0)


def _kalouptsidi_rhs(r_full: np.ndarray, mkt: StaticMarket) -> np.ndarray:
    """log of the bracketed share sum in F_i, for every type i.

    All ratios are scale invariant, so a max shift on mu_ij + r_i (per
    product) and on r (for the outside term) is exact.
    """
    z = mkt.mu + r_full[:, None]  # (I, J)
    m = z.max(axis=0)
    ez = np.exp(z - m[None, :])
    ratio = ez / ez.sum(axis=0)[None, :]  # exp(mu+r)/sum_i exp(mu+r)
    c0 = r_full.max()
    er = np.exp(r_full - c0)
    ratio0 = er / er.sum()
    inner = ratio @ mkt.shares + mkt.outside_share * ratio0
    with np.errstate(divide="ignore"):
        return np.log(inner)


def kalouptsidi_F(r, mkt: StaticMarket) -> np.ndarray:
    """The original mapping: head types via the share sum, last via adding up."""
    r = np.asarray(r, dtype=float)
    rhs = _kalouptsidi_rhs(r, mkt)
    head = r[:-1] + np.log(mkt.weights[:-1]) - rhs[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.log(mkt.outside_share - np.exp(head).sum())  # log S_0 with one type
    return np.concatenate([head, [tail]])


def kalouptsidi_Ftilde(r_tilde, mkt: StaticMarket) -> np.ndarray:
    """Normalized variant on r_tilde = r - r_I (last type pinned at 0)."""
    rt = np.asarray(r_tilde, dtype=float)
    if mkt.n_types < 2:
        raise ValueError("the normalized mapping needs at least two types")
    r_full = np.concatenate([rt, [0.0]])
    rhs = _kalouptsidi_rhs(r_full, mkt)
    return rt + np.log(mkt.weights[:-1]) - rhs[:-1]


def _r_from_r_tilde(rt: np.ndarray, mkt: StaticMarket) -> np.ndarray:
    r_full = np.concatenate([rt, [0.0]])
    return r_full + mkt.log_outside - logsumexp(r_full, 0)


def kalouptsidi_delta_from_r(r, mkt: StaticMarket) -> np.ndarray:
    """delta_j = log S_j - log(sum_i exp(mu_ij + r_i))."""
    return mkt.log_shares - logsumexp(mkt.mu + np.asarray(r, dtype=float)[:, None], 0)


def kalouptsidi_mixed_solve(mkt: StaticMarket, cfg: AccelConfig):
    """Solve for r with the mixed algorithm and recover delta.

    F is used by default; once F turns non-finite (its adding-up residual
    S_0 - sum exp(F_i) goes non-positive, or a head entry is non-finite) the
    solve latches onto the normalized mapping for all remaining iterations.
    Re-checking every iteration instead makes the two branches thrash in a
    slow cycle. With one type F is the constant log S_0 and never latches.
    """
    latched = False

    def mixed_map(r):
        nonlocal latched
        if not latched:
            out = kalouptsidi_F(r, mkt)
            if np.all(np.isfinite(out)):
                return out
            latched = True
        rt_next = kalouptsidi_Ftilde(r[:-1] - r[-1], mkt)
        return _r_from_r_tilde(rt_next, mkt)

    fp = FixedPointMap(mixed_map, mkt.n_types)
    outcome = solve(fp, np.log(mkt.weights), cfg)  # V = 0 start
    delta = kalouptsidi_delta_from_r(outcome.point, mkt)
    return delta, outcome


def _kalouptsidi_tilde_solve(mkt: StaticMarket, cfg: AccelConfig):
    fp = FixedPointMap(lambda rt: kalouptsidi_Ftilde(rt, mkt), mkt.n_types - 1)
    r0 = np.log(mkt.weights)
    outcome = solve(fp, r0[:-1] - r0[-1], cfg)
    delta = kalouptsidi_delta_from_r(_r_from_r_tilde(outcome.point, mkt), mkt)
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
        return kalouptsidi_mixed_solve(mkt, cfg)
    if mapping == "kalouptsidi_tilde":
        return _kalouptsidi_tilde_solve(mkt, cfg)
    gamma = 1.0 if mapping.endswith("1") else 0.0
    if mapping.startswith("delta"):
        fp = FixedPointMap(lambda d: phi_delta(d, gamma, mkt), mkt.n_products)
        outcome = solve(fp, initial_delta(mkt), cfg)
        return outcome.point, outcome
    fp = FixedPointMap(lambda v: phi_V(v, gamma, mkt), mkt.n_types)
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


def parse_fixture(text: str) -> dict:
    """The JSON object of a market fixture; other schema versions are rejected."""
    doc = json.loads(text)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"fixture schema_version {version!r} is not {SCHEMA_VERSION}")
    return doc


def market_from_doc(doc: dict) -> StaticMarket:
    return StaticMarket(
        shares=np.array(doc["shares"], dtype=float),
        outside_share=float(doc["outside_share"]),
        mu=np.array(doc["mu"], dtype=float),
        weights=np.array(doc["weights"], dtype=float),
    )


def market_from_json(text: str) -> StaticMarket:
    return market_from_doc(parse_fixture(text))
