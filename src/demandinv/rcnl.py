"""Random-coefficient nested logit extension.

Products sit in mutually exclusive nests with correlation parameter rho;
the outside good belongs to no nest. The delta-space mapping weights the
share correction by 1-rho and adds a nest-share term; the value-space
mapping iterates on per-type, per-nest inclusive values IV_ig. At rho = 0
every operation collapses to its static counterpart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .accel import AccelConfig, FixedPointMap, solve
from .numerics import log_share_gap, logsumexp
from .static_rcl import StaticMarket, market_doc, market_from_doc, outside_logit, parse_fixture

RCNL_MAPPINGS = ("delta0", "delta1", "IV0", "IV1")


@dataclass(frozen=True)
class NestedMarket:
    """StaticMarket plus a nest assignment and per-nest rho in [0, 1)."""

    base: StaticMarket
    nest_of: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        nest_of = np.asarray(self.nest_of, dtype=int)
        if nest_of.shape != (self.base.n_products,):
            raise ValueError("nest_of must assign every product to a nest")
        n_nests = int(nest_of.max()) + 1
        if sorted(set(nest_of.tolist())) != list(range(n_nests)):
            raise ValueError("nest ids must be 0..G-1 with every nest non-empty")
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim == 0:
            rho = np.full(n_nests, float(rho))
        if rho.shape != (n_nests,):
            raise ValueError("rho must be scalar or one value per nest")
        if not np.all((rho >= 0) & (rho < 1)):  # NaN fails
            raise ValueError("rho must lie in [0, 1)")
        object.__setattr__(self, "nest_of", nest_of)
        object.__setattr__(self, "rho", rho)
        nest_of.flags.writeable = False
        rho.flags.writeable = False
        groups = tuple(np.flatnonzero(nest_of == g) for g in range(n_nests))
        object.__setattr__(self, "groups", groups)  # product indices of each nest
        object.__setattr__(self, "nest_shares",
                           np.array([self.base.shares[g].sum() for g in groups]))

    @property
    def n_nests(self) -> int:
        return self.rho.size


def _iv_kernel(delta, mu, groups, rho) -> np.ndarray:
    """IV_ig = (1-rho_g) * log sum_{j in g} exp((delta_j + mu_ij)/(1-rho_g))."""
    iv = np.empty((mu.shape[0], len(groups)))
    for g, idx in enumerate(groups):
        z = (delta[idx][None, :] + mu[:, idx]) / (1.0 - rho[g])
        iv[:, g] = (1.0 - rho[g]) * logsumexp(z, 1)
    return iv


def nested_shares(delta, mu, weights, groups, rho):
    """Nested-logit shares from raw arrays: (s_j, s_g, s_0, per-type IV)."""
    delta = np.asarray(delta, dtype=float)
    iv = _iv_kernel(delta, mu, groups, rho)
    _, e, e0, denom = outside_logit(iv)
    s_inest = e / denom[:, None]  # per-type nest probabilities
    s_ij = np.empty_like(mu)
    for g, idx in enumerate(groups):
        z = (delta[idx][None, :] + mu[:, idx] - iv[:, [g]]) / (1.0 - rho[g])
        s_ij[:, idx] = np.exp(z) * s_inest[:, [g]]
    s_j = weights @ s_ij
    s_g = np.array([s_j[idx].sum() for idx in groups])
    s_0 = float(weights @ (e0 / denom))
    return s_j, s_g, s_0, iv


def rcnl_shares(delta, mkt: NestedMarket):
    """Nested model shares: (s_j, s_g, s_0, per-type IV matrix)."""
    return nested_shares(delta, mkt.base.mu, mkt.base.weights, mkt.groups, mkt.rho)


def rcnl_phi_delta(delta, gamma: float, mkt: NestedMarket) -> np.ndarray:
    """delta + (1-rho)(logS_j - log s_j) + gamma*rho*(logS_g - log s_g)
    - gamma*(logS_0 - log s_0), with each product's own nest terms."""
    delta = np.asarray(delta, dtype=float)
    base = mkt.base
    s_j, s_g, s_0, _ = rcnl_shares(delta, mkt)
    rho_j = mkt.rho[mkt.nest_of]
    with np.errstate(divide="ignore"):
        out = delta + (1.0 - rho_j) * (base.log_shares - np.log(s_j))
        if gamma != 0.0:
            gap_g = np.log(mkt.nest_shares) - np.log(s_g)
            out = out + gamma * rho_j * gap_g[mkt.nest_of]
            out = out - gamma * (base.log_outside - np.log(s_0))
    return out


def rcnl_iota_delta_to_IV(delta, mkt: NestedMarket) -> np.ndarray:
    return _iv_kernel(np.asarray(delta, dtype=float), mkt.base.mu, mkt.groups, mkt.rho)


def rcnl_iota_IV_to_delta(iv, gamma: float, mkt: NestedMarket) -> np.ndarray:
    """Analytic delta given per-type nest inclusive values."""
    iv = np.asarray(iv, dtype=float)
    base = mkt.base
    a, _, _, denom = outside_logit(iv)
    lse_top = a + np.log(denom)
    rho_j = mkt.rho[mkt.nest_of]
    iv_j = iv[:, mkt.nest_of]  # (I, J)
    # z_ij = mu/(1-rho) - IV*(1/(1-rho) - 1) - lse_top
    z = (base.mu - iv_j) / (1.0 - rho_j)[None, :] + iv_j - lse_top[:, None]
    delta = (1.0 - rho_j) * (base.log_shares - logsumexp(z, 0, base.weights))
    if gamma != 0.0:
        s_inest = base.weights @ (np.exp(iv - lse_top[:, None]))
        s_0_hat = float(base.weights @ np.exp(-lse_top))
        with np.errstate(divide="ignore"):
            gap_g = np.log(mkt.nest_shares) - np.log(s_inest)
            delta = delta + gamma * rho_j * gap_g[mkt.nest_of]
            delta = delta - gamma * (base.log_outside - np.log(s_0_hat))
    return delta


def rcnl_phi_IV(iv, gamma: float, mkt: NestedMarket) -> np.ndarray:
    return rcnl_iota_delta_to_IV(rcnl_iota_IV_to_delta(iv, gamma, mkt), mkt)


def rcnl_dist_metric(delta, mkt: NestedMarket) -> float:
    return log_share_gap(mkt.base.log_shares, rcnl_shares(delta, mkt)[0])


def rcnl_initial_delta(mkt: NestedMarket) -> np.ndarray:
    """Homogeneous nested-logit inversion (Berry closed form)."""
    rho_j = mkt.rho[mkt.nest_of]
    log_sg = np.log(mkt.nest_shares)
    return ((1.0 - rho_j) * mkt.base.log_shares
            + rho_j * log_sg[mkt.nest_of] - mkt.base.log_outside)


def rcnl_solve_inner(mkt: NestedMarket, mapping: str, cfg: AccelConfig):
    """Solve the nested inner loop; mapping: delta0 | delta1 | IV0 | IV1."""
    if mapping not in RCNL_MAPPINGS:
        raise ValueError(f"unknown mapping {mapping!r}")
    gamma = 1.0 if mapping.endswith("1") else 0.0
    base = mkt.base
    if mapping.startswith("delta"):
        fp = FixedPointMap(lambda d: rcnl_phi_delta(d, gamma, mkt), base.n_products)
        outcome = solve(fp, rcnl_initial_delta(mkt), cfg)
        return outcome.point, outcome
    shape = (base.n_types, mkt.n_nests)
    fp = FixedPointMap(
        lambda v: rcnl_phi_IV(v.reshape(shape), gamma, mkt).ravel(),
        base.n_types * mkt.n_nests,
    )
    outcome = solve(fp, np.zeros(shape).ravel(), cfg)
    delta = rcnl_iota_IV_to_delta(outcome.point.reshape(shape), gamma, mkt)
    return delta, outcome


def nested_market_to_json(mkt: NestedMarket) -> str:
    return json.dumps({**market_doc(mkt.base), "nest_of": mkt.nest_of.tolist(),
                       "rho": mkt.rho.tolist()})


def nested_market_from_json(text: str) -> NestedMarket:
    doc = parse_fixture(text)
    return NestedMarket(base=market_from_doc(doc), nest_of=np.array(doc["nest_of"], dtype=int),
                        rho=np.array(doc["rho"], dtype=float))
