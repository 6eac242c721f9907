"""Random-coefficient nested logit extension.

Products sit in mutually exclusive nests with correlation parameter rho;
the outside good belongs to no nest. The delta-space mapping weights the
share correction by 1-rho and adds a nest-share term; the value-space
mapping iterates on per-type, per-nest inclusive values IV_ig. At rho = 0
every operation collapses to its static counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import AccelConfig, FixedPointMap, solve
from .numerics import log_share_gap, logsumexp
from .static_rcl import (StaticMarket, _freeze, _log_s0, check_mu_span, exp_mu,
                         numeric_array, outside_logit)

RCNL_MAPPINGS = ("delta0", "delta1", "IV0", "IV1")


@dataclass(frozen=True)
class NestedMarket:
    """StaticMarket plus a nest assignment and per-nest rho in [0, 1)."""

    base: StaticMarket
    nest_of: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, StaticMarket):
            raise ValueError(f"base must be a StaticMarket, not {type(self.base).__name__}")
        nest_of = np.asarray(self.nest_of)
        if nest_of.dtype.kind not in "iu":
            raise ValueError(f"nest ids must be integers, not {nest_of.dtype}")
        if nest_of.shape != (self.base.n_products,):
            raise ValueError("nest_of must assign every product to a nest")
        nest_of = nest_of.astype(int)
        n_nests = int(nest_of.max()) + 1
        if sorted(set(nest_of.tolist())) != list(range(n_nests)):
            raise ValueError("nest ids must be 0..G-1 with every nest non-empty")
        rho = numeric_array("rho", self.rho)
        if rho.ndim == 0:
            rho = np.full(n_nests, float(rho))
        if rho.shape != (n_nests,):
            raise ValueError("rho must be scalar or one value per nest")
        if not np.all((rho >= 0) & (rho < 1)):  # NaN fails
            raise ValueError("rho must lie in [0, 1)")
        groups = tuple(np.flatnonzero(nest_of == g) for g in range(n_nests))
        mu = self.base.mu
        for g, idx in enumerate(groups):  # the kernels take exp of mu / (1 - rho) per nest
            check_mu_span(np.ptp(mu[:, idx], axis=1) / (1.0 - rho[g]),
                          f"mu / (1 - rho) in nest {g}")
        nest_shares = np.array([self.base.shares[g].sum() for g in groups])
        _freeze(self, nest_of=nest_of, rho=rho,
                groups=groups,  # product indices of each nest
                nest_shares=nest_shares, log_nest_shares=np.log(nest_shares),
                product_rho=rho[nest_of])  # each product's nest's rho

    @property
    def n_nests(self) -> int:
        return self.rho.size


def nest_exp_mu(mu, groups, rho):
    """exp_mu of each nest's scaled deviations mu[:, g] / (1 - rho_g)."""
    return tuple(exp_mu(mu[:, idx] / (1.0 - rho[g])) for g, idx in enumerate(groups))


def _within(delta, groups, rho, em):
    """Nest inclusive values IV_ig = (1-rho_g) * log sum_{j in g}
    exp((delta_j + mu_ij)/(1-rho_g)), nest-major (G, I), and per nest
    (ed, rowsum): the within-nest probabilities are ed_j * E_ij / rowsum_i."""
    ivT = np.empty((len(groups), em[0][0].size))
    parts = []
    for g, idx in enumerate(groups):
        a, E = em[g]
        x = delta[idx] / (1.0 - rho[g])
        c = x.max()
        ed = np.exp(x - c)
        rowsum = E @ ed
        ivT[g] = (1.0 - rho[g]) * (c + a + np.log(rowsum))
        parts.append((ed, rowsum))
    return ivT, parts


def nested_shares(delta, mu, weights, groups, rho):
    """Nested-logit shares from raw arrays: (s_j, s_g, s_0, per-type IV)."""
    return _shares(np.asarray(delta, float), weights, groups, rho, nest_exp_mu(mu, groups, rho))


def _shares(delta, weights, groups, rho, em):
    ivT, parts = _within(delta, groups, rho, em)
    _, e, e0, denom = outside_logit(ivT.T)  # the nest level, (I, G)
    s_j = np.empty(delta.size)
    for g, idx in enumerate(groups):
        ed, rowsum = parts[g]
        s_j[idx] = ed * ((weights * (e[:, g] / denom) / rowsum) @ em[g][1])
    s_g = np.array([s_j[idx].sum() for idx in groups])
    return s_j, s_g, float(weights @ (e0 / denom)), ivT.T


def rcnl_shares(delta, mkt: NestedMarket):
    """Nested model shares: (s_j, s_g, s_0, per-type IV matrix)."""
    return nested_shares(delta, mkt.base.mu, mkt.base.weights, mkt.groups, mkt.rho)


def _em(mkt: NestedMarket):
    return nest_exp_mu(mkt.base.mu, mkt.groups, mkt.rho)


def _rcnl_phi_delta_map(mkt: NestedMarket, gamma: float, em):
    base, rho_j = mkt.base, mkt.product_rho

    def phi(delta):
        s_j, s_g, s_0, iv = _shares(delta, base.weights, mkt.groups, mkt.rho, em)
        with np.errstate(divide="ignore"):
            out = delta + (1.0 - rho_j) * (base.log_shares - np.log(s_j))
            if gamma != 0.0:
                gap_g = mkt.log_nest_shares - np.log(s_g)
                out = out + gamma * rho_j * gap_g[mkt.nest_of]
                # s_0 underflows at large IV, its log does not (as in rcnl_iota_IV_to_delta)
                log_s0 = np.log(s_0)
                if s_0 == 0.0:
                    a, _, _, denom = outside_logit(iv)
                    log_s0 = _log_s0(a + np.log(denom), base.weights)
                out = out - gamma * (base.log_outside - log_s0)
        return out
    return phi


def _rcnl_iota_IV_to_delta_map(mkt: NestedMarket, gamma: float, em):
    base, nests = mkt.base, tuple(enumerate(zip(mkt.groups, em, mkt.rho)))

    def to_delta(iv):
        ivT = np.ascontiguousarray(iv.T)
        a_top, _, _, denom = outside_logit(ivT.T)
        lse_top = a_top + np.log(denom)
        delta = np.empty(base.n_products)
        with np.errstate(divide="ignore"):
            for g, (idx, (a, E), rho) in nests:
                y = a - ivT[g] * (rho / (1.0 - rho)) - lse_top
                cb = np.maximum.reduce(y)
                lse = cb + np.log((base.weights * np.exp(y - cb)) @ E)
                delta[idx] = (1.0 - rho) * (base.log_shares[idx] - lse)
        if gamma != 0.0:
            # model nest and outside shares in logs: at large IV the outside
            # probabilities exp(-lse_top) underflow, their logs do not
            gap_g = mkt.log_nest_shares - logsumexp((ivT - lse_top).T, 0, base.weights)
            delta = delta + gamma * mkt.product_rho * gap_g[mkt.nest_of]
            delta = delta - gamma * (base.log_outside - _log_s0(lse_top, base.weights))
        return delta
    return to_delta


def rcnl_phi_delta(delta, gamma: float, mkt: NestedMarket) -> np.ndarray:
    """delta + (1-rho)(logS_j - log s_j) + gamma*rho*(logS_g - log s_g)
    - gamma*(logS_0 - log s_0), with each product's own nest terms."""
    return _rcnl_phi_delta_map(mkt, gamma, _em(mkt))(np.asarray(delta, dtype=float))


def rcnl_iota_delta_to_IV(delta, mkt: NestedMarket) -> np.ndarray:
    return _within(np.asarray(delta, dtype=float), mkt.groups, mkt.rho, _em(mkt))[0].T


def rcnl_iota_IV_to_delta(iv, gamma: float, mkt: NestedMarket) -> np.ndarray:
    """Analytic delta given per-type nest inclusive values.

    For j in nest g, delta_j = (1-rho_g) (log S_j - log sum_i w_i exp(z_ij))
    with z_ij = mu_ij/(1-rho_g) - IV_ig rho_g/(1-rho_g) - log(1 + sum_h
    exp(IV_ih)), one matrix-vector product over each nest's E.
    """
    return _rcnl_iota_IV_to_delta_map(mkt, gamma, _em(mkt))(np.asarray(iv, dtype=float))


def rcnl_phi_IV(iv, gamma: float, mkt: NestedMarket) -> np.ndarray:
    em = _em(mkt)
    delta = _rcnl_iota_IV_to_delta_map(mkt, gamma, em)(np.asarray(iv, dtype=float))
    return _within(delta, mkt.groups, mkt.rho, em)[0].T


def rcnl_dist_metric(delta, mkt: NestedMarket) -> float:
    """sup_j |log S_j - log s_j(delta)| of the nested model; NaN if delta has
    a non-finite entry."""
    delta = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(delta)):
        return float("nan")
    with np.errstate(over="ignore", invalid="ignore"):  # delta / (1 - rho) may overflow
        s_j = rcnl_shares(delta, mkt)[0]
    return log_share_gap(mkt.base.log_shares, s_j)


def rcnl_initial_delta(mkt: NestedMarket) -> np.ndarray:
    """Homogeneous nested-logit inversion (Berry closed form)."""
    rho_j = mkt.product_rho
    return ((1.0 - rho_j) * mkt.base.log_shares
            + rho_j * mkt.log_nest_shares[mkt.nest_of] - mkt.base.log_outside)


def rcnl_solve_inner(mkt: NestedMarket, mapping: str, cfg: AccelConfig):
    """Solve the nested inner loop; mapping: delta0 | delta1 | IV0 | IV1."""
    if mapping not in RCNL_MAPPINGS:
        raise ValueError(f"unknown mapping {mapping!r}")
    gamma = 1.0 if mapping.endswith("1") else 0.0
    base = mkt.base
    em = _em(mkt)
    if mapping.startswith("delta"):
        fp = FixedPointMap(_rcnl_phi_delta_map(mkt, gamma, em))
        outcome = solve(fp, rcnl_initial_delta(mkt), cfg)
        return outcome.point, outcome
    shape = (base.n_types, mkt.n_nests)
    to_delta = _rcnl_iota_IV_to_delta_map(mkt, gamma, em)
    fp = FixedPointMap(
        lambda v: _within(to_delta(v.reshape(shape)), mkt.groups, mkt.rho, em)[0].T.ravel())
    outcome = solve(fp, np.zeros(shape).ravel(), cfg)
    return to_delta(outcome.point.reshape(shape)), outcome
