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

from .accel import SOLVE_ERRSTATE, AccelConfig, FixedPointMap, checked_name, solve
from .numerics import log_share_gap, logsumexp
from .static_rcl import (StaticMarket, _checked_gamma, _delta, _freeze, _log_s0, _market_em,
                         _share_arrays, check_mu_span, exp_mu, numeric_array, outside_logit)

RCNL_MAPPINGS = ("delta0", "delta1", "IV0", "IV1")


@dataclass(frozen=True)
class NestedMarket:
    """StaticMarket plus a nest assignment and per-nest rho in [0, 1).

    Immutable like its base: writes through an alias of an input array are
    unsupported, since the nest shares and the cached exp factorisation
    (nest_exp_mu, by nest size) would go stale.
    """

    base: StaticMarket
    nest_of: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if not isinstance(self.base, StaticMarket):
            raise ValueError(f"base must be a StaticMarket, not {type(self.base).__name__}")
        nest_of, rho, groups = _checked_nests(self.nest_of, self.rho, self.base.mu)
        nest_shares = np.array([self.base.shares[g].sum() for g in groups])
        _freeze(self, nest_of=nest_of, rho=rho,
                groups=groups,  # product indices of each nest
                nest_shares=nest_shares, log_nest_shares=np.log(nest_shares),
                product_rho=rho[nest_of])  # each product's nest's rho

    @property
    def n_nests(self) -> int:
        return self.rho.size


def _checked_nests(nest_of, rho, mu):
    """(nest_of as ints, rho per nest, each nest's product indices); ValueError
    naming nest_of or rho unless each product of mu (I, J) has an integer nest
    id in 0..G-1, every nest non-empty, and rho is a scalar or one value per
    nest in [0, 1); and naming the nest where mu / (1 - rho) spans more than
    check_mu_span admits, since the kernels take its exp per nest."""
    n_products = mu.shape[1]
    nest_of = np.asarray(nest_of)
    if nest_of.dtype.kind not in "iu":
        raise ValueError(f"nest_of must hold integer nest ids, not {nest_of.dtype}")
    if nest_of.shape != (n_products,):
        raise ValueError(f"nest_of must have shape {(n_products,)}, not {nest_of.shape}")
    nest_of = nest_of.astype(int)
    n_nests = int(nest_of.max()) + 1
    if sorted(set(nest_of.tolist())) != list(range(n_nests)):
        raise ValueError("nest_of's ids must be 0..G-1 with every nest non-empty")
    rho = numeric_array("rho", rho)
    if rho.ndim == 0:
        rho = np.full(n_nests, float(rho))
    if rho.shape != (n_nests,):
        raise ValueError(f"rho must be scalar or one value per nest, not of shape {rho.shape}")
    if not np.all((rho >= 0) & (rho < 1)):  # NaN fails
        raise ValueError("rho must lie in [0, 1)")
    groups = tuple(np.flatnonzero(nest_of == g) for g in range(n_nests))
    for g, idx in enumerate(groups):
        check_mu_span(np.ptp(mu[:, idx], axis=1) / (1.0 - rho[g]), f"mu / (1 - rho) in nest {g}")
    return nest_of, rho, groups


def nest_exp_mu(mu, groups, rho):
    """exp_mu of each nest's mu[:, g] / (1 - rho_g), by nest size: one class
    (nests, P, w, a, E) per size J_c, of its k nest ids, their (k, J_c)
    product indices, w = 1 - rho (k, 1), the (k, I) row maxima a and E (k, I,
    J_c). Each E[n] is column-major like mu[:, idx], so that a stacked
    product over E runs the per-nest product's BLAS kernel, with its bits."""
    sizes = np.array([idx.size for idx in groups])
    classes = []
    for nests in (np.flatnonzero(sizes == size) for size in np.unique(sizes)):
        P, w = np.array([groups[g] for g in nests]), (1.0 - rho[nests])[:, None]
        classes.append((nests, P, w, *exp_mu((mu.T[P] / w[:, :, None]).transpose(0, 2, 1))))
    return tuple(classes)


def _within(delta, em):
    """Nest inclusive values IV_ig = (1-rho_g) * log sum_{j in g}
    exp((delta_j + mu_ij)/(1-rho_g)), nest-major (G, I), and per class (ed,
    rowsum): the within-nest probabilities are ed_nj * E_nij / rowsum_ni."""
    ivT = np.empty((sum(c[0].size for c in em), em[0][3].shape[1]))
    parts = []
    for nests, P, w, a, E in em:
        x = delta[P] / w
        c = np.maximum.reduce(x, 1, keepdims=True)
        ed = np.exp(x - c)
        rowsum = (E @ ed[:, :, None])[:, :, 0]
        ivT[nests] = w * (c + a + np.log(rowsum))
        parts.append((ed, rowsum))
    return ivT, parts


@np.errstate(**SOLVE_ERRSTATE)
def nested_shares(delta, mu, weights, nest_of, rho):
    """Nested-logit shares from raw arrays: (s_j, s_g, s_0, per-type IV). ValueError
    naming the argument unless they pass logit_shares' and NestedMarket's checks."""
    delta, mu, weights = _share_arrays("delta", delta, mu, weights)
    _, rho, groups = _checked_nests(nest_of, rho, mu)
    return _shares(delta, weights, nest_exp_mu(mu, groups, rho))[:4]


def _shares(delta, weights, em):
    """(s_j, s_g, s_0, per-type IV (I, G), the nest level's outside_logit):
    the last lets the delta mapping take log s_0 in logs when s_0 underflows."""
    ivT, parts = _within(delta, em)
    _, e, e0, denom = top = outside_logit(ivT.T)  # the nest level, (I, G)
    s_j, s_g = np.empty(delta.size), np.empty(len(ivT))
    for (nests, P, _, _, E), (ed, rowsum) in zip(em, parts):
        s = ed * ((weights * (e.T[nests] / denom) / rowsum)[:, None, :] @ E)[:, 0]
        s_j[P] = s
        s_g[nests] = np.add.reduce(s, 1)
    return s_j, s_g, float(weights.dot(e0 / denom)), ivT.T, top


@np.errstate(**SOLVE_ERRSTATE)
def rcnl_shares(delta, mkt: NestedMarket):
    """Nested model shares: (s_j, s_g, s_0, per-type IV matrix)."""
    return _shares(_delta(delta, mkt.base), mkt.base.weights, _em(mkt))[:4]


def _em(mkt: NestedMarket):
    return _market_em(mkt, lambda m: nest_exp_mu(m.base.mu, m.groups, m.rho))


def _rcnl_phi_delta_map(mkt: NestedMarket, gamma: float, em):
    base, w_j, gamma_rho_j = mkt.base, 1.0 - mkt.product_rho, gamma * mkt.product_rho

    def phi(delta):
        s_j, s_g, s_0, _, (a, _, _, denom) = _shares(delta, base.weights, em)
        out = delta + w_j * (base.log_shares - np.log(s_j))
        if gamma != 0.0:
            gap_g = mkt.log_nest_shares - np.log(s_g)
            out = out + gamma_rho_j * gap_g[mkt.nest_of]
            # s_0 underflows at large IV, its log does not (as in rcnl_iota_IV_to_delta)
            log_s0 = np.log(s_0) if s_0 != 0.0 else _log_s0(a + np.log(denom), base.weights)
            out = out - gamma * (base.log_outside - log_s0)
        return out
    return phi


def _rcnl_iota_IV_to_delta_map(mkt: NestedMarket, gamma: float, em):
    base, weights, gamma_rho_j = mkt.base, mkt.base.weights, gamma * mkt.product_rho
    classes = tuple((nests, P, w, mkt.rho[nests][:, None] / w, base.log_shares[P], a, E)
                    for nests, P, w, a, E in em)

    def to_delta(iv):
        ivT = np.ascontiguousarray(iv.T)
        a_top, _, _, denom = outside_logit(ivT.T)
        lse_top = a_top + np.log(denom)
        delta = np.empty(base.n_products)
        for nests, P, w, r, log_S, a, E in classes:
            y = a - ivT[nests] * r - lse_top
            cb = np.maximum.reduce(y, 1, keepdims=True)
            lse = cb + np.log(((weights * np.exp(y - cb))[:, None, :] @ E)[:, 0])
            delta[P] = w * (log_S - lse)
        if gamma != 0.0:
            # model nest and outside shares in logs: at large IV the outside
            # probabilities exp(-lse_top) underflow, their logs do not
            gap_g = mkt.log_nest_shares - logsumexp((ivT - lse_top).T, 0, weights)
            delta = delta + gamma_rho_j * gap_g[mkt.nest_of]
            delta = delta - gamma * (base.log_outside - _log_s0(lse_top, weights))
        return delta
    return to_delta


@np.errstate(**SOLVE_ERRSTATE)
def rcnl_phi_delta(delta, gamma: float, mkt: NestedMarket) -> np.ndarray:
    """delta + (1-rho)(logS_j - log s_j) + gamma*rho*(logS_g - log s_g)
    - gamma*(logS_0 - log s_0), with each product's own nest terms."""
    return _rcnl_phi_delta_map(mkt, _checked_gamma(gamma), _em(mkt))(_delta(delta, mkt.base))


@np.errstate(**SOLVE_ERRSTATE)
def rcnl_iota_delta_to_IV(delta, mkt: NestedMarket) -> np.ndarray:
    return _within(_delta(delta, mkt.base), _em(mkt))[0].T


@np.errstate(**SOLVE_ERRSTATE)
def rcnl_iota_IV_to_delta(iv, gamma: float, mkt: NestedMarket) -> np.ndarray:
    """Analytic delta given per-type nest inclusive values.

    For j in nest g, delta_j = (1-rho_g) (log S_j - log sum_i w_i exp(z_ij))
    with z_ij = mu_ij/(1-rho_g) - IV_ig rho_g/(1-rho_g) - log(1 + sum_h
    exp(IV_ih)), one matrix-vector product over each nest's E.
    """
    to_delta = _rcnl_iota_IV_to_delta_map(mkt, _checked_gamma(gamma), _em(mkt))
    return to_delta(numeric_array("IV", iv, (mkt.base.n_types, mkt.n_nests)))


@np.errstate(**SOLVE_ERRSTATE)
def rcnl_phi_IV(iv, gamma: float, mkt: NestedMarket) -> np.ndarray:
    em = _em(mkt)
    to_delta = _rcnl_iota_IV_to_delta_map(mkt, _checked_gamma(gamma), em)
    return _within(to_delta(numeric_array("IV", iv, (mkt.base.n_types, mkt.n_nests))), em)[0].T


@np.errstate(**SOLVE_ERRSTATE)  # delta / (1 - rho) may overflow
def rcnl_dist_metric(delta, mkt: NestedMarket) -> float:
    """sup_j |log S_j - log s_j(delta)| of the nested model; NaN if delta has
    a non-finite entry."""
    delta = _delta(delta, mkt.base)
    if not np.all(np.isfinite(delta)):
        return float("nan")
    return log_share_gap(mkt.base.log_shares, rcnl_shares(delta, mkt)[0])


def rcnl_initial_delta(mkt: NestedMarket) -> np.ndarray:
    """Homogeneous nested-logit inversion (Berry closed form)."""
    rho_j = mkt.product_rho
    return ((1.0 - rho_j) * mkt.base.log_shares
            + rho_j * mkt.log_nest_shares[mkt.nest_of] - mkt.base.log_outside)


@np.errstate(**SOLVE_ERRSTATE)  # for the IV to delta map after an IV solve
def rcnl_solve_inner(mkt: NestedMarket, mapping: str, cfg: AccelConfig):
    """Solve the nested inner loop; mapping: delta0 | delta1 | IV0 | IV1."""
    checked_name("mapping", mapping, RCNL_MAPPINGS)
    gamma = 1.0 if mapping.endswith("1") else 0.0
    em = _em(mkt)
    if mapping.startswith("delta"):
        fp = FixedPointMap(_rcnl_phi_delta_map(mkt, gamma, em))
        outcome = solve(fp, rcnl_initial_delta(mkt), cfg)
        return outcome.point, outcome
    shape = (mkt.base.n_types, mkt.n_nests)
    to_delta = _rcnl_iota_IV_to_delta_map(mkt, gamma, em)
    fp = FixedPointMap(lambda v: _within(to_delta(v.reshape(shape)), em)[0].T.ravel())
    outcome = solve(fp, np.zeros(shape).ravel(), cfg)
    return to_delta(outcome.point.reshape(shape)), outcome
