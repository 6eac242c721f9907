"""Seeded data-generating processes for the benchmark suites.

All normal draws go through the inverse CDF applied to uniforms from
numpy's PCG64 stream, and per-replication streams derive from
SeedSequence([master_seed, replication]); both choices are documented so
other implementations can replicate the streams exactly.

The same simulation nodes generate the observed shares and build the
candidate-theta deviations, so the inner-loop solution is exactly
representable in every replication.

The designs are fixed, as module constants: the static one (_STATIC_MEANS,
_STATIC_SDS, _CHAR_COV and _PRICE_CONST, _PRICE_XI, _PRICE_SHOCK_HI) and the
durable one (_DURABLE_MEANS, _DURABLE_SDS, _CHI_SD, _PRICE_COEFS,
_PRICE_CROSS, the AR(1) cost shifter's _Z_* and the _W_ and _U_SHOCK_SD
price shocks). Only the sizes and the durable beta are parameters, and
theta_true is the design's sds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit, ndtri

from .accel import checked_int, checked_real
from .dynamic import DurableMarket, DurableSolution, _exp_mu_t, _omega_from_delta, _shares_at
from .numerics import log_share_gap, logsumexp
from .rcnl import NestedMarket, nested_shares
from .static_rcl import StaticMarket, outside_logit

_SHARE_FLOOR = 1e-300
# Draws per market before a design is rejected; the designs took no redraw in
# 1200 sampled markets, though a degenerate draw is possible.
_MAX_DRAWS = 1000
# Durable values are positive (V = log(exp(beta V') + exp(omega)) > beta V'),
# so every conditional share is below max_i exp(omega_it). A period whose
# inclusive values all lie below this bound, the log of the share floor less
# a margin for rounding, cannot clear the floor.
_LOG_NO_SHARE = math.log(_SHARE_FLOOR) - 1.0


@dataclass(frozen=True)
class SeededRng:
    """Deterministic per-replication stream derived from (master seed, index)."""

    master_seed: int
    replication: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence([int(self.master_seed), int(self.replication)])
        return np.random.default_rng(seq)


def normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via the inverse CDF (portable across ports)."""
    u = np.clip(rng.random(shape), 1e-300, 1.0 - 1e-16)
    return ndtri(u)


# The static design.
_STATIC_MEANS = (0.0, 1.5, 1.5, 0.5, -3.0)
_STATIC_SDS = (0.5, 0.5, 0.5, 0.5, 0.2)
_CHAR_COV = ((1.0, -0.8, 0.3), (-0.8, 1.0, 0.3), (0.3, 0.3, 1.0))
_PRICE_CONST, _PRICE_XI, _PRICE_SHOCK_HI = 3.0, 1.5, 5.0
# The durable design.
_DURABLE_MEANS = (6.0, 1.0, 1.0, 0.5, 2.0)
_DURABLE_SDS = (0.0, 0.5, 0.5, 0.0, 0.25)
_CHI_SD = 0.5
_PRICE_COEFS = (1.0, 0.2, 0.2, 0.1, 1.0, 0.2, 0.7)  # g0,gx1,gx2,gx3,gz,gw,gxi
_PRICE_CROSS = (0.1, 0.1, 0.1)
_Z_INIT, _Z_CONST, _Z_RHO = 8.0, 0.1, 0.95
_Z_SHOCK_SD, _W_SHOCK_SD, _U_SHOCK_SD = 0.1, 1.0, 0.01


@dataclass(frozen=True)
class StaticDgpParams:
    """The static DGP's sizes, checked once at construction: integers >= 1."""

    n_products: int = 25
    n_draws: int = 1000

    def __post_init__(self):
        for name in ("n_products", "n_draws"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), 1))


@dataclass(frozen=True)
class DynamicDgpParams:
    """The durable DGP's sizes (integers >= 1) and discount factor (a real
    in [0, 1)), checked once at construction."""

    n_products: int = 25
    n_draws: int = 50
    horizon: int = 50
    beta: float = 0.99

    def __post_init__(self):
        for name in ("n_products", "n_draws", "horizon"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), 1))
        object.__setattr__(self, "beta", checked_real(
            "beta", self.beta, lambda b: 0.0 <= b < 1.0, "a real in [0, 1)"))


@dataclass(frozen=True)
class StaticInstance:
    market: StaticMarket
    delta_true: np.ndarray
    theta_true: np.ndarray  # random-coefficient sds
    X: np.ndarray           # (J, 5) characteristics incl. intercept and price
    nodes: np.ndarray       # (I, 5) simulation draws
    redraws: int = 0

    def with_theta(self, theta) -> StaticMarket:
        """Market with candidate-theta deviations, same shares and nodes."""
        return replace(self.market, mu=self._mu(theta))

    def _mu(self, theta) -> np.ndarray:
        return (self.nodes * np.asarray(theta, dtype=float)) @ self.X.T


def _static_draw(p: StaticDgpParams, rng: np.random.Generator):
    J, I = p.n_products, p.n_draws
    L = np.linalg.cholesky(np.array(_CHAR_COV))
    x = normal(rng, (J, 3)) @ L.T
    xi = normal(rng, J)
    u = rng.random(J) * _PRICE_SHOCK_HI
    price = _PRICE_CONST + _PRICE_XI * xi + u + x.sum(axis=1)
    X = np.column_stack([np.ones(J), x, price])
    delta = X @ np.array(_STATIC_MEANS) + xi
    nodes = normal(rng, (I, 5))
    mu = (nodes * np.array(_STATIC_SDS)) @ X.T
    return X, delta, nodes, mu


def _true_shares(delta, mu, weights):
    """(s_j, s_0) of the static model at the truth, in log space and
    independent of the exp-space share kernels that solve it."""
    _, e, e0, denom = outside_logit(delta[None, :] + mu)
    return weights @ (e / denom[:, None]), float(weights @ (e0 / denom))


def _draw_market(p: StaticDgpParams, rng: np.random.Generator, shares):
    """Static draws with the market data at the true parameters, where
    shares(delta, mu, weights) -> (s_j, s_0). Degenerate draws (any share
    below 1e-300) are redrawn from the same stream, at most _MAX_DRAWS in
    all (ValueError then). Returns (StaticMarket, X, delta, nodes, redraws)."""
    weights = np.full(p.n_draws, 1.0 / p.n_draws)
    for redraws in range(_MAX_DRAWS):
        X, delta, nodes, mu = _static_draw(p, rng)
        s_j, s_0 = shares(delta, mu, weights)
        if s_0 > _SHARE_FLOOR and np.all(s_j > _SHARE_FLOOR):
            break
    else:
        raise _degenerate(p)
    market = StaticMarket(shares=s_j, outside_share=1.0 - s_j.sum(), mu=mu,
                          weights=weights)
    return market, X, delta, nodes, redraws


def _degenerate(p) -> ValueError:
    return ValueError(f"every one of {_MAX_DRAWS} draws of {p!r} had a share at or "
                      f"below {_SHARE_FLOOR}")


def gen_static_market(p: StaticDgpParams, rng: np.random.Generator) -> StaticInstance:
    """One static replication: market data at the true parameters; the
    redraw count is recorded on the instance."""
    market, X, delta, nodes, redraws = _draw_market(p, rng, _true_shares)
    return StaticInstance(market=market, delta_true=delta, theta_true=np.array(_STATIC_SDS),
                          X=X, nodes=nodes, redraws=redraws)


@dataclass(frozen=True)
class NestedInstance(StaticInstance):
    market: NestedMarket

    def with_theta(self, theta) -> NestedMarket:
        return replace(self.market, base=replace(self.market.base, mu=self._mu(theta)))


def gen_nested_market(p: StaticDgpParams, rng: np.random.Generator,
                      rho: float = 0.5) -> NestedInstance:
    """Static DGP in three equal nests, products 0..J/3-1 in the first, with a
    common rho; observed shares from the nested model. ValueError unless
    p.n_products is divisible by 3."""
    if p.n_products % 3:
        raise ValueError(f"n_products must be divisible by 3, not {p.n_products}")
    nest_of = np.repeat(np.arange(3), p.n_products // 3)
    rho_vec = np.full(3, float(rho))

    def shares(delta, mu, weights):
        s_j, _, s_0, _ = nested_shares(delta, mu, weights, nest_of, rho_vec)
        return s_j, s_0

    base, X, delta, nodes, redraws = _draw_market(p, rng, shares)
    market = NestedMarket(base=base, nest_of=nest_of, rho=rho_vec)
    return NestedInstance(market=market, delta_true=delta, theta_true=np.array(_STATIC_SDS),
                          X=X, nodes=nodes, redraws=redraws)


@dataclass(frozen=True)
class DynamicInstance:
    market: DurableMarket
    solution_true: DurableSolution = field(repr=False)  # delta (J, T), value (I, T)
    theta_true: np.ndarray
    X: np.ndarray            # (T, J, 5)
    nodes: np.ndarray        # (I, 5)
    redraws: int = 0

    def with_theta(self, theta) -> DurableMarket:
        mu = np.einsum("ik,tjk->ijt", self.nodes * np.asarray(theta, dtype=float),
                       self.X)
        return replace(self.market, mu=mu)


def _terminal_value(beta: float, omega_T: np.ndarray) -> np.ndarray:
    """Root of f(v) = log(exp(beta v) + exp(omega)) - v, per type, by Newton
    from v = max(omega, 0). f is convex and decreasing and f(v0) > 0, so the
    iterates rise monotonically to the root; where omega underflows the start
    is 0, already within exp(omega) / (1 - beta) of it. The iteration stops
    once every step lies below 1e-10 and takes one more: a stop at a few ulp
    can cycle in the last bits. ValueError unless 0 <= beta < 1 (at beta 1
    there is no root), or after 100 steps (the default design takes 9, and
    any beta up to 1 - 2**-53 at most 35)."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"the terminal value needs a beta in [0, 1), not {beta!r}")
    v = np.maximum(omega_T, 0.0)
    small = False
    for _ in range(100):
        step = (np.logaddexp(beta * v, omega_T) - v) / (1.0 - beta * expit(beta * v - omega_T))
        v = v + step
        if small:
            return v
        small = np.max(np.abs(step)) < 1e-10
    raise ValueError(f"the terminal value did not converge at beta {beta!r} in 100 steps")


def _conditional_shares(ccp: np.ndarray, pr0: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Shares (J, T) among the active consumers w_i * pr0_it, NaN where none is."""
    b = weights[:, None] * pr0  # (I, T)
    return np.einsum("it,ijt->jt", b, ccp) / b.sum(axis=0)[None, :]


@np.errstate(divide="ignore", invalid="ignore")  # for _conditional_shares' 0 / 0
def gen_dynamic_market(p: DynamicDgpParams, rng: np.random.Generator) -> DynamicInstance:
    """One durable-goods replication with the exact truth recorded.

    The true value function is solved by backward induction with the
    stationary terminal condition; observed shares are the implied
    conditional-on-active shares, so the inner-loop solution exists exactly.
    Degenerate draws are redrawn as in the static DGP, at most _MAX_DRAWS in
    all (ValueError then); a draw with a period whose inclusive values all lie
    below _LOG_NO_SHARE, where no share can clear the floor, is redrawn first.
    """
    J, I, T, beta = p.n_products, p.n_draws, p.horizon, p.beta
    for redraws in range(_MAX_DRAWS):
        chi = normal(rng, (T, J, 3)) * _CHI_SD
        xi = normal(rng, (T, J))
        w_shock = normal(rng, (T, J)) * _W_SHOCK_SD
        u = normal(rng, (T, J)) * _U_SHOCK_SD
        eta = normal(rng, (T, J)) * _Z_SHOCK_SD
        z = np.empty((T, J))
        z_prev = np.full(J, _Z_INIT)
        for t in range(T):
            z[t] = _Z_CONST + _Z_RHO * z_prev + eta[t]
            z_prev = z[t]
        g0, gx1, gx2, gx3, gz, gw, gxi = _PRICE_COEFS
        cross = chi.sum(axis=1, keepdims=True) - chi
        price = (g0 + chi @ np.array([gx1, gx2, gx3]) + gz * z + gw * w_shock
                 + gxi * xi - cross @ np.array(_PRICE_CROSS) + u)
        X = np.concatenate([np.ones((T, J, 1)), chi, -price[:, :, None]], axis=2)
        delta = (X @ np.array(_DURABLE_MEANS) + xi).T  # (J, T)
        nodes = normal(rng, (I, 5))
        mu = np.einsum("ik,tjk->ijt", nodes * np.array(_DURABLE_SDS), X)

        # true values: terminal stationarity, then backward induction
        util = delta[None, :, :] + mu  # (I, J, T)
        omega = logsumexp(util, 1)  # (I, T)
        if np.any(omega.max(axis=0) < _LOG_NO_SHARE):
            continue  # no share in such a period can clear the floor
        V = np.empty((I, T))
        V[:, T - 1] = _terminal_value(beta, omega[:, T - 1])
        for t in range(T - 2, -1, -1):
            V[:, t] = np.logaddexp(beta * V[:, t + 1], omega[:, t])

        ccp = np.exp(util - V[:, None, :])
        ccp0 = np.exp(beta * V[:, 1:] - V[:, :-1])  # the keep rates of periods 0..T-2
        pr0 = np.cumprod(np.concatenate([np.ones((I, 1)), ccp0], axis=1), axis=1)
        # C order, so that outside has the bits of the forward pass's 1 - sum_j S_jt
        shares = np.ascontiguousarray(_conditional_shares(ccp, pr0, np.full(I, 1.0 / I)))
        outside = 1.0 - shares.sum(axis=0)
        if np.all(shares > _SHARE_FLOOR) and np.all(outside > _SHARE_FLOOR):
            break
    else:
        raise _degenerate(p)

    market = DurableMarket(shares=shares, outside_shares=outside, mu=mu,
                           weights=np.full(I, 1.0 / I), beta=beta)
    em = _exp_mu_t(market)  # dist audits the library's shares at (delta, V)
    _, s = _shares_at(delta, V, _omega_from_delta(delta, em), market, em)
    truth = DurableSolution(value=V, delta=delta, pr0=pr0,
                            dist=log_share_gap(market.log_shares, s))
    return DynamicInstance(market=market, solution_true=truth, theta_true=np.array(_DURABLE_SDS),
                           X=X, nodes=nodes, redraws=redraws)


def draw_theta(theta_true, rng: np.random.Generator) -> np.ndarray:
    """Candidate nonlinear parameters, componentwise U[0, 2*theta_true]."""
    theta_true = np.asarray(theta_true, dtype=float)
    return rng.random(theta_true.shape) * 2.0 * theta_true


def large_heterogeneity_market() -> tuple[StaticMarket, np.ndarray]:
    """The fixed two-type, two-product market with mu = 10 on the diagonal.

    Built from delta = (0, -1), mu = [[10, 0], [0, 10]], weights (0.1, 0.9);
    shares are the exact model shares at that delta. Returns (market, delta).
    """
    delta = np.array([0.0, -1.0])
    mu = np.array([[10.0, 0.0], [0.0, 10.0]])
    weights = np.array([0.1, 0.9])
    s_j, s_0 = _true_shares(delta, mu, weights)
    market = StaticMarket(shares=s_j, outside_share=1.0 - s_j.sum(), mu=mu,
                          weights=weights)
    return market, delta
