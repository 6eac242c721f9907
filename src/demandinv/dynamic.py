"""Inner loops for the perfectly-durable-goods dynamic model.

Consumers exit the market after a purchase; under perfect foresight the
market state is just the time index, with everything constant after the
terminal period T (V_{T+1} = V_T). Shares are conditional on the active
(non-owner) population, so sum_j S_jt + S_0t = 1 holds every period.

Algorithms:

* :func:`pf_solve` - the value-function algorithm: delta is recovered
  analytically from V each iteration, so only V is solved for.
* :func:`traditional_joint_solve` - joint (delta, V) updates in one loop.
* :func:`traditional_nested_solve` - inner value iteration per outer delta
  update, with optional hot starts.
* :func:`ivs_solve` - inclusive-value-sufficiency variant: a scalar state
  per type follows a fitted AR(1); expectations use Gauss-Hermite
  quadrature over a Chebyshev interpolant of V.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .accel import AccelConfig, FixedPointMap, solve
from .numerics import (chebyshev_eval_rows, chebyshev_fit_matrix, chebyshev_nodes,
                       gauss_hermite, log_share_gap, logsumexp, ols_ar1_rows)
from .static_rcl import SCHEMA_VERSION, check_market_data, parse_fixture

# Active fractions are floored at a tiny positive value: off the solution,
# 1 - sum_j ccp can dip below zero for extreme heterogeneity draws, which
# would poison the next period's weighted log-sum. Never binds at a solution.
PR0_FLOOR = 1e-12


@dataclass(frozen=True)
class DurableMarket:
    """Time-indexed conditional shares, mu, weights, and the discount factor.

    shares: (J, T); outside_shares: (T,); mu: (I, J, T); weights: (I,);
    pr0_init: (I,) initial non-owner fractions (defaults to ones).
    """

    shares: np.ndarray
    outside_shares: np.ndarray
    mu: np.ndarray
    weights: np.ndarray
    beta: float
    pr0_init: np.ndarray | None = None

    def __post_init__(self):
        shares = np.asarray(self.shares, dtype=float)
        outside = np.asarray(self.outside_shares, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if mu.ndim != 3:
            raise ValueError("mu must be I x J x T")
        I, J, T = mu.shape
        if shares.shape != (J, T) or outside.shape != (T,):
            raise ValueError("shares must be J x T and outside_shares length T")
        if weights.shape != (I,):
            raise ValueError("weights must have one entry per type")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        check_market_data(shares, outside, mu, weights)
        pr0 = (np.ones(I) if self.pr0_init is None
               else np.asarray(self.pr0_init, dtype=float))
        if pr0.shape != (I,) or not np.all((pr0 >= 0) & (pr0 <= 1)):
            raise ValueError("pr0_init must be I fractions in [0, 1]")
        for name, arr in (("shares", shares), ("outside_shares", outside),
                          ("mu", mu), ("weights", weights), ("pr0_init", pr0)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "beta", float(self.beta))
        # time-major views for the hot loops
        object.__setattr__(self, "_mu_t", np.ascontiguousarray(mu.transpose(2, 0, 1)))
        object.__setattr__(self, "_logS_t", np.log(shares.T))
        object.__setattr__(self, "_logS0_t", np.log(outside))

    @property
    def horizon(self) -> int:
        return self.mu.shape[2]

    @property
    def n_types(self) -> int:
        return self.mu.shape[0]

    @property
    def n_products(self) -> int:
        return self.mu.shape[1]


@dataclass
class IvsState:
    """Final inclusive-value-sufficiency state: grid, values, AR(1) fits."""

    grid: np.ndarray
    v_data: np.ndarray
    v_grid: np.ndarray
    ar1_intercept: np.ndarray
    ar1_slope: np.ndarray
    ar1_sd: np.ndarray
    gh_order: int


@dataclass
class DurableSolution:
    value: np.ndarray  # (I, T)
    delta: np.ndarray  # (J, T)
    pr0: np.ndarray    # (I, T)
    ccp: np.ndarray    # (I, J, T) product choice probabilities
    dist: float        # sup-norm log-share audit at the solution
    ivs: IvsState | None = field(default=None, repr=False)


def _v_next(V: np.ndarray) -> np.ndarray:
    """V_{t+1} with the stationary terminal condition V_{T+1} = V_T."""
    return np.concatenate([V[:, 1:], V[:, -1:]], axis=1)


def _forward(V: np.ndarray, mkt: DurableMarket):
    """Alg-step 1: sequential delta recovery and ownership propagation.

    Returns (delta (J,T), omega (I,T), pr0 (I,T)). omega is each type's
    purchase inclusive value log sum_j exp(delta + mu).
    """
    I, J, T = mkt.n_types, mkt.n_products, mkt.horizon
    w = mkt.weights
    delta = np.empty((J, T))
    omega = np.empty((I, T))
    pr0 = np.empty((I, T))
    pr0[:, 0] = mkt.pr0_init
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(T):
            b = w * pr0[:, t]
            bn = b / b.sum()
            z = mkt._mu_t[t] - V[:, t][:, None]  # (I, J)
            m = z.max(axis=0)
            sm = (bn[:, None] * np.exp(z - m[None, :])).sum(axis=0)
            d_t = mkt._logS_t[t] - m - np.log(sm)
            delta[:, t] = d_t
            q = d_t[None, :] + z  # log ccp
            qm = q.max(axis=1)
            sq = np.exp(q - qm[:, None]).sum(axis=1)
            omega[:, t] = V[:, t] + qm + np.log(sq)
            if t + 1 < T:
                buy = np.exp(qm + np.log(sq))
                pr0[:, t + 1] = np.maximum(pr0[:, t] * (1.0 - buy), PR0_FLOOR)
    return delta, omega, pr0


def pf_forward_pass(V, mkt: DurableMarket):
    """Public forward pass: (delta (J,T), ccp (I,J,T), pr0 (I,T)) at V."""
    V = np.asarray(V, dtype=float)
    delta = _forward(V, mkt)[0]
    pr0, ccp, _ = _shares_at(delta, V, mkt)
    return delta, ccp, pr0


def _backup(V: np.ndarray, ev_next: np.ndarray, omega: np.ndarray, gamma: float,
            pr0: np.ndarray, mkt: DurableMarket) -> np.ndarray:
    """log(exp(beta*EV') + exp(omega) * (s0_hat/S0)^gamma) for next-period
    (expected) values EV' and purchase inclusive values omega, both (I, T); the
    model outside share s0_hat weights exp(beta*EV' - V) by w * pr0."""
    bev = mkt.beta * ev_next
    if gamma != 0.0:
        b = mkt.weights[:, None] * pr0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s0_hat = (b * np.exp(bev - V)).sum(axis=0) / b.sum(axis=0)
            omega = omega + gamma * (np.log(s0_hat) - mkt._logS0_t)[None, :]
    return np.logaddexp(bev, omega)


def pf_value_update(V, delta, gamma: float, mkt: DurableMarket, pr0=None) -> np.ndarray:
    """One Bellman-style backup with the outside-share correction.

    V'_it = log(exp(beta*V_{i,t+1}) + sum_j exp(delta_jt + mu_ijt)
            * (s0t_hat/S0t)^gamma), with V_{T+1} = V_T.
    """
    V = np.asarray(V, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if gamma != 0.0 and pr0 is None:
        pr0 = _pr0_from(delta, V, mkt)
    return _backup(V, _v_next(V), _omega_from_delta(delta, mkt), gamma, pr0, mkt)


def _omega_from_delta(delta: np.ndarray, mkt: DurableMarket) -> np.ndarray:
    """log sum_j exp(delta_jt + mu_ijt), shape (I, T)."""
    return logsumexp(delta.T[:, None, :] + mkt._mu_t, 2).T  # (T, I, J) -> (I, T)


def _pr0_from(delta: np.ndarray, V: np.ndarray, mkt: DurableMarket) -> np.ndarray:
    """Ownership path implied by the choice probabilities of (delta, V)."""
    I, T = mkt.n_types, mkt.horizon
    pr0 = np.empty((I, T))
    pr0[:, 0] = mkt.pr0_init
    with np.errstate(over="ignore"):
        for t in range(T - 1):
            q = delta[:, t][None, :] + mkt._mu_t[t] - V[:, t][:, None]
            buy = np.exp(q).sum(axis=1)
            pr0[:, t + 1] = np.maximum(pr0[:, t] * (1.0 - buy), PR0_FLOOR)
    return pr0


def _conditional_shares(ccp: np.ndarray, pr0: np.ndarray, weights: np.ndarray) -> np.ndarray:
    b = weights[:, None] * pr0  # (I, T)
    return np.einsum("it,ijt->jt", b, ccp) / b.sum(axis=0)[None, :]


def _shares_at(delta: np.ndarray, V: np.ndarray, mkt: DurableMarket):
    """(pr0 (I,T), ccp (I,J,T), conditional shares (J,T)) implied by (delta, V)."""
    pr0 = _pr0_from(delta, V, mkt)
    with np.errstate(over="ignore"):
        ccp = np.exp(delta[None, :, :] + mkt.mu - V[:, None, :])
    return pr0, ccp, _conditional_shares(ccp, pr0, mkt.weights)


def _delta_update(delta: np.ndarray, V: np.ndarray, gamma: float, phi: float,
                  mkt: DurableMarket) -> np.ndarray:
    """delta + phi*(log S - log s) - gamma*(log S0 - log s0) at (delta, V)."""
    _, _, s = _shares_at(delta, V, mkt)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_next = delta + phi * (np.log(mkt.shares) - np.log(s))
        if gamma != 0.0:
            s0 = 1.0 - s.sum(axis=0)
            d_next = d_next - gamma * (np.log(mkt.outside_shares) - np.log(s0))[None, :]
    return d_next


def _solution(delta: np.ndarray, V: np.ndarray, mkt: DurableMarket) -> DurableSolution:
    pr0, ccp, s = _shares_at(delta, V, mkt)
    return DurableSolution(value=V, delta=delta, pr0=pr0, ccp=ccp,
                           dist=log_share_gap(np.log(mkt.shares), s))


def bellman_residual(sol: DurableSolution, mkt: DurableMarket) -> float:
    """sup |V - Psi^{gamma=0}(V, delta)|: the plain Bellman audit."""
    V = sol.value
    resid = V - pf_value_update(V, sol.delta, 0.0, mkt)
    return float(np.max(np.abs(resid)))


def _time_blocks(I: int, T: int) -> tuple[np.ndarray, ...]:
    """Index groups of the flattened (I, T) state, one group per period."""
    return tuple(np.arange(I) * T + t for t in range(T))


def pf_solve(mkt: DurableMarket, gamma: float, cfg: AccelConfig):
    """Perfect-foresight value-function algorithm: iterate V only.

    Each evaluation runs the forward delta/ownership pass and one corrected
    value backup. cfg.use_blocks turns on one spectral/SQUAREM step size
    per period, each capped at accel.DEFAULT_BLOCK_STEP_CAP (10).
    """
    I, T = mkt.n_types, mkt.horizon
    shape = (I, T)

    def evaluate(x):
        V = x.reshape(shape)
        _, omega, pr0 = _forward(V, mkt)
        return _backup(V, _v_next(V), omega, gamma, pr0, mkt).ravel()

    fp = FixedPointMap(evaluate, I * T, block_partition=_time_blocks(I, T))
    outcome = solve(fp, np.zeros(I * T), cfg)
    V = outcome.point.reshape(shape)
    return _solution(_forward(V, mkt)[0], V, mkt), outcome


def initial_delta_myopic(mkt: DurableMarket) -> np.ndarray:
    """Per-period homogeneous logit inversion log S_jt - log S_0t."""
    return np.log(mkt.shares) - np.log(mkt.outside_shares)[None, :]


def traditional_joint_solve(mkt: DurableMarket, gamma: float, phi: float,
                            cfg: AccelConfig):
    """One-loop joint update of (delta, V).

    delta gets the dampened share correction plus the gamma outside term;
    V gets a plain Bellman backup at the current delta. Terminates when
    both sup-norm changes pass the tolerance (single concatenated state).
    """
    I, J, T = mkt.n_types, mkt.n_products, mkt.horizon
    nd = J * T

    def evaluate(x):
        delta = x[:nd].reshape(J, T)
        V = x[nd:].reshape(I, T)
        d_next = _delta_update(delta, V, gamma, phi, mkt)
        v_next = np.logaddexp(mkt.beta * _v_next(V), _omega_from_delta(delta, mkt))
        return np.concatenate([d_next.ravel(), v_next.ravel()])

    x0 = np.concatenate([initial_delta_myopic(mkt).ravel(), np.zeros(I * T)])
    fp = FixedPointMap(evaluate, nd + I * T)
    outcome = solve(fp, x0, cfg)
    sol = _solution(outcome.point[:nd].reshape(J, T), outcome.point[nd:].reshape(I, T), mkt)
    return sol, outcome


def traditional_nested_solve(mkt: DurableMarket, gamma: float, phi: float,
                             inner_cfg: AccelConfig, outer_cfg: AccelConfig,
                             hot_start: bool = True):
    """Nested loops: solve V to tolerance for each outer delta update.

    Returns (solution, outer outcome, total inner value-backup evaluations).
    The outer evaluation count in the outcome counts delta-map applications.
    """
    I, J, T = mkt.n_types, mkt.n_products, mkt.horizon
    state = {"V": np.zeros((I, T)), "psi_evals": 0}

    def inner_solve(delta):
        omega = _omega_from_delta(delta, mkt)

        def backup(x):
            V = x.reshape(I, T)
            return np.logaddexp(mkt.beta * _v_next(V), omega).ravel()

        v0 = state["V"] if hot_start else np.zeros((I, T))
        fp = FixedPointMap(backup, I * T)
        res = solve(fp, v0.ravel(), inner_cfg)
        state["psi_evals"] += res.evaluations
        return res.point.reshape(I, T)

    def outer_evaluate(x):
        delta = x.reshape(J, T)
        state["V"] = inner_solve(delta)
        return _delta_update(delta, state["V"], gamma, phi, mkt).ravel()

    fp = FixedPointMap(outer_evaluate, J * T)
    outcome = solve(fp, initial_delta_myopic(mkt).ravel(), outer_cfg)
    sol = _solution(outcome.point.reshape(J, T), state["V"], mkt)
    return sol, outcome, state["psi_evals"]


# ---------------------------------------------------------------------------
# Inclusive value sufficiency


@dataclass(frozen=True)
class IvsGrid:
    n_nodes: int = 10
    lo: float = -20.0
    hi: float = 10.0
    gh_order: int = 5


def ivs_solve(mkt: DurableMarket, gamma: float, grid: IvsGrid, cfg: AccelConfig):
    """Inclusive-value-sufficiency algorithm.

    The state vector stacks V at the (moving) data points omega_it and V at
    the fixed Chebyshev grid; each evaluation refits the per-type AR(1) on
    the implied inclusive values and integrates the interpolated V with
    Gauss-Hermite quadrature. Step sizes are scalar by design.
    """
    I, T = mkt.n_types, mkt.horizon
    N = grid.n_nodes
    nodes = chebyshev_nodes(N, grid.lo, grid.hi)
    fitmat = chebyshev_fit_matrix(N)
    quad = gauss_hermite(grid.gh_order)
    ghx = quad.nodes * np.sqrt(2.0)
    ghw = quad.weights / np.sqrt(np.pi)
    nd = I * T

    def expectations(v_grid, theta0, theta1, sd, points):
        """E[V(omega')|omega] at per-type points (I, M) via quadrature."""
        coefs = v_grid @ fitmat.T  # (I, N)
        args = (theta0[:, None, None] + theta1[:, None, None] * points[:, :, None]
                + sd[:, None, None] * ghx[None, None, :])  # (I, M, Q)
        vals = chebyshev_eval_rows(coefs, args, grid.lo, grid.hi)
        return vals @ ghw

    def evaluate(x):
        v_data = x[:nd].reshape(I, T)
        v_grid = x[nd:].reshape(I, N)
        _, omega, pr0 = _forward(v_data, mkt)
        if not np.all(np.isfinite(omega)):
            return np.full_like(x, np.nan)
        theta0, theta1, sd = ols_ar1_rows(omega)
        e_data = expectations(v_grid, theta0, theta1, sd, omega)  # (I, T)
        e_grid = expectations(v_grid, theta0, theta1, sd,
                              np.broadcast_to(nodes, (I, N)))
        v_data_next = _backup(v_data, e_data, omega, gamma, pr0, mkt)
        v_grid_next = np.logaddexp(mkt.beta * e_grid, nodes[None, :])
        return np.concatenate([v_data_next.ravel(), v_grid_next.ravel()])

    fp = FixedPointMap(evaluate, nd + I * N)
    outcome = solve(fp, np.zeros(nd + I * N), cfg)
    v_data = outcome.point[:nd].reshape(I, T)
    v_grid = outcome.point[nd:].reshape(I, N)
    delta, omega, _ = _forward(v_data, mkt)
    theta0, theta1, sd = ols_ar1_rows(omega)
    state = IvsState(grid=nodes, v_data=v_data, v_grid=v_grid,
                     ar1_intercept=theta0, ar1_slope=theta1, ar1_sd=sd,
                     gh_order=grid.gh_order)
    return replace(_solution(delta, v_data, mkt), ivs=state), outcome


# ---------------------------------------------------------------------------
# JSON fixtures


def durable_market_to_json(mkt: DurableMarket) -> str:
    T = mkt.horizon
    doc = {
        "schema_version": SCHEMA_VERSION,
        "T": T,
        "beta": mkt.beta,
        # t-major: one entry per period; shares conditional on active consumers
        "shares": mkt.shares.T.tolist(),
        "outside_shares": mkt.outside_shares.tolist(),
        "mu": [mkt.mu[:, :, t].tolist() for t in range(T)],
        "weights": mkt.weights.tolist(),
        "pr0_init": mkt.pr0_init.tolist(),
    }
    return json.dumps(doc)


def durable_market_from_json(text: str) -> DurableMarket:
    doc = parse_fixture(text)
    shares = np.array(doc["shares"], dtype=float).T
    mu = np.stack([np.array(m, dtype=float) for m in doc["mu"]], axis=2)
    return DurableMarket(
        shares=shares,
        outside_shares=np.array(doc["outside_shares"], dtype=float),
        mu=mu,
        weights=np.array(doc["weights"], dtype=float),
        beta=float(doc["beta"]),
        pr0_init=np.array(doc["pr0_init"], dtype=float),
    )
