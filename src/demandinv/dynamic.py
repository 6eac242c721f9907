"""Inner loops for the perfectly-durable-goods dynamic model.

Consumers exit the market after a purchase; under perfect foresight the
market state is just the time index, with everything constant after the
terminal period T (V_{T+1} = V_T). Shares are conditional on the active
(non-owner) population, so sum_j S_jt + S_0t = 1 holds every period.

Algorithms:

* :func:`pf_solve` - the value-function algorithm: delta is recovered
  analytically from V each iteration, so only V is solved for.
* :func:`traditional_joint_solve` - joint (delta, V) updates in one loop.
* :func:`ivs_solve` - inclusive-value-sufficiency variant: a scalar state
  per type follows a fitted AR(1); expectations use Gauss-Hermite
  quadrature over a Chebyshev interpolant of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accel import (SOLVE_ERRSTATE, AccelConfig, FixedPointMap, checked_int, checked_real,
                    checked_tolerance, solve)
from .numerics import (chebyshev_eval_rows, chebyshev_fit_matrix, chebyshev_nodes,
                       log_share_gap, normal_quadrature, ols_ar1_rows)
from .static_rcl import (_checked_gamma, _freeze, _market_em, _share_arrays,
                         check_market_data, exp_mu, numeric_array)

# Active fractions are floored at a tiny positive value: off the solution,
# 1 - sum_j ccp can dip below zero for extreme heterogeneity draws, which
# would poison the next period's weighted log-sum. Never binds at a solution.
# The ownership paths apply it only where it binds, which is exact, not an
# approximation: where no fraction lies below it, it changes nothing.
PR0_FLOOR = 1e-12


@dataclass(frozen=True)
class DurableMarket:
    """Time-indexed conditional shares, mu, weights, and the discount factor.

    shares: (J, T); outside_shares: (T,); mu: (I, J, T); weights: (I,);
    beta: a real in [0, 1); pr0_init: (I,) initial non-owner fractions in
    [0, 1] (defaults to ones); the ownership paths floor later periods, not
    these. Once mu is I x J x T, each other argument of another shape raises
    ValueError naming it, as in "shares must have shape (2, 4), not (4, 2)";
    mu and weights then pass StaticMarket's value checks (_share_arrays),
    and the shares check_market_data's. The constructor adds
    the logs log_shares (J, T) and log_outside (T,), and stores shares and mu
    in C order, so that a market sums alike however it was built. Immutable:
    every array is read-only, and writing through an alias made before
    construction is unsupported, since the logs and the cached time-major exp
    factorisation of mu (_exp_mu_t) would go stale.
    """

    shares: np.ndarray
    outside_shares: np.ndarray
    mu: np.ndarray
    weights: np.ndarray
    beta: float
    pr0_init: np.ndarray | None = None

    @np.errstate(invalid="ignore")  # _share_arrays' span of a non-finite mu
    def __post_init__(self):
        shares, mu, weights = _share_arrays("shares", self.shares, self.mu, self.weights, "IJT")
        shares, mu = np.ascontiguousarray(shares), np.ascontiguousarray(mu)
        I, _, T = mu.shape
        outside = numeric_array("outside_shares", self.outside_shares, (T,))
        beta = numeric_array("beta", self.beta, ())
        if not 0.0 <= beta < 1.0:  # NaN fails
            raise ValueError(f"beta must be a real in [0, 1), not {self.beta!r}")
        check_market_data(shares, outside)
        pr0 = (np.ones(I) if self.pr0_init is None
               else numeric_array("pr0_init", self.pr0_init, (I,)))
        if not np.all((pr0 >= 0) & (pr0 <= 1)):  # NaN fails
            raise ValueError("pr0_init must lie in [0, 1]")
        if not weights @ pr0 > 0:
            raise ValueError("some type must be active in the first period")
        _freeze(self, shares=shares, outside_shares=outside, mu=mu, weights=weights,
                pr0_init=pr0, beta=float(beta),
                log_shares=np.log(shares), log_outside=np.log(outside))

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
class DurableSolution:
    """A durable-goods solve's values V, delta, ownership path and audit.

    dist audits the shares only. pf_solve and ivs_solve recover delta from V
    so that the shares match, so their dist is at rounding level (~4e-15) at
    any finite V, converged or not. bellman_residual audits a pf_solve; an
    ivs_solve's V solves the approximate IVS Bellman equation, which only
    the solve's own residual audits.
    """

    value: np.ndarray  # (I, T)
    delta: np.ndarray  # (J, T)
    pr0: np.ndarray    # (I, T)
    dist: float        # sup-norm log-share audit at the solution


def _v_next(V: np.ndarray) -> np.ndarray:
    """V_{t+1} with the stationary terminal condition V_{T+1} = V_T."""
    return np.concatenate([V[:, 1:], V[:, -1:]], axis=1)


def _exp_mu_t(mkt: DurableMarket):
    """exp_mu of mu in time-major order: a (T, I) and E (T, I, J), built once
    per market (static_rcl._market_em)."""
    return _market_em(mkt, lambda m: exp_mu(np.ascontiguousarray(m.mu.transpose(2, 0, 1))))


def _omega_from_delta(delta: np.ndarray, em) -> np.ndarray:
    """Purchase inclusive values log sum_j exp(delta_jt + mu_ijt), shape (I, T):
    per period, one matrix-vector product of E_t with exp(delta_t - max delta_t).
    The forward pass takes them from its own per-period products instead; the
    value backup and the audits take them from here."""
    a, E = em
    c = delta.max(axis=0)
    rowsum = (E @ np.exp(delta - c).T[:, :, None])[:, :, 0]  # (T, I)
    return (c[:, None] + a + np.log(rowsum)).T


def _pr0_path(omega: np.ndarray, V: np.ndarray, mkt: DurableMarket) -> np.ndarray:
    """Ownership path of the purchase probabilities exp(omega - V), (I, T):
    the running product (np.cumprod, in the loop's order) of pr0_init and the
    keep rates 1 - exp(omega_t - V_t), or, where that lies below PR0_FLOOR or
    is NaN, the loop that floors every period. Exact either way. Keep rates
    are at most 1, so a pr0_init entry below the floor takes the loop."""
    pr0 = np.vstack([mkt.pr0_init, 1.0 - np.exp(omega[:, :-1] - V[:, :-1]).T])  # (T, I)
    path = np.cumprod(pr0, axis=0)
    if (path[1:] >= PR0_FLOOR).all():  # NaN fails
        return path.T.copy()
    for p, p_next in zip(pr0, pr0[1:]):
        np.maximum(p * p_next, PR0_FLOOR, out=p_next)
    return pr0.T.copy()  # C order: the callers' sums over types keep their bits


def _forward_pass(mkt: DurableMarket, em):
    """Alg-step 1, delta recovery and ownership propagation, as a function of
    V alone. Its buffers and their per-period rows are allocated once, so a
    solve builds it once for all its evaluations; the pr0 it returns is its
    buffer, which the next call overwrites.

    The function returns (delta (J,T), omega (I,T), pr0 (I,T)). omega is each
    type's purchase inclusive value log sum_j exp(delta + mu). Only the
    ownership path is sequential, so the loop over periods carries only pr0.
    With cb_t = max_i (a_i - V_i) and ez_t = exp(a_t - V_t - cb_t), period t
    takes r_t = m_t S_t / ((pr0_t ez_t) @ Ew_t), which is exp(delta_t + cb_t),
    with Ew_t = w E_t; then E_t @ r_t, which is exp(omega_t - a_t + cb_t), and
    pr0_{t+1} = pr0_t - (pr0_t ez_t) (E_t @ r_t): six numpy calls, two
    products over E_t and no exp or log, written in place. m_t = w . pr0_t is
    the active mass. Exactly the consumers who choose the outside option stay
    active, so m_{t+1} = m_t S0_t, and m_t = (w . pr0_init) S0_0 ... S0_{t-1}
    comes from the data once per build. S0_t is taken as 1 - sum_j S_jt, the
    share that the recovered delta leaves outside: the data's outside share
    may differ from it by up to 1e-12, and m_t would compound that. The
    identity holds while no fraction is floored: the floor PR0_FLOOR adds
    mass. So the periods run again with the floor, and sum w . pr0_t every
    period, only if the unfloored path lies below it or is NaN; a pr0_init
    entry below it leaves pr0_1 below it too. The two runs agree to rounding
    where the floor binds nowhere. delta = log r - cb and omega = log(E @ r)
    + a - cb then take every period at once.
    """
    a, E = em
    w, S = mkt.weights, np.ascontiguousarray(mkt.shares.T)
    T, I = a.shape
    s0 = 1.0 - mkt.shares.sum(axis=0)
    mass = np.cumprod(np.concatenate([[w.dot(mkt.pr0_init)], s0[:-1]]))
    Sm, Ew = S * mass[:, None], w[:, None] * E  # Ew: (T, I, J), for this pass only
    ez, Er, pr0 = np.empty_like(a), np.empty_like(a), np.empty((T + 1, I))
    cb, r, q = np.empty(T), np.empty((T, mkt.n_products)), np.empty(I)
    pr0[0] = mkt.pr0_init  # pr0[T], the fractions after the horizon, is scratch
    rows = tuple(zip(S, Sm, Ew, E, ez, r, Er, pr0[1:]))

    def periods(floor):  # r_t, E_t @ r_t and pr0_{t+1} for every period
        p = pr0[0]
        for S_t, Sm_t, Ew_t, E_t, ez_t, r_t, Er_t, p_next in rows:
            if floor:  # the floor adds mass, so m_t is summed
                Sm_t = np.multiply(S_t, w.dot(p), r_t)
            np.divide(Sm_t, np.multiply(p, ez_t, q).dot(Ew_t), r_t)
            np.multiply(q, E_t.dot(r_t, Er_t), q)
            p = np.subtract(p, q, p_next)
            if floor:
                np.maximum(p, PR0_FLOOR, out=p)

    def forward(V):
        np.subtract(a, V.T, out=ez)  # z = a - V.T
        np.maximum.reduce(ez, 1, out=cb)
        np.exp(np.subtract(ez, cb[:, None], out=ez), out=ez)
        periods(False)
        if not (pr0[1:T] >= PR0_FLOOR).all():  # NaN fails
            periods(True)
        delta = (np.log(r) - cb[:, None]).T
        omega = (np.log(Er) + a - cb[:, None]).T
        return delta, omega, pr0[:T].T
    return forward


def _backup(V: np.ndarray, ev_next: np.ndarray, omega: np.ndarray, gamma: float,
            pr0: np.ndarray, mkt: DurableMarket) -> np.ndarray:
    """log(exp(beta*EV') + exp(omega) * (s0_hat/S0)^gamma) for next-period
    (expected) values EV' and purchase inclusive values omega, both (I, T); the
    model outside share s0_hat weights exp(beta*EV' - V) by w * pr0.

    The log of the sum is np.logaddexp's own formula, max + log1p(exp(min -
    max)), through numpy's vectorised loops, where np.logaddexp runs a scalar
    loop; min - max is -|bev - omega| exactly. Where both terms are the same
    infinity it gives NaN, not that infinity: the solve ends non_finite
    either way."""
    bev = mkt.beta * ev_next
    if gamma != 0.0:
        b = mkt.weights[:, None] * pr0
        s0_hat = (b * np.exp(bev - V)).sum(axis=0) / b.sum(axis=0)
        omega = omega + gamma * (np.log(s0_hat) - mkt.log_outside)[None, :]
    top = np.maximum(bev, omega)
    gap = np.subtract(np.minimum(bev, omega, out=bev), top, out=bev)
    return np.add(top, np.log1p(np.exp(gap, out=gap), out=gap), out=top)


@np.errstate(**SOLVE_ERRSTATE)
def pf_value_update(V, delta, gamma: float, mkt: DurableMarket) -> np.ndarray:
    """One Bellman-style backup with the outside-share correction.

    V'_it = log(exp(beta*V_{i,t+1}) + sum_j exp(delta_jt + mu_ijt)
            * (s0t_hat/S0t)^gamma), with V_{T+1} = V_T.
    """
    gamma = _checked_gamma(gamma)
    V = numeric_array("V", V, (mkt.n_types, mkt.horizon))
    delta = numeric_array("delta", delta, (mkt.n_products, mkt.horizon))
    omega = _omega_from_delta(delta, _exp_mu_t(mkt))
    pr0 = _pr0_path(omega, V, mkt) if gamma != 0.0 else None
    return _backup(V, _v_next(V), omega, gamma, pr0, mkt)


def _shares_at(delta: np.ndarray, V: np.ndarray, omega: np.ndarray, mkt: DurableMarket,
               em):
    """(pr0 (I,T), conditional shares (J,T)) implied by (delta, V), given
    the purchase inclusive values omega at delta: per period, one matrix-vector
    product over E of the active weights times exp(c + a - V), shifted by
    its max m, with c = max_j delta."""
    a, E = em
    pr0 = _pr0_path(omega, V, mkt)
    b = mkt.weights[:, None] * pr0
    c = delta.max(axis=0)
    y = c[:, None] + a - V.T  # (T, I): log ccp_ijt - log(E_tij exp(delta_jt - c_t))
    m = y.max(axis=1, keepdims=True)
    bw = (b / b.sum(axis=0)).T * np.exp(y - m)
    s = np.exp(delta - c + m.T) * (bw[:, None, :] @ E)[:, 0, :].T
    return pr0, s


def _solution(delta: np.ndarray, V: np.ndarray, omega: np.ndarray, mkt: DurableMarket,
              em) -> DurableSolution:
    pr0, s = _shares_at(delta, V, omega, mkt, em)
    return DurableSolution(value=V, delta=delta, pr0=pr0, dist=log_share_gap(mkt.log_shares, s))


def bellman_residual(sol: DurableSolution, mkt: DurableMarket) -> float:
    """sup |V - Psi^{gamma=0}(V, delta)|: the plain Bellman audit."""
    V = sol.value
    resid = V - pf_value_update(V, sol.delta, 0.0, mkt)
    return float(np.max(np.abs(resid)))


@np.errstate(**SOLVE_ERRSTATE)
def pf_solve(mkt: DurableMarket, gamma: float, cfg: AccelConfig):
    """Perfect-foresight value-function algorithm: iterate V only.

    Each evaluation runs the forward pass (a loop over periods that carries
    only pr0; delta and omega then come for all periods at once) and one
    corrected value backup. cfg.use_blocks turns on one spectral/SQUAREM step
    size per period, each capped at accel.DEFAULT_BLOCK_STEP_CAP (10); the
    solver takes them all in one vectorised pass of accel._step_rule.
    """
    gamma = _checked_gamma(gamma)
    I, T = mkt.n_types, mkt.horizon
    shape = (I, T)
    em = _exp_mu_t(mkt)
    forward = _forward_pass(mkt, em)

    def evaluate(x):
        V = x.reshape(shape)
        _, omega, pr0 = forward(V)
        return _backup(V, _v_next(V), omega, gamma, pr0, mkt).ravel()

    # coordinate i * T + t of the flattened (I, T) state is in period t's block
    fp = FixedPointMap(evaluate, block_labels=np.tile(np.arange(T), I))
    outcome = solve(fp, np.zeros(I * T), cfg)
    V = outcome.point.reshape(shape)
    delta, omega, _ = forward(V)
    return _solution(delta, V, omega, mkt, em), outcome


def initial_delta_myopic(mkt: DurableMarket) -> np.ndarray:
    """Per-period homogeneous logit inversion log S_jt - log S_0t."""
    return mkt.log_shares - mkt.log_outside[None, :]


@np.errstate(**SOLVE_ERRSTATE)
def traditional_joint_solve(mkt: DurableMarket, gamma: float, phi: float,
                            cfg: AccelConfig):
    """One-loop joint update of (delta, V).

    delta gets the dampened share correction plus the gamma outside term;
    V gets a plain Bellman backup at the current delta. Terminates when
    both sup-norm changes pass the tolerance (single concatenated state).
    """
    gamma = _checked_gamma(gamma)
    phi = checked_tolerance("phi", phi)
    I, J, T = mkt.n_types, mkt.n_products, mkt.horizon
    nd = J * T
    em = _exp_mu_t(mkt)

    def evaluate(x):
        delta = x[:nd].reshape(J, T)
        V = x[nd:].reshape(I, T)
        omega = _omega_from_delta(delta, em)
        _, s = _shares_at(delta, V, omega, mkt, em)
        # delta + phi*(log S - log s) - gamma*(log S0 - log s0) at (delta, V)
        d_next = delta + phi * (mkt.log_shares - np.log(s))
        if gamma != 0.0:
            d_next = d_next - gamma * (mkt.log_outside - np.log(1.0 - s.sum(axis=0)))[None, :]
        v_next = _backup(V, _v_next(V), omega, 0.0, None, mkt)
        return np.concatenate([d_next.ravel(), v_next.ravel()])

    x0 = np.concatenate([initial_delta_myopic(mkt).ravel(), np.zeros(I * T)])
    outcome = solve(FixedPointMap(evaluate), x0, cfg)
    delta = outcome.point[:nd].reshape(J, T)
    sol = _solution(delta, outcome.point[nd:].reshape(I, T), _omega_from_delta(delta, em),
                    mkt, em)
    return sol, outcome


# ---------------------------------------------------------------------------
# Inclusive value sufficiency


@dataclass(frozen=True)
class IvsGrid:
    """The Chebyshev grid of n_nodes nodes on [lo, hi] and the Gauss-Hermite
    order of the IVS expectations, checked once at construction, which builds
    what each ivs_solve on the grid reads (read-only, not fields): the nodes
    _nodes, their _fit_matrix and the order's rule _quadrature, raising
    ValueError for an order without finite weights (372 and above)."""

    n_nodes: int = 10
    lo: float = -20.0
    hi: float = 10.0
    gh_order: int = 5

    def __post_init__(self):
        for name in ("n_nodes", "gh_order"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), 1))
        # the interpolant maps x to (2x - lo - hi) / (hi - lo): 2x must be finite
        rule = "of magnitude at most half the largest double"
        lo = checked_real("lo", self.lo, lambda v: math.isfinite(2.0 * v), f"a real {rule}")
        hi = checked_real("hi", self.hi, lambda v: lo < v and math.isfinite(2.0 * v),
                          f"a real above lo = {lo!r} {rule}")
        _freeze(self, lo=lo, hi=hi, _nodes=chebyshev_nodes(self.n_nodes, lo, hi),
                _fit_matrix=chebyshev_fit_matrix(self.n_nodes),
                _quadrature=normal_quadrature(self.gh_order))


def _expectations(coefs, ar1, points, grid: IvsGrid, ghx, ghw) -> np.ndarray:
    """E[V(x') | x] at per-type points x (I, M), for the Chebyshev
    coefficients coefs (I, N) of V on the grid and each type's AR(1) fit
    ar1 = (intercepts, slopes, sds) of x' on x, by the Gauss-Hermite rule
    (ghx, ghw). The map z = (2x - lo - hi) / (hi - lo) onto the interpolant's
    [-1, 1] applies to the fit and the points before they broadcast over the
    Q nodes, and z is clamped to [-1, 1], which keeps the expectation from
    extrapolating the polynomial outside the grid, where it blows up. z is
    (I, Q, M): a broadcast whose innermost axis is the Q nodes runs numpy's
    inner loop Q entries at a time, at 1.7 times the cost."""
    theta0, theta1, sd = ar1
    lo, hi = grid.lo, grid.hi
    # a fitted slope above 1 times a node near max/2 overflows to inf, which
    # clamps; inf - inf is NaN, which ends the solve as non_finite
    z = (((2.0 * theta0 - (lo + hi))[:, None] + (2.0 * theta1)[:, None] * points)[:, None, :]
         + np.multiply.outer(2.0 * sd, ghx)[:, :, None])
    z /= hi - lo  # after the sum: on a grid narrower than rounding, z overflows, not to NaN
    return ghw @ chebyshev_eval_rows(coefs, np.clip(z, -1.0, 1.0, out=z))


@np.errstate(**SOLVE_ERRSTATE)
def ivs_solve(mkt: DurableMarket, gamma: float, grid: IvsGrid, cfg: AccelConfig):
    """Inclusive-value-sufficiency algorithm.

    The state vector stacks V at the (moving) data points omega_it and V at
    the fixed Chebyshev grid; each evaluation refits the per-type AR(1) on
    the implied inclusive values and integrates the interpolated V with
    Gauss-Hermite quadrature. Step sizes are scalar by design. ValueError for
    a horizon below 3, on which the AR(1) fit is not defined.

    sol.value is V at the data points. The rest of the final state follows
    from what the caller holds: V at the grid's nodes grid._nodes is
    outcome.point[I*T:].reshape(I, N), and the AR(1) fits are
    numerics.ols_ar1_rows of the inclusive values log sum_j exp(delta_jt +
    mu_ijt) at sol.delta.
    """
    gamma = _checked_gamma(gamma)
    I, T = mkt.n_types, mkt.horizon
    if T < 3:
        raise ValueError(f"ivs_solve needs a horizon of at least 3 periods for the "
                         f"AR(1) fit of the inclusive values, not {T}")
    N, nodes, fitmat = grid.n_nodes, grid._nodes, grid._fit_matrix
    ghx, ghw = grid._quadrature
    nd = I * T
    em = _exp_mu_t(mkt)
    forward = _forward_pass(mkt, em)
    grid_points = np.broadcast_to(nodes, (I, N))

    def evaluate(x):
        v_data = x[:nd].reshape(I, T)
        v_grid = x[nd:].reshape(I, N)
        _, omega, pr0 = forward(v_data)
        # a non-finite omega makes its type's AR(1) fit NaN, and so the image;
        # the expectations at the data points and the grid nodes in one call
        e = _expectations(v_grid @ fitmat.T, ols_ar1_rows(omega),
                          np.concatenate([omega, grid_points], axis=1), grid, ghx, ghw)
        e_data, e_grid = e[:, :T], e[:, T:]
        v_data_next = _backup(v_data, e_data, omega, gamma, pr0, mkt)
        v_grid_next = _backup(v_grid, e_grid, nodes, 0.0, None, mkt)
        return np.concatenate([v_data_next.ravel(), v_grid_next.ravel()])

    outcome = solve(FixedPointMap(evaluate), np.zeros(nd + I * N), cfg)
    v_data = outcome.point[:nd].reshape(I, T)
    delta, omega, _ = forward(v_data)
    return _solution(delta, v_data, omega, mkt, em), outcome
