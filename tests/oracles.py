"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's solver paths: shares are
computed with plain (unshifted) arithmetic on small well-scaled instances,
and the root of S = s(delta) is found by a damped Newton iteration with an
analytic Jacobian.
"""

import numpy as np


def naive_shares(delta, mu, weights):
    """Plain mixed-logit shares, no overflow guards (small instances only)."""
    e = np.exp(delta[None, :] + mu)
    denom = 1.0 + e.sum(axis=1)
    s_ij = e / denom[:, None]
    return weights @ s_ij, float(weights @ (1.0 / denom)), s_ij


def share_jacobian(delta, mu, weights):
    """d log s_j / d delta_k for the mixed logit."""
    s_j, _, s_ij = naive_shares(delta, mu, weights)
    J = delta.size
    jac = np.empty((J, J))
    for j in range(J):
        for k in range(J):
            cross = float(np.sum(weights * s_ij[:, j] * s_ij[:, k]))
            own = float(np.sum(weights * s_ij[:, j])) if j == k else 0.0
            jac[j, k] = (own - cross) / s_j[j]
    return jac


def newton_invert(shares, mu, weights, tol=1e-13, max_iter=500):
    """Damped Newton on g(delta) = log s(delta) - log S."""
    S = np.asarray(shares, dtype=float)
    delta = np.log(S) - np.log(1.0 - S.sum())
    for _ in range(max_iter):
        s_j, _, _ = naive_shares(delta, mu, weights)
        g = np.log(s_j) - np.log(S)
        if np.max(np.abs(g)) < tol:
            return delta
        step = np.linalg.solve(share_jacobian(delta, mu, weights), g)
        lam = 1.0
        while lam > 1e-6:
            cand = delta - lam * step
            s_c, _, _ = naive_shares(cand, mu, weights)
            if np.all(s_c > 0) and np.max(np.abs(np.log(s_c) - np.log(S))) \
                    <= np.max(np.abs(g)):
                break
            lam *= 0.5
        delta = delta - lam * step
    raise RuntimeError("Newton oracle failed to converge")


def naive_nested_shares(delta, mu, weights, nest_of, rho):
    """Plain nested-logit shares (small instances only)."""
    I, J = mu.shape
    G = int(np.max(nest_of)) + 1
    iv = np.empty((I, G))
    for g in range(G):
        idx = np.flatnonzero(nest_of == g)
        iv[:, g] = (1.0 - rho[g]) * np.log(
            np.exp((delta[idx][None, :] + mu[:, idx]) / (1.0 - rho[g])).sum(axis=1))
    top = 1.0 + np.exp(iv).sum(axis=1)
    s_ij = np.empty((I, J))
    for j in range(J):
        g = nest_of[j]
        s_ij[:, j] = (np.exp((delta[j] + mu[:, j]) / (1.0 - rho[g]))
                      / np.exp(iv[:, g] / (1.0 - rho[g]))
                      * np.exp(iv[:, g]) / top)
    return weights @ s_ij, float(weights @ (1.0 / top))


def newton_invert_nested(shares, mu, weights, nest_of, rho, tol=1e-13,
                         max_iter=800):
    """Damped Newton with a finite-difference Jacobian for the nested model."""
    S = np.asarray(shares, dtype=float)
    J = S.size
    delta = np.log(S) - np.log(1.0 - S.sum())

    def g(d):
        s_j, _ = naive_nested_shares(d, mu, weights, nest_of, rho)
        return np.log(s_j) - np.log(S)

    for _ in range(max_iter):
        val = g(delta)
        if np.max(np.abs(val)) < tol:
            return delta
        jac = np.empty((J, J))
        h = 1e-7
        for k in range(J):
            dp = delta.copy()
            dp[k] += h
            dm = delta.copy()
            dm[k] -= h
            jac[:, k] = (g(dp) - g(dm)) / (2 * h)
        step = np.linalg.solve(jac, val)
        lam = 1.0
        while lam > 1e-6:
            if np.max(np.abs(g(delta - lam * step))) <= np.max(np.abs(val)):
                break
            lam *= 0.5
        delta = delta - lam * step
    raise RuntimeError("nested Newton oracle failed to converge")


# ---------------------------------------------------------------------------
# Log-space reference kernels. The library evaluates shares in exp space,
# exp(delta_j + mu_ij) = exp(delta_j) * exp(a_i) * E_ij with exp(mu - a)
# taken once per solve; these compute the same quantities with a max-shifted
# log-sum-exp over every utility, as the library did before, and are the
# reference the exp-space kernels are compared against.


def lse(z, axis, weights=None):
    """log(sum w exp(z)) along axis, shifted by the max; weights run along rows."""
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    if weights is not None:
        e = e * weights[:, None]
    with np.errstate(divide="ignore"):
        return (m + np.log(e.sum(axis=axis, keepdims=True))).squeeze(axis)


def log_outside_logit(u):
    """(shift a, exp(u - a), exp(-a), denominator) of each row's logit of
    utilities u against an outside option at 0, a = max(max_k u_k, 0)."""
    a = np.maximum(u.max(axis=1), 0.0)
    e = np.exp(u - a[:, None])
    e0 = np.exp(-a)
    return a, e, e0, e0 + e.sum(axis=1)


def log_shares(delta, mu, weights):
    _, e, e0, denom = log_outside_logit(delta[None, :] + mu)
    return weights @ (e / denom[:, None]), float(weights @ (e0 / denom))


def log_phi_delta(delta, gamma, mkt):
    s_j, s_0 = log_shares(delta, mkt.mu, mkt.weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta + (mkt.log_shares - np.log(s_j))
        return out - gamma * (mkt.log_outside - np.log(s_0)) if gamma else out


def log_iota_delta_to_V(delta, mu):
    a, _, _, denom = log_outside_logit(delta[None, :] + mu)
    return a + np.log(denom)


def log_iota_V_to_delta(V, gamma, mkt):
    delta = mkt.log_shares - lse(mkt.mu - V[:, None], 0, mkt.weights)
    if not gamma:
        return delta
    return delta - gamma * (mkt.log_outside - lse((-V)[:, None], 0, mkt.weights)[0])


def log_phi_V(V, gamma, mkt):
    return log_iota_delta_to_V(log_iota_V_to_delta(V, gamma, mkt), mkt.mu)


def log_kalouptsidi_delta_from_r(r, mkt):
    return mkt.log_shares - lse(mkt.mu + r[:, None], 0)


def log_nested_shares(delta, mu, weights, groups, rho):
    """(s_j, s_0, IV) of the nested logit."""
    iv = np.column_stack([(1.0 - rho[g]) * lse((delta[idx] + mu[:, idx]) / (1.0 - rho[g]), 1)
                          for g, idx in enumerate(groups)])
    _, e, e0, denom = log_outside_logit(iv)
    s_ij = np.empty_like(mu)
    for g, idx in enumerate(groups):
        z = (delta[idx][None, :] + mu[:, idx] - iv[:, [g]]) / (1.0 - rho[g])
        s_ij[:, idx] = np.exp(z) * (e[:, [g]] / denom[:, None])
    return weights @ s_ij, float(weights @ (e0 / denom)), iv


def log_rcnl_phi_delta(delta, gamma, mkt):
    base = mkt.base
    s_j, s_0, _ = log_nested_shares(delta, base.mu, base.weights, mkt.groups, mkt.rho)
    s_g = np.array([s_j[idx].sum() for idx in mkt.groups])
    rho_j = mkt.rho[mkt.nest_of]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta + (1.0 - rho_j) * (base.log_shares - np.log(s_j))
        if not gamma:
            return out
        gap_g = np.log(mkt.nest_shares) - np.log(s_g)
        return (out + gamma * rho_j * gap_g[mkt.nest_of]
                - gamma * (base.log_outside - np.log(s_0)))


def log_rcnl_iota_IV_to_delta(iv, gamma, mkt):
    base = mkt.base
    a, _, _, denom = log_outside_logit(iv)
    top = a + np.log(denom)
    rho_j = mkt.rho[mkt.nest_of]
    iv_j = iv[:, mkt.nest_of]
    z = (base.mu - iv_j) / (1.0 - rho_j)[None, :] + iv_j - top[:, None]
    delta = (1.0 - rho_j) * (base.log_shares - lse(z, 0, base.weights))
    if not gamma:
        return delta
    gap_g = np.log(mkt.nest_shares) - lse(iv - top[:, None], 0, base.weights)
    log_s0 = lse((-top)[:, None], 0, base.weights)[0]
    return (delta + gamma * rho_j * gap_g[mkt.nest_of]
            - gamma * (base.log_outside - log_s0))


def log_rcnl_phi_IV(iv, gamma, mkt):
    delta = log_rcnl_iota_IV_to_delta(iv, gamma, mkt)
    mu = mkt.base.mu
    return np.column_stack([(1.0 - mkt.rho[g]) * lse((delta[idx] + mu[:, idx])
                                                     / (1.0 - mkt.rho[g]), 1)
                            for g, idx in enumerate(mkt.groups)])


def log_durable_forward(V, mkt, pr0_floor=1e-12):
    """(delta (J,T), omega (I,T), pr0 (I,T)) of the durable-goods forward pass."""
    I, J, T = mkt.mu.shape
    delta, omega, pr0 = np.empty((J, T)), np.empty((I, T)), np.empty((I, T))
    pr0[:, 0] = mkt.pr0_init
    for t in range(T):
        b = mkt.weights * pr0[:, t]
        delta[:, t] = np.log(mkt.shares[:, t]) - lse(mkt.mu[:, :, t] - V[:, [t]], 0, b / b.sum())
        omega[:, t] = lse(delta[:, t][None, :] + mkt.mu[:, :, t], 1)
        if t + 1 < T:
            with np.errstate(over="ignore"):
                buy = np.exp(omega[:, t] - V[:, t])
            pr0[:, t + 1] = np.maximum(pr0[:, t] * (1.0 - buy), pr0_floor)
    return delta, omega, pr0


def log_durable_shares(delta, V, pr0, mkt):
    """Conditional shares (J, T) of the active consumers at (delta, V)."""
    with np.errstate(over="ignore"):
        ccp = np.exp(delta[None, :, :] + mkt.mu - V[:, None, :])
    b = mkt.weights[:, None] * pr0
    return np.einsum("it,ijt->jt", b, ccp) / b.sum(axis=0)[None, :]
