"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's solver paths: shares are
computed with plain (unshifted) arithmetic on small well-scaled instances,
and the root of S = s(delta) is found by a damped Newton iteration with an
analytic Jacobian. The durable loop references at the end are the library's
passes as plain loops over periods. The nested-logit per-nest loops are the
library's kernels before they moved to nest-size classes, the reference for
the classes' bits.
"""

import numpy as np

from demandinv.dynamic import PR0_FLOOR
from demandinv.numerics import logsumexp
from demandinv.static_rcl import _log_s0, exp_mu, outside_logit


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


def log_outside_share(u, weights):
    """log s_0 of the logits of utilities u (I, K), in logs: it stays finite
    where s_0 itself underflows."""
    a, _, _, denom = log_outside_logit(u)
    return lse((-(a + np.log(denom)))[:, None], 0, weights)[0]


def log_phi_delta(delta, gamma, mkt):
    s_j, _ = log_shares(delta, mkt.mu, mkt.weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta + (mkt.log_shares - np.log(s_j))
        if not gamma:
            return out
        return out - gamma * (mkt.log_outside
                              - log_outside_share(delta[None, :] + mkt.mu, mkt.weights))


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
    s_j, _, iv = log_nested_shares(delta, base.mu, base.weights, mkt.groups, mkt.rho)
    s_g = np.array([s_j[idx].sum() for idx in mkt.groups])
    rho_j = mkt.rho[mkt.nest_of]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = delta + (1.0 - rho_j) * (base.log_shares - np.log(s_j))
        if not gamma:
            return out
        gap_g = np.log(mkt.nest_shares) - np.log(s_g)
        return (out + gamma * rho_j * gap_g[mkt.nest_of]
                - gamma * (base.log_outside - log_outside_share(iv, base.weights)))


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


def loop_durable_forward(V, mkt, em):
    """dynamic._forward_pass(mkt, em)(V) as one plain loop over periods, the
    reference whose bits the kernel keeps. It runs without the floor, with
    the active mass m_t = (w @ pr0_init) S0_0 ... S0_{t-1}, where S0_t = 1 -
    sum_j S_jt, and, if some pr0 then lies below PR0_FLOOR or is NaN, again
    with the floor and m_t = w @ pr0_t. If pr0_init lies below the floor, it
    runs floored at once: the kernel's unfloored run then always falls
    through to the floored one, and with one period the two give the same
    bits."""
    a, E = em
    w = mkt.weights
    T = mkt.horizon
    z = a - V.T  # (T, I)
    cb = z.max(axis=1)
    ez = np.exp(z - cb[:, None])
    Ew = w[:, None] * E
    S = mkt.shares.T
    s0 = 1.0 - mkt.shares.sum(axis=0)
    m = np.cumprod(np.concatenate([[w @ mkt.pr0_init], s0[:-1]]))
    r, Er, pr0 = np.empty((T, mkt.n_products)), np.empty_like(z), np.empty_like(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for floor in (not (mkt.pr0_init >= PR0_FLOOR).all(), True):
            pr0[0] = p = mkt.pr0_init
            for t in range(T):
                q = p * ez[t]
                r[t] = S[t] * (w @ p if floor else m[t]) / (q @ Ew[t])
                Er[t] = E[t] @ r[t]
                if t + 1 < T:
                    p = pr0[t + 1] = p - q * Er[t]
                    if floor:
                        p = pr0[t + 1] = np.maximum(p, PR0_FLOOR)
            if floor or (pr0[1:] >= PR0_FLOOR).all():
                break
        delta = (np.log(r) - cb[:, None]).T
        omega = (np.log(Er) + a - cb[:, None]).T
    return delta, omega, pr0.T


def loop_pr0_path(omega, V, mkt):
    """dynamic._pr0_path as one loop over periods that floors every pr0_{t+1}."""
    with np.errstate(over="ignore", invalid="ignore"):
        keep = np.ascontiguousarray((1.0 - np.exp(omega - V)).T)  # (T, I)
        pr0 = np.empty_like(keep)
        pr0[0] = mkt.pr0_init
        for t in range(mkt.horizon - 1):
            pr0[t + 1] = np.maximum(pr0[t] * keep[t], PR0_FLOOR)
    return pr0.T.copy()


# The nested-logit kernels as they were before the nest-size classes: one
# loop over nests, each nest's E the column-major exp_mu(mu[:, idx] / (1 -
# rho_g)). Copied verbatim, renamed only, as the reference for the classes'
# bits; unlike the oracles above they share outside_logit, _log_s0 and
# logsumexp with the kernels they check.

def per_nest_exp_mu(mu, groups, rho):
    """exp_mu of each nest's scaled deviations mu[:, g] / (1 - rho_g)."""
    return tuple(exp_mu(mu[:, idx] / (1.0 - rho[g])) for g, idx in enumerate(groups))


def per_nest_within(delta, groups, rho, em):
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


def per_nest_shares(delta, weights, groups, rho, em):
    ivT, parts = per_nest_within(delta, groups, rho, em)
    _, e, e0, denom = outside_logit(ivT.T)  # the nest level, (I, G)
    s_j = np.empty(delta.size)
    for g, idx in enumerate(groups):
        ed, rowsum = parts[g]
        s_j[idx] = ed * ((weights * (e[:, g] / denom) / rowsum) @ em[g][1])
    s_g = np.array([s_j[idx].sum() for idx in groups])
    return s_j, s_g, float(weights @ (e0 / denom)), ivT.T


def per_nest_phi_delta_map(mkt, gamma, em):
    base, rho_j = mkt.base, mkt.product_rho

    def phi(delta):
        s_j, s_g, s_0, iv = per_nest_shares(delta, base.weights, mkt.groups, mkt.rho, em)
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


def per_nest_iota_IV_to_delta_map(mkt, gamma, em):
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
