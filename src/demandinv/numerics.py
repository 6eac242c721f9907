"""Numerical utilities shared by the solvers.

The log-sum-exp and log-share-gap kernels of every model, minimum-norm least
squares, Chebyshev nodes/interpolation, Gauss-Hermite quadrature for a
standard normal, and row-wise AR(1) fitting. All functions are pure.
"""

from __future__ import annotations

import numpy as np


def logsumexp(z: np.ndarray, axis: int, weights: np.ndarray | None = None) -> np.ndarray:
    """log(sum_k w_k exp(z_k)) along ``axis``, max-shifted so it never overflows.

    ``weights`` (one per row of a 2-D ``z``, the consumer types) default to 1.
    """
    m = z.max(axis=axis, keepdims=True)
    e = np.exp(z - m)
    if weights is not None:
        e *= weights[:, None]  # in place: no second temporary of z's size
    total = e.sum(axis=axis)
    del e  # before z: freed in the other order, glibc trims the heap and the
    # next call page-faults its temporaries afresh (20-50% slower on 1000x250)
    return m.squeeze(axis) + np.log(total)


def log_share_gap(log_S: np.ndarray, s: np.ndarray) -> float:
    """sup |log S - log s|: the DIST audit of model shares s against data."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.abs(log_S - np.log(s))))


def ls_minnorm(A, b, rcond=None) -> np.ndarray:
    """Minimum-norm least-squares solution of min ||b - A g||_2.

    Rank deficiency is handled by construction (SVD-backed lstsq): singular
    values up to rcond times the largest count as zero; None takes lstsq's
    default, machine epsilon times A's larger dimension.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    sol, *_ = np.linalg.lstsq(A, b, rcond=rcond)
    return sol


def chebyshev_nodes(n: int, lo: float, hi: float) -> np.ndarray:
    """n Chebyshev-Gauss nodes mapped affinely from [-1,1] to [lo,hi], increasing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not lo < hi:
        raise ValueError("need lo < hi")
    k = np.arange(n)
    x = np.cos((2 * k + 1) * np.pi / (2 * n))  # decreasing in (-1, 1)
    x = x[::-1]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def chebyshev_fit_matrix(n: int) -> np.ndarray:
    """Matrix M with c = M @ f: Chebyshev coefficients interpolating values f
    given at chebyshev_nodes(n, ...) (increasing abscissa).

    Uses the discrete orthogonality of T_m at the Chebyshev-Gauss points.
    """
    k = np.arange(n)
    theta = (2 * k + 1) * np.pi / (2 * n)
    m = np.arange(n)[:, None]
    M = (2.0 / n) * np.cos(m * theta[None, :])
    M[0] *= 0.5
    return M[:, ::-1]  # reorder columns for increasing node order


def chebyshev_eval_rows(coeffs, x, lo: float, hi: float) -> np.ndarray:
    """Row-batched Clenshaw evaluation: coeffs (R, n) at points x (R, ...).

    Row r of ``x`` is evaluated under row r of ``coeffs``; used where every
    consumer type carries its own interpolant. x is clamped into [lo, hi]
    first, which keeps the AR(1) expectation step from extrapolating the
    polynomial outside the grid, where it blows up.
    """
    c = np.asarray(coeffs, dtype=float)
    xa = np.clip(np.asarray(x, dtype=float), lo, hi)
    z = (2.0 * xa - (lo + hi)) / (hi - lo)
    z2 = 2.0 * z
    n = c.shape[1]
    extra = (None,) * (z.ndim - 1)
    b1 = np.zeros_like(z)
    b2 = np.zeros_like(z)
    for m in range(n - 1, 0, -1):
        b1, b2 = c[:, m][(slice(None),) + extra] + z2 * b1 - b2, b1
    return c[:, 0][(slice(None),) + extra] + z * b1 - b2


def normal_quadrature(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the order-point Gauss-Hermite rule for a standard
    normal: E f(Z) ~ weights @ f(nodes), the weights summing to one. ValueError
    for an order whose weights are not finite (from 372 on in double precision)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    with np.errstate(all="ignore"):  # from order 372 on, hermgauss divides by 0
        nodes, weights = np.polynomial.hermite.hermgauss(order)
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"the order-{order} Gauss-Hermite weights are not finite")
    return nodes * np.sqrt(2.0), weights / np.sqrt(np.pi)


def ols_ar1_rows(series: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS fits of x_{t+1} = a + b x_t + u on each row of ``series`` (R, T).

    Returns (intercepts, slopes, residual sds); the sd uses T-1-2 degrees of
    freedom (at least 1). A zero-variance regressor (flat row) gets slope 0
    and the mean of its targets as intercept, keeping downstream value
    iteration well defined on flat inclusive-value paths.
    """
    x = np.asarray(series, dtype=float)
    if x.shape[-1] < 3:
        raise ValueError("series must have length >= 3")
    lo, hi = x[:, :-1], x[:, 1:]
    n = lo.shape[1]
    mx = lo.mean(axis=1)
    my = hi.mean(axis=1)
    dx = lo - mx[:, None]
    sxx = (dx**2).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = np.where(sxx > 0.0, (dx * (hi - my[:, None])).sum(axis=1) / np.where(sxx > 0, sxx, 1.0), 0.0)
    intercept = my - slope * mx
    resid = hi - (intercept[:, None] + slope[:, None] * lo)
    dof = max(n - 2, 1)
    sd = np.sqrt((resid**2).sum(axis=1) / dof)
    return intercept, slope, sd
