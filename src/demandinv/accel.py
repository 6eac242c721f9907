"""Generic fixed-point solver engine.

Solves x = Phi(x) by plain iteration, Anderson acceleration, the spectral
algorithm, or SQUAREM. The engine is agnostic about where the mapping comes
from; the demand modules wrap their share/value mappings in a
:class:`FixedPointMap` and hand it to :func:`solve`. One driver loop in
:func:`solve` evaluates, records the residual, which doubles as the check
that the image is finite, and tests for convergence for every method; only
the step to the next iterate differs, one step per method. The first
spectral step and every degenerate step size, SQUAREM's zero y'y with or
without blocks among them, take the unit step alpha = 1; Anderson's first
step is an empty window's, Phi(x0). An image that is not an array of its
point's shape raises ValueError.

Anderson's step comes from a least squares of the newest residual on the
window of residual differences. With at least as many coordinates as the
memory (a tall history, every large market) the solver updates a thin QR
factorisation of the differences and keeps the image differences in its
basis, O(n m) per iteration, so that the step is two products and no least
squares is solved (:class:`_DifferenceQR`). A wide history (fewer
coordinates than the memory: the two-type value mapping, the 2 x 2
large-heterogeneity market) keeps :func:`anderson_combine`'s SVD lstsq on
merit: the QR window converges less often there (measured in its docstring).

Any :class:`FixedPointMap` runs under the solve's error state
:data:`SOLVE_ERRSTATE`, entered once per solve: a non-finite image or step
ends the solve as ``non_finite``, so no warning is raised for it. That is
the one rule for every model: a mapping and its private helpers silence
nothing themselves, and every public kernel, solver or audit that runs them
enters the same error state once, as a decorator.

Evaluation counting is the primary performance metric: the ``evaluations``
field of :class:`SolveOutcome` counts every application of the mapping
(SQUAREM consumes two per outer step, everything else one per iteration).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import ls_minnorm

METHODS = ("plain", "anderson", "spectral", "squarem")
STEP_RULES = ("S1", "S2", "S3", "S3prime")

# Upper bound on per-block step sizes (cfg.use_blocks); unbounded block steps
# occasionally spike above 100 and destabilize. Scalar steps are not capped.
DEFAULT_BLOCK_STEP_CAP = 10.0

# np.errstate keywords of every solve (see the module docstring)
SOLVE_ERRSTATE = {"divide": "ignore", "over": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class FixedPointMap:
    """A mapping x -> Phi(x); :func:`solve` takes its size from the start point.

    ``block_labels``, when given, holds one non-negative integer block label
    per coordinate; with cfg.use_blocks, spectral/SQUAREM then use one step
    size per block, all taken in one vectorised pass of :func:`_step_rule`.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    block_labels: np.ndarray | None = None

    def __post_init__(self):
        labels = self.block_labels
        if labels is not None and (
                not isinstance(labels, np.ndarray) or labels.ndim != 1
                or labels.dtype.kind not in "iu" or not np.can_cast(labels.dtype, np.intp)
                or np.any(labels < 0)):
            raise ValueError("block_labels must be a 1-d array of non-negative integers, "
                             "one per coordinate")


def checked_int(name: str, value, minimum: int) -> int:
    """value if it is an integer (not a bool) >= minimum; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, not {value!r}")
    return int(value)


def checked_real(name: str, value, within: Callable[[float], bool], rule: str) -> float:
    """value as a float if it is a real (not a bool) for which within holds;
    ValueError naming the rule otherwise. NaN lies in no range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not within(float(value)):
        raise ValueError(f"{name} must be {rule}, not {value!r}")
    return float(value)


def checked_tolerance(name: str, value) -> float:
    return checked_real(name, value, lambda v: 0.0 < v < math.inf, "a finite positive real")


def checked_name(name: str, value, choices) -> str:
    """value if it is one of the string choices; ValueError otherwise."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {name} {value!r}; known: {list(choices)}")
    return value


def checked_object(name: str, value, keys, required=()) -> dict:
    """value if it is a dict (a JSON object) whose keys are among keys and
    include every required one; ValueError naming the unknown or missing keys."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, not {value!r}")
    extra = sorted(set(value) - set(keys))
    if extra:
        raise ValueError(f"unknown {name} keys {extra}; known: {sorted(keys)}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ValueError(f"{name} is missing the keys {missing}")
    return value


@dataclass(frozen=True)
class AccelConfig:
    """Solver configuration, checked once at construction; change it with
    dataclasses.replace.

    tolerance is a sup-norm criterion on Phi(x) - x, which for plain
    iteration coincides with the change between successive iterates.
    """

    method: str = "plain"
    tolerance: float = 1e-13
    max_evaluations: int = 1000
    anderson_memory: int = 5
    step_size_rule: str = "S3"
    use_blocks: bool = False

    def __post_init__(self):
        checked_name("method", self.method, METHODS)
        checked_name("step size rule", self.step_size_rule, STEP_RULES)
        object.__setattr__(self, "tolerance", checked_tolerance("tolerance", self.tolerance))
        object.__setattr__(self, "max_evaluations",
                           checked_int("max_evaluations", self.max_evaluations, 1))
        object.__setattr__(self, "anderson_memory",
                           checked_int("anderson_memory", self.anderson_memory, 1))
        if not isinstance(self.use_blocks, bool):
            raise ValueError(f"use_blocks must be a bool, not {self.use_blocks!r}")


@dataclass
class SolveOutcome:
    point: np.ndarray
    converged: bool
    evaluations: int
    termination: str  # "converged" | "max_evaluations" | "non_finite"
    final_residual: float
    residual_history: list[float] = field(default_factory=list)


def _step_rule(s, y, rule: str, labels=None):
    """The step size rule on the last step s = x_n - x_{n-1} and residual
    change y: a float, or with labels (labels[i] is coordinate i's block) one
    step size per block, capped at DEFAULT_BLOCK_STEP_CAP, for each
    coordinate. The rule takes only the sums it reads.

    S1 = -s'y/y'y, S2 = -s's/s'y, S3 = ||s||/||y||, S3prime = sgn(s'y)||s||/||y||.
    A zero y'y (degenerate curvature, also by underflow) and a non-finite
    ratio (S2's zero s'y among them) take the unit step 1, with or without
    labels. Elementwise operations only, which run on numpy scalars without
    array overhead; the caller silences floating-point warnings.
    """
    total = (np.ndarray.dot if labels is None else
             lambda u, v: np.bincount(labels, weights=u * v))
    yy = total(y, y)
    if rule == "S1":
        alpha = -total(s, y) / yy
    elif rule == "S2":
        alpha = -total(s, s) / total(s, y)
    elif rule == "S3":
        alpha = np.sqrt(total(s, s)) / np.sqrt(yy)
    else:  # S3prime; AccelConfig admits no other rule
        alpha = np.sign(total(s, y)) * np.sqrt(total(s, s)) / np.sqrt(yy)
    unit = (yy == 0.0) | (alpha - alpha != 0.0)  # alpha - alpha is NaN unless finite
    if labels is None:
        return 1.0 if unit else float(alpha)
    return np.minimum(np.where(unit, 1.0, alpha), DEFAULT_BLOCK_STEP_CAP)[labels]


def anderson_combine(differences: Sequence[np.ndarray], residual: np.ndarray,
                     images: Sequence[np.ndarray]) -> np.ndarray:
    """The next iterate: the images Phi(x) (oldest first) combined with
    weights that sum to one, from the unconstrained least squares of the
    newest residual on the differences of consecutive aligned residuals
    (oldest first, one fewer than images). Near-collinear histories take the
    minimum-norm solution, never rejected; no differences give plain
    iteration, images[0] itself.

    The least squares is an SVD lstsq of the stacked differences, afresh on
    every call. :func:`solve` takes this path only for wide histories, with
    fewer coordinates than the memory; tall ones take the exact step on their
    independent differences from an updated QR factorisation instead
    (:class:`_DifferenceQR`), which is this step wherever lstsq cuts no
    singular value, up to rounding. On wide histories this step converges where
    the QR window does not: that window made V0 fail 34 of 1200 two-type
    markets and falsely converge on 24 (31 and 1 here), and hit the
    2000-evaluation cap on the large-heterogeneity market (45 here)."""
    if not differences:
        return images[0]
    gamma = ls_minnorm(np.stack(differences, axis=1), residual)
    w = np.diff(np.concatenate(([0.0], gamma, [1.0])))
    out = w[0] * images[0]
    for k in range(1, len(w)):
        out = out + w[k] * images[k]
    return out


class _DifferenceQR:
    """Anderson's window for histories of n >= memory coordinates, in
    preallocated buffers (Walker & Ni 2011, section 4): the residual
    differences dF_j (oldest first) as dF = R.T @ Q, Q's rows orthonormal and
    R upper triangular, and the image differences in Q's basis, dG = R.T @ Gh.
    The step g - dG.T @ gamma, with R gamma = Q @ F, is g - (Q @ F) @ Gh: no
    weights are formed, and no triangle is solved.

    Appending is classical Gram-Schmidt (the row-by-row modified form costs
    three times as much in numpy) with one reorthogonalisation, each pass two
    matrix-vector products; it gives R's new column rho and diagonal sigma,
    and Gh's new row (dG - rho @ Gh) / sigma. A difference that the second
    pass shrinks to at most half of what the first left, or to at most
    eps max(n, 2 m) of its norm, is dependent and not stored, so R's diagonal
    has no zero. Deleting the oldest re-triangularises the Hessenberg R[:, 1:]
    by Givens rotations on Python floats, cheaper than a LAPACK call on at
    most 6 x 5 entries, and rotates Q and Gh alike, by one product into a
    second buffer.
    """

    def __init__(self, n: int, memory: int):
        # Q and Gh in one buffer, each contiguous, so that one product rotates both
        self._basis, self._rotated = np.zeros((2, memory, n)), np.empty((2, memory, n))
        self.Q, self.Gh = self._basis
        self.R = np.zeros((memory, memory))
        self.size = 0
        # lstsq's cutoff n eps on n x m differences, and at least the rounding the two
        # passes leave of an exact repeat: 0.6 eps of its norm at memory 1, 2.9 eps at 30
        self.cutoff = np.finfo(float).eps * max(n, 2 * memory)

    def append(self, dF: np.ndarray, dG: np.ndarray) -> None:
        """Add the newest differences unless dependent, deleting the oldest if full."""
        if self.size == len(self.R):
            self._delete_oldest()
        k = self.size
        Q = self.Q[:k]
        r = Q.dot(dF)
        v = dF - r.dot(Q)
        first = math.sqrt(v.dot(v))
        s = Q.dot(v)
        v -= s.dot(Q)
        second = math.sqrt(v.dot(v))
        if not second > max(0.5 * first, self.cutoff * math.sqrt(r.dot(r) + first * first)):
            return
        self.R[:k, k] = rho = r + s
        self.R[k, k] = second
        np.divide(v, second, out=self.Q[k])
        np.divide(dG - rho.dot(self.Gh[:k]), second, out=self.Gh[k])
        self.size = k + 1

    def _delete_oldest(self) -> None:
        k = self.size - 1
        if k:
            # rotation j mixes rows j and j + 1 of H = R[:k + 1, 1:] and of G
            # and writes H[j + 1, j] as an exact 0: then G @ H = [R_new; 0],
            # and dF[1:] = H.T @ Q = R_new.T @ (G @ Q)[:k], dG[1:] likewise
            H, G = self.R[:k + 1, 1:k + 1].tolist(), np.eye(k + 1).tolist()
            for j in range(k):
                a, b = H[j][j], H[j + 1][j]  # b is a diagonal entry of R, not 0
                rho = math.hypot(a, b)
                c, s = a / rho, b / rho
                H[j][j], H[j + 1][j] = rho, 0.0
                for M, columns in ((H, range(j + 1, k)), (G, range(j + 2))):
                    u, v = M[j], M[j + 1]
                    for col in columns:
                        u[col], v[col] = c * u[col] + s * v[col], c * v[col] - s * u[col]
            self.R[:k, :k] = H[:k]
            np.matmul(G[:k], self._basis[:, :k + 1], out=self._rotated[:, :k])
            self._basis, self._rotated = self._rotated, self._basis
            self.Q, self.Gh = self._basis
        self.size = k

    def step(self, g: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Anderson's next iterate from the image g and residual F; g if the window is empty."""
        k = self.size
        return g - self.Q[:k].dot(F).dot(self.Gh[:k])


def solve(fp_map: FixedPointMap, x0, cfg: AccelConfig) -> SolveOutcome:
    """Run the configured method until tolerance, budget, or a non-finite value.

    One loop serves every method: evaluate Phi at x, stop on a non-finite
    image or a residual below tolerance, then step to the next x. A stop on a
    non-finite image returns the point that was evaluated; a non-finite
    extrapolation returns the last finite image; an exhausted budget returns
    the next iterate. An image that is not an array of its point's shape
    raises ValueError naming both shapes. SQUAREM's step is x + 2 alpha F +
    alpha^2 y, the unit step where y'y is 0, with or without blocks;
    Anderson's first is the empty window's, Phi(x0).
    """
    x = np.asarray(x0, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise ValueError("x0 must be a finite vector")
    if fp_map.block_labels is not None and fp_map.block_labels.shape != x.shape:
        raise ValueError(f"block_labels has {fp_map.block_labels.size} labels for "
                         f"{x.size} coordinates")
    labels = fp_map.block_labels if cfg.use_blocks else None
    evaluate, method, rule = fp_map.evaluate, cfg.method, cfg.step_size_rule
    tolerance, max_evals, memory = cfg.tolerance, cfg.max_evaluations, cfg.anderson_memory
    absolute, max_reduce, isfinite = np.abs, np.maximum.reduce, math.isfinite

    evals = 0
    r = np.inf
    history: list[float] = []
    # Anderson: a tall history (at least memory coordinates) keeps its
    # differences factorised; a wide one keeps its newest images and their
    # consecutive residual differences for anderson_combine
    window = _DifferenceQR(x.size, memory) if method == "anderson" and x.size >= memory else None
    g_hist: list[np.ndarray] = []
    d_hist: list[np.ndarray] = []
    x_prev = F_prev = g_prev = None  # start (spectral), residual and image of the last step

    def image(point):  # Phi(point), which must be an array of point's shape
        g = evaluate(point)
        if getattr(g, "shape", None) != point.shape:
            raise ValueError(f"the mapping returned a {type(g).__name__} image of shape "
                             f"{np.shape(g)} for a point of shape {point.shape}")
        return g

    def finish(point, termination, residual):
        return SolveOutcome(point=np.asarray(point, dtype=float),
                            converged=termination == "converged", evaluations=evals,
                            termination=termination, final_residual=residual,
                            residual_history=history)

    # no warnings: a non-finite image or step ends the solve as non_finite
    # below, and a 0/0 step size is 1
    with np.errstate(**SOLVE_ERRSTATE):
        while evals < max_evals:
            g = image(x)
            evals += 1
            F = g - x
            # x is finite, so r is finite unless g is not or g - x overflowed
            # (an empty x has r = 0)
            r = float(max_reduce(absolute(F), initial=0.0))
            if not isfinite(r) and not np.isfinite(g).all():
                return finish(x, "non_finite", np.inf)
            history.append(r)
            if r < tolerance:
                return finish(g, "converged", r)
            if method == "plain":
                x = g
                continue
            last_image = g
            if method == "squarem":  # a second evaluation, on Phi(Phi(x))
                if evals >= max_evals:
                    break
                g2 = image(g)
                evals += 1
                if not np.isfinite(g2).all():
                    return finish(g, "non_finite", np.inf)
                last_image = g2
            if method == "anderson":
                # the first combination has no differences: a plain step
                if window is None:
                    if F_prev is not None:
                        d_hist.append(F - F_prev)
                    g_hist.append(g)
                    if len(g_hist) > memory + 1:
                        del g_hist[0], d_hist[0]
                    x_next = anderson_combine(d_hist, F, g_hist)
                else:
                    if F_prev is not None:
                        window.append(F - F_prev, g - g_prev)
                    x_next = window.step(g, F)
                F_prev, g_prev = F, g
            elif method == "spectral":
                alpha = (1.0 if x_prev is None
                         else _step_rule(x - x_prev, F - F_prev, rule, labels))
                x_prev, F_prev = x, F
                x_next = x + alpha * F
            else:
                # x + 2 alpha s + alpha^2 y with s = F; a numpy scalar squares
                # like a Python float but overflows to inf, not an error
                y = g2 - 2.0 * g + x
                alpha = _step_rule(F, y, rule, labels)
                x_next = x + 2.0 * alpha * F + np.float64(alpha) ** 2 * y
            if not np.isfinite(x_next).all():
                return finish(last_image, "non_finite", np.inf)
            x = x_next
    return finish(x, "max_evaluations", r)
