"""Generic fixed-point solver engine.

Solves x = Phi(x) by plain iteration, Anderson acceleration, the spectral
algorithm, or SQUAREM. The engine is agnostic about where the mapping comes
from; the demand modules wrap their share/value mappings in a
:class:`FixedPointMap` and hand it to :func:`solve`. One driver loop in
:func:`solve` evaluates, checks finiteness, records the residual and tests
for convergence for every method; only the step to the next iterate differs.
The first spectral step, and every step whose step size degenerates, uses
the unit step alpha = 1.

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


@dataclass(frozen=True)
class FixedPointMap:
    """A mapping x -> Phi(x) on R^dimension.

    ``block_partition``, when given, lists disjoint index groups covering
    0..dimension-1; spectral/SQUAREM then use one step size per group.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    dimension: int
    block_partition: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.block_partition is not None:
            idx = np.concatenate([np.asarray(g) for g in self.block_partition])
            if sorted(idx.tolist()) != list(range(self.dimension)):
                raise ValueError("block_partition must be disjoint and exhaustive")


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


def _supnorm(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def spectral_alpha(s, y, rule: str = "S3", cap: float | None = None) -> float:
    """Step size from the last step s = x_n - x_{n-1} and residual change y.

    S1 = -s'y/y'y, S2 = -s's/s'y, S3 = ||s||/||y||, S3prime = sgn(s'y)||s||/||y||.
    Degenerate denominators give the unit step 1. ``cap`` is an upper bound,
    applied when given.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        yy = float(y @ y)
        if yy == 0.0:
            return 1.0
        if rule == "S1":
            alpha = -float(s @ y) / yy
        elif rule == "S2":
            sy = float(s @ y)
            if sy == 0.0:
                return 1.0
            alpha = -float(s @ s) / sy
        elif rule == "S3":
            alpha = float(np.linalg.norm(s) / np.linalg.norm(y))
        elif rule == "S3prime":
            alpha = float(np.sign(s @ y) * np.linalg.norm(s) / np.linalg.norm(y))
        else:
            raise ValueError(f"unknown step size rule {rule!r}")
    if not np.isfinite(alpha):
        return 1.0
    if cap is not None:
        alpha = min(alpha, cap)
    return alpha


def spectral_update(x, F, alpha, blocks=None) -> np.ndarray:
    """x + alpha*F, with per-block alphas when ``blocks`` is given."""
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    if blocks is None:
        return x + alpha * F
    out = x.copy()
    for group, a in zip(blocks, alpha):
        out[group] = x[group] + a * F[group]
    return out


def squarem_update(x, phix, phi2x, alpha, blocks=None) -> np.ndarray:
    """x + 2*alpha*s + alpha^2*y with s = Phi(x)-x, y = Phi2(x)-2Phi(x)+x."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(phix, dtype=float) - x
    y = np.asarray(phi2x, dtype=float) - 2.0 * np.asarray(phix, dtype=float) + x
    if blocks is None:
        # a numpy scalar squares like a Python float but overflows to inf, not an error
        return x + 2.0 * alpha * s + np.float64(alpha) ** 2 * y
    out = np.empty_like(x)
    for group, a in zip(blocks, alpha):
        out[group] = x[group] + 2.0 * a * s[group] + a**2 * y[group]
    return out


def anderson_weights(residual_history: Sequence[np.ndarray], m_n: int) -> np.ndarray:
    """Combination weights for the newest m_n+1 residuals, oldest first.

    Solves the unconstrained least squares in the residual differences and
    maps back to weights that sum to one. Near-collinear histories are
    handled by the minimum-norm solution, never rejected.
    """
    if m_n == 0:
        return np.array([1.0])
    fs = list(residual_history[-(m_n + 1):])
    F = np.stack([fs[k + 1] - fs[k] for k in range(m_n)], axis=1)
    gamma = ls_minnorm(F, fs[-1])
    w = np.empty(m_n + 1)
    w[0] = gamma[0]
    for k in range(1, m_n):
        w[k] = gamma[k] - gamma[k - 1]
    w[m_n] = 1.0 - gamma[m_n - 1]
    return w


def anderson_combine(residual_history: Sequence[np.ndarray],
                     point_history: Sequence[np.ndarray],
                     m_n: int) -> np.ndarray:
    """Combined next iterate from the newest m_n+1 mapped points.

    ``point_history`` holds the mapped images Phi(x) aligned with
    ``residual_history``; with m_n = 0 this degenerates to plain iteration.
    """
    w = anderson_weights(residual_history, m_n)
    pts = list(point_history[-(m_n + 1):])
    out = w[0] * pts[0]
    for k in range(1, len(w)):
        out = out + w[k] * pts[k]
    return out


def solve(fp_map: FixedPointMap, x0, cfg: AccelConfig) -> SolveOutcome:
    """Run the configured method until tolerance, budget, or a non-finite value.

    One loop serves every method: evaluate Phi at x, stop on a non-finite
    image or a residual below tolerance, then step to the next x. A stop on a
    non-finite image returns the point that was evaluated; a non-finite
    extrapolation returns the last finite image; an exhausted budget returns
    the next iterate.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (fp_map.dimension,):
        raise ValueError(f"x0 must have shape ({fp_map.dimension},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    blocks = fp_map.block_partition if cfg.use_blocks else None

    def alpha_from(s, y):
        if blocks is None:
            return spectral_alpha(s, y, rule=cfg.step_size_rule)
        return np.array([spectral_alpha(s[g], y[g], rule=cfg.step_size_rule,
                                        cap=DEFAULT_BLOCK_STEP_CAP) for g in blocks])

    evals = 0
    r = np.inf
    history: list[float] = []
    f_hist: list[np.ndarray] = []  # Anderson: newest residuals Phi(x) - x
    g_hist: list[np.ndarray] = []  # Anderson: the matching images Phi(x)
    x_prev = F_prev = None         # spectral: start and residual of the last step

    def finish(point, termination, residual):
        return SolveOutcome(point=np.asarray(point, dtype=float),
                            converged=termination == "converged", evaluations=evals,
                            termination=termination, final_residual=residual,
                            residual_history=history)

    while evals < cfg.max_evaluations:
        g = fp_map.evaluate(x)
        evals += 1
        if not np.all(np.isfinite(g)):
            return finish(x, "non_finite", np.inf)
        F = g - x
        r = _supnorm(F)
        history.append(r)
        if r < cfg.tolerance:
            return finish(g, "converged", r)
        if cfg.method == "plain":
            x = g
            continue
        last_image = g
        if cfg.method == "squarem":  # a second evaluation, on Phi(Phi(x))
            if evals >= cfg.max_evaluations:
                break
            g2 = fp_map.evaluate(g)
            evals += 1
            if not np.all(np.isfinite(g2)):
                return finish(g, "non_finite", np.inf)
            last_image = g2
        # an overflowing step ends the solve as non_finite below, without warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.method == "anderson":
                # the first combination has m_n = 0: a plain step
                f_hist.append(F)
                g_hist.append(g)
                if len(f_hist) > cfg.anderson_memory + 1:
                    f_hist.pop(0)
                    g_hist.pop(0)
                x_next = anderson_combine(f_hist, g_hist, len(f_hist) - 1)
            elif cfg.method == "spectral":
                if x_prev is None:
                    alpha = 1.0 if blocks is None else np.ones(len(blocks))
                else:
                    alpha = alpha_from(x - x_prev, F - F_prev)
                x_prev, F_prev = x, F
                x_next = spectral_update(x, F, alpha, blocks=blocks)
            else:
                y = g2 - 2.0 * g + x
                # degenerate curvature: alpha = 1 reproduces the exact two-step Phi^2(x)
                if blocks is None and float(y @ y) == 0.0:
                    x_next = g2
                else:
                    x_next = squarem_update(x, g, g2, alpha_from(F, y), blocks=blocks)
        if not np.all(np.isfinite(x_next)):
            return finish(last_image, "non_finite", np.inf)
        x = x_next
    return finish(x, "max_evaluations", r)
