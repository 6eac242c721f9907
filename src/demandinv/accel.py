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
    """A mapping x -> Phi(x); :func:`solve` takes its size from the start point.

    ``block_labels``, when given, holds one non-negative integer block label
    per coordinate; with cfg.use_blocks, spectral/SQUAREM then use one step
    size per block, all taken in one vectorised pass (:func:`block_step_sizes`).
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


def _step_rule(ss, sy, yy, rule: str):
    """The step size rule on the sums s's, s'y and y'y, numpy scalars or
    arrays with one entry per block: (alpha, unit), where unit marks the
    entries that take the unit step 1 instead.

    S1 = -s'y/y'y, S2 = -s's/s'y, S3 = ||s||/||y||, S3prime = sgn(s'y)||s||/||y||.
    A zero y'y and a non-finite ratio (S2's zero s'y among them) take the
    unit step. Elementwise operations only, which run on numpy scalars
    without array overhead; the caller silences floating-point warnings.
    """
    if rule == "S1":
        alpha = -sy / yy
    elif rule == "S2":
        alpha = -ss / sy
    elif rule == "S3":
        alpha = np.sqrt(ss) / np.sqrt(yy)
    elif rule == "S3prime":
        alpha = np.sign(sy) * np.sqrt(ss) / np.sqrt(yy)
    else:
        raise ValueError(f"unknown step size rule {rule!r}")
    unit = (yy == 0.0) | (alpha - alpha != 0.0)  # alpha - alpha is NaN unless finite
    return alpha, unit


def spectral_alpha(s, y, rule: str = "S3") -> float:
    """Step size from the last step s = x_n - x_{n-1} and residual change y."""
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha, unit = _step_rule(s @ s, s @ y, y @ y, rule)
    return 1.0 if unit else float(alpha)


def block_step_sizes(s, y, labels: np.ndarray, rule: str = "S3") -> np.ndarray:
    """spectral_alpha of each block, capped at DEFAULT_BLOCK_STEP_CAP; labels[i]
    is coordinate i's block, and block b's step size is entry b."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sums = (np.bincount(labels, weights=u * v) for u, v in ((s, s), (s, y), (y, y)))
        alpha, unit = _step_rule(*sums, rule)
    return np.minimum(np.where(unit, 1.0, alpha), DEFAULT_BLOCK_STEP_CAP)


def anderson_combine(residuals: Sequence[np.ndarray],
                     images: Sequence[np.ndarray]) -> np.ndarray:
    """The next iterate: the images Phi(x) combined with weights that sum to
    one, from the unconstrained least squares in the differences of their
    aligned residuals (oldest first). Near-collinear histories take the
    minimum-norm solution, never rejected; a single residual gives plain
    iteration, images[0] itself."""
    if len(residuals) == 1:
        return images[0]
    F = np.stack([residuals[k + 1] - residuals[k] for k in range(len(residuals) - 1)], axis=1)
    gamma = ls_minnorm(F, residuals[-1])
    w = np.diff(np.concatenate(([0.0], gamma, [1.0])))
    out = w[0] * images[0]
    for k in range(1, len(w)):
        out = out + w[k] * images[k]
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
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("x0 must be a finite vector")
    if fp_map.block_labels is not None and fp_map.block_labels.shape != x.shape:
        raise ValueError(f"block_labels has {fp_map.block_labels.size} labels for "
                         f"{x.size} coordinates")
    labels = fp_map.block_labels if cfg.use_blocks else None

    def alpha_from(s, y):
        if labels is None:
            return spectral_alpha(s, y, rule=cfg.step_size_rule)
        return block_step_sizes(s, y, labels, rule=cfg.step_size_rule)[labels]

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
                # the first combination has one residual: a plain step
                f_hist.append(F)
                g_hist.append(g)
                if len(f_hist) > cfg.anderson_memory + 1:
                    f_hist.pop(0)
                    g_hist.pop(0)
                x_next = anderson_combine(f_hist, g_hist)
            elif cfg.method == "spectral":
                alpha = 1.0 if x_prev is None else alpha_from(x - x_prev, F - F_prev)
                x_prev, F_prev = x, F
                x_next = x + alpha * F
            else:
                y = g2 - 2.0 * g + x
                # degenerate curvature: alpha = 1 reproduces the exact two-step Phi^2(x)
                if labels is None and float(y @ y) == 0.0:
                    x_next = g2
                else:
                    # x + 2 alpha s + alpha^2 y with s = F; a numpy scalar squares
                    # like a Python float but overflows to inf, not an error
                    alpha = alpha_from(F, y)
                    x_next = x + 2.0 * alpha * F + np.float64(alpha) ** 2 * y
        if not np.all(np.isfinite(x_next)):
            return finish(last_image, "non_finite", np.inf)
        x = x_next
    return finish(x, "max_evaluations", r)
