"""Benchmark harness: algorithm x instance grids over seeded replications.

Every algorithm within a replication sees byte-identical market data; the
per-replication stream is SeedSequence([master_seed, replication]), so the
record set is deterministic regardless of execution order. Wall time is
recorded but informational only.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .accel import (METHODS, STEP_RULES, AccelConfig, checked_int, checked_name,
                    checked_object, checked_real, checked_tolerance)
from .datagen import (DynamicDgpParams, SeededRng, StaticDgpParams, draw_theta,
                      gen_dynamic_market, gen_nested_market, gen_static_market,
                      large_heterogeneity_market)
from .dynamic import IvsGrid, ivs_solve, pf_solve, traditional_joint_solve
from .rcnl import rcnl_dist_metric, rcnl_solve_inner
from .static_rcl import dist_metric, solve_inner

@dataclass(frozen=True)
class AlgorithmSpec:
    """One benchmark row: mapping family, gamma, acceleration, step rule."""

    mapping: str           # delta | V | IV | kalouptsidi_mixed | kalouptsidi_tilde | joint
    gamma: float = 1.0
    method: str = "plain"
    step_rule: str = "S3"

    def __post_init__(self):
        if not isinstance(self.mapping, str):
            raise ValueError(f"mapping must be a string, not {self.mapping!r}")
        object.__setattr__(self, "gamma", checked_real(
            "gamma", self.gamma, lambda g: 0.0 <= g <= 1.0, "a real in [0, 1]"))
        checked_name("method", self.method, METHODS)
        checked_name("step rule", self.step_rule, STEP_RULES)
        # fields that the run would ignore, and the label would not show
        if self.mapping.startswith("kalouptsidi") and self.gamma != 1.0:
            raise ValueError(f"gamma must be 1 on {self.mapping}, which has no gamma, "
                             f"not {self.gamma!r}")
        if self.method in ("plain", "anderson") and self.step_rule != "S3":
            raise ValueError(f"step_rule must be S3 with {self.method}, which takes no "
                             f"step size, not {self.step_rule!r}")

    @property
    def label(self) -> str:
        if self.mapping.startswith("kalouptsidi"):
            base = self.mapping
        elif self.mapping == "joint":
            base = f"Vdelta-({self.gamma:g}) (joint)"
        else:
            base = f"{self.mapping}-({self.gamma:g})"
        if self.method == "plain":
            return base
        tag = self.method if self.step_rule == "S3" else f"{self.method}[{self.step_rule}]"
        return f"{base}+{tag}"


@dataclass(frozen=True)
class ExperimentConfig:
    """One suite's run, checked once at construction; change it with
    dataclasses.replace."""

    suite: str
    algorithms: tuple[AlgorithmSpec, ...]
    replications: int
    master_seed: int
    tolerance: float
    max_evaluations: int
    dist_tol: float = 1e-12

    def __post_init__(self):
        solvers = _SUITE_TABLE[checked_name("suite", self.suite, SUITES)].solvers
        if not (isinstance(self.algorithms, (list, tuple)) and self.algorithms
                and all(isinstance(a, AlgorithmSpec) for a in self.algorithms)):
            raise ValueError("algorithms must be a non-empty sequence of AlgorithmSpec")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for name, minimum in (("replications", 1), ("master_seed", 0), ("max_evaluations", 1)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), minimum))
        for name in ("tolerance", "dist_tol"):
            object.__setattr__(self, name, checked_tolerance(name, getattr(self, name)))
        labels = set()
        for algo in self.algorithms:
            if algo.label in labels:  # summarize groups records by label
                raise ValueError(f"two algorithms share the label {algo.label!r}")
            labels.add(algo.label)
            if algo.mapping not in solvers:
                raise ValueError(f"mapping {algo.mapping!r} is not one of {sorted(solvers)} "
                                 f"for suite {self.suite!r}")
            if algo.mapping in ("delta", "V", "IV") and solvers[algo.mapping] in _BY_NAME \
                    and algo.gamma not in (0.0, 1.0):  # the dynamic solvers take any gamma
                raise ValueError(f"mapping {algo.mapping!r} of suite {self.suite!r} "
                                 f"exists for gamma 0 and 1, not {algo.gamma}")


@dataclass(frozen=True)
class RunRecord:
    suite: str
    replication: int
    algorithm: str
    evaluations: int
    converged: bool
    termination: str
    dist: float
    wall_ms: float


RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
_TERMINATIONS = ("converged", "max_evaluations", "non_finite")  # of accel.SolveOutcome


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    mean_evals: float
    min_evals: float
    p25_evals: float
    median_evals: float
    p75_evals: float
    max_evals: float
    conv_pct: float
    mean_log10_dist: float  # nan marks non-finite DIST in the record set
    dist_below_pct: float
    mean_wall_ms: float


# Solvers: (market, algo, AccelConfig) -> (result, SolveOutcome)


def _by_name(solve_named):
    """A solver for modules that dispatch on a mapping name such as "delta1"."""
    def run(market, algo, acfg):
        name = algo.mapping
        if not name.startswith("kalouptsidi"):
            name += str(int(algo.gamma))
        return solve_named(market, name, acfg)
    return run


def _joint(market, algo, acfg):
    return traditional_joint_solve(market, algo.gamma, 1.0, acfg)


def _pf(market, algo, acfg):
    # spectral and SQUAREM take one step size per period; no other method reads the blocks
    return pf_solve(market, algo.gamma, replace(acfg, use_blocks=True))


_IVS_GRID = IvsGrid()  # its tables, built once, serve every IVS solve


def _ivs(market, algo, acfg):
    return ivs_solve(market, algo.gamma, _IVS_GRID, acfg)


@dataclass(frozen=True)
class _Drawn:
    """rng -> the instance gen(params, rng)'s market at a parameter draw from the same stream."""

    gen: Callable
    params: object

    def __call__(self, rng):
        inst = self.gen(self.params, rng)
        return inst.with_theta(draw_theta(inst.theta_true, rng))


@dataclass(frozen=True)
class Suite:
    """A suite's table-note defaults and its replications: market(rng) draws the
    market, solvers maps each accepted mapping family to its solver, and
    dist(result, market) is the post-solve audit."""

    market: Callable
    solvers: dict
    dist: Callable
    algorithms: tuple
    replications: int
    master_seed: int
    tolerance: float = 1e-13
    max_evaluations: int = 1000


def _grid(mappings, gammas=(0.0, 1.0), methods=("plain", "anderson", "spectral", "squarem"),
          step_rule="S3"):
    return tuple(AlgorithmSpec(m, g, meth, step_rule)
                 for m in mappings for g in gammas for meth in methods)


_BY_NAME = (_by_name(solve_inner), _by_name(rcnl_solve_inner))
_STATIC = dict.fromkeys(("delta", "V", "kalouptsidi_mixed", "kalouptsidi_tilde"), _BY_NAME[0])
_NESTED = dict.fromkeys(("delta", "IV"), _BY_NAME[1])
_J250 = _Drawn(gen_static_market, StaticDgpParams(n_products=250))


def _durable_dist(sol, _market):
    return sol.dist


_SUITE_TABLE = {
    "static_j25": Suite(_Drawn(gen_static_market, StaticDgpParams(n_products=25)),
                        _STATIC, dist_metric, _grid(("delta", "V")), 50, 9),
    "static_j250": Suite(_J250, _STATIC, dist_metric, _grid(("delta", "V")), 50, 4),
    "static_2types": Suite(
        _Drawn(gen_static_market, StaticDgpParams(n_products=250, n_draws=2)),
        _STATIC, dist_metric,
        _grid(("delta", "V")) + (AlgorithmSpec("kalouptsidi_mixed"),
                                 AlgorithmSpec("kalouptsidi_tilde")), 50, 7),
    "rcnl": Suite(_Drawn(gen_nested_market, StaticDgpParams(n_products=75)),
                  _NESTED, rcnl_dist_metric, _grid(("delta", "IV")), 50, 7),
    "large_hetero": Suite(lambda rng: large_heterogeneity_market()[0], _STATIC, dist_metric,
                          _grid(("delta", "V")), 1, 0, max_evaluations=2000),
    "dynamic_pf": Suite(_Drawn(gen_dynamic_market, DynamicDgpParams(horizon=50)),
                        {"V": _pf, "joint": _joint}, _durable_dist,
                        _grid(("V", "joint")), 20, 11, 1e-12, 3000),
    "dynamic_ivs": Suite(_Drawn(gen_dynamic_market, DynamicDgpParams(horizon=25)),
                         {"V": _ivs, "joint": _joint}, _durable_dist,
                         _grid(("V",)), 20, 11, 1e-12, 3000),
    "stepsize_sweep": Suite(_J250, _STATIC, dist_metric,
                            tuple(a for rule in ("S1", "S2", "S3prime")
                                  for a in _grid(("delta", "V"), methods=("spectral", "squarem"),
                                                 step_rule=rule)), 50, 7),
}
SUITES = tuple(_SUITE_TABLE)


def default_config(suite: str) -> ExperimentConfig:
    """Table-note defaults per suite: tolerances, caps, algorithm grids."""
    s = _SUITE_TABLE[checked_name("suite", suite, SUITES)]
    return ExperimentConfig(suite, s.algorithms, s.replications, s.master_seed,
                            s.tolerance, s.max_evaluations)


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_ALGORITHM_KEYS = tuple(f.name for f in fields(AlgorithmSpec))


def config_from_json(text: str) -> ExperimentConfig:
    """A suite's defaults with the document's overrides. Only the shape and
    the keys are checked here; the values go unchanged to the constructors,
    which raise ValueError on anything they cannot run."""
    doc = checked_object("config", json.loads(text), _CONFIG_KEYS, ("suite",))
    overrides = {k: v for k, v in doc.items() if k != "suite"}
    if "algorithms" in doc:
        if not isinstance(doc["algorithms"], list):
            raise ValueError("algorithms must be a JSON list")
        overrides["algorithms"] = tuple(
            AlgorithmSpec(**checked_object("algorithm", a, _ALGORITHM_KEYS, ("mapping",)))
            for a in doc["algorithms"])
    return replace(default_config(doc["suite"]), **overrides)


def run_suite(cfg: ExperimentConfig) -> list[RunRecord]:
    """Execute the configured grid; solver divergence is recorded, never raised."""
    suite = _SUITE_TABLE[cfg.suite]
    records = []
    for rep in range(cfg.replications):
        market = suite.market(SeededRng(cfg.master_seed, rep).generator())
        for algo in cfg.algorithms:
            acfg = AccelConfig(method=algo.method, tolerance=cfg.tolerance,
                               max_evaluations=cfg.max_evaluations, step_size_rule=algo.step_rule)
            t0 = time.perf_counter()
            result, outcome = suite.solvers[algo.mapping](market, algo, acfg)
            ms = (time.perf_counter() - t0) * 1e3
            records.append(RunRecord(cfg.suite, rep, algo.label, outcome.evaluations,
                                     outcome.converged, outcome.termination,
                                     suite.dist(result, market), ms))
    return records


# ---------------------------------------------------------------------------
# Aggregation


def summarize(records, dist_tol: float = 1e-12) -> list[SummaryRow]:
    """Per-algorithm statistics in first-seen order; order-invariant values."""
    grouped: dict[str, list[RunRecord]] = {}
    for r in sorted(records, key=lambda r: (r.algorithm, r.replication)):
        grouped.setdefault(r.algorithm, []).append(r)
    rows = []
    for label in dict.fromkeys(r.algorithm for r in records):
        recs = grouped[label]
        evals = [r.evaluations for r in recs]
        p25, median, p75 = np.percentile(evals, (25, 50, 75), method="inverted_cdf")
        dists = np.array([r.dist for r in recs], dtype=float)
        finite = np.isfinite(dists)
        if finite.all():
            mean_log = float(np.mean(np.log10(np.clip(dists, 1e-300, None))))
        else:
            mean_log = float("nan")
        rows.append(SummaryRow(
            algorithm=label,
            mean_evals=float(np.mean(evals)),
            min_evals=float(min(evals)),
            p25_evals=float(p25),
            median_evals=float(median),
            p75_evals=float(p75),
            max_evals=float(max(evals)),
            conv_pct=100.0 * sum(r.converged for r in recs) / len(recs),
            mean_log10_dist=mean_log,
            dist_below_pct=100.0 * float(np.mean(finite & (dists < dist_tol))),
            mean_wall_ms=float(np.mean([r.wall_ms for r in recs])),
        ))
    return rows


# ---------------------------------------------------------------------------
# Rendering and record IO

_SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


def _format_cell(col: str, value) -> str:
    if col == "algorithm":
        return str(value)
    if col in ("conv_pct", "dist_below_pct"):
        return f"{value:.0f}"
    if col == "mean_log10_dist":
        return "NaN" if not np.isfinite(value) else f"{value:.1f}"
    if col == "mean_wall_ms":
        return f"{value:.1f}"
    return f"{value:.2f}"


def render(rows, fmt: str = "csv") -> str:
    """Render summary rows as CSV or a Markdown table."""
    cells = [[_format_cell(c, getattr(r, c)) for c in _SUMMARY_COLUMNS] for r in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_SUMMARY_COLUMNS)
        writer.writerows(cells)
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(_SUMMARY_COLUMNS) + " |",
                 "| " + " | ".join("---" for _ in _SUMMARY_COLUMNS) + " |"]
        lines += ["| " + " | ".join(row) + " |" for row in cells]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def write_records(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow([r.suite, r.replication, r.algorithm, r.evaluations,
                             int(r.converged), r.termination,
                             repr(r.dist) if np.isfinite(r.dist) else "nan",
                             f"{r.wall_ms:.3f}"])


def read_records(path) -> list[RunRecord]:
    """The records of a records.csv; ValueError naming the line of a row that
    does not match the header or holds a value no run writes."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        missing = [f for f in RECORD_FIELDS if f not in header]
        if missing:
            raise ValueError(f"{path} has no columns {missing}")
        for row in reader:
            try:
                extra, short = row.pop(None, []), sum(v is None for v in row.values())
                if extra or short:
                    raise ValueError(f"{len(header) + len(extra) - short} cells for "
                                     f"{len(header)} columns")
                if row["converged"] not in ("0", "1"):
                    raise ValueError(f"converged must be 0 or 1, not {row['converged']!r}")
                termination = checked_name("termination", row["termination"], _TERMINATIONS)
                if (row["converged"] == "1") != (termination == "converged"):
                    raise ValueError(f"converged {row['converged']} disagrees with "
                                     f"termination {termination!r}")
                records.append(RunRecord(
                    suite=row["suite"],
                    replication=checked_int("replication", int(row["replication"]), 0),
                    algorithm=row["algorithm"],
                    evaluations=checked_int("evaluations", int(row["evaluations"]), 0),
                    converged=row["converged"] == "1", termination=termination,
                    # runs write nan for the DIST of a non-finite point
                    dist=checked_real("dist", float(row["dist"]),
                                      lambda d: np.isnan(d) or 0.0 <= d < np.inf,
                                      "a finite non-negative real or nan"),
                    wall_ms=checked_real("wall_ms", float(row["wall_ms"]),
                                         lambda t: 0.0 <= t < np.inf,
                                         "a finite non-negative real")))
            except ValueError as err:
                raise ValueError(f"{path} line {reader.line_num}: {err}") from None
    return records
