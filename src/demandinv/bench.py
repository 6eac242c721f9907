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
import math
import time
from dataclasses import dataclass

import numpy as np

from .accel import AccelConfig
from .datagen import (DynamicDgpParams, SeededRng, StaticDgpParams, draw_theta,
                      gen_dynamic_market, gen_nested_market, gen_static_market,
                      large_heterogeneity_market)
from .dynamic import IvsGrid, ivs_solve, pf_solve, traditional_joint_solve
from .rcnl import rcnl_dist_metric, rcnl_solve_inner
from .static_rcl import dist_metric, solve_inner

SUITES = ("static_j25", "static_j250", "static_2types", "rcnl", "large_hetero",
          "dynamic_pf", "dynamic_ivs", "stepsize_sweep")

RECORD_FIELDS = ("suite", "replication", "algorithm", "evaluations",
                 "converged", "termination", "dist", "wall_ms")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One benchmark row: mapping family, gamma, acceleration, step rule."""

    mapping: str           # delta | V | IV | kalouptsidi_mixed | kalouptsidi_tilde | joint
    gamma: float = 1.0
    method: str = "plain"
    step_rule: str = "S3"

    @property
    def label(self) -> str:
        if self.mapping.startswith("kalouptsidi"):
            base = self.mapping
        elif self.mapping == "joint":
            base = f"Vdelta-({int(self.gamma)}) (joint)"
        else:
            base = f"{self.mapping}-({int(self.gamma)})"
        if self.method == "plain":
            return base
        tag = self.method if self.step_rule == "S3" or self.method == "anderson" \
            else f"{self.method}[{self.step_rule}]"
        return f"{base}+{tag}"


@dataclass
class ExperimentConfig:
    suite: str
    algorithms: list[AlgorithmSpec]
    replications: int
    master_seed: int
    tolerance: float
    max_evaluations: int
    dist_tol: float = 1e-12
    out_dir: str | None = None

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.replications < 1 or not self.algorithms:
            raise ValueError("need replications >= 1 and a non-empty algorithm list")


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


def _grid(mappings, gammas, methods, step_rule="S3"):
    return [AlgorithmSpec(m, g, meth, step_rule)
            for m in mappings for g in gammas for meth in methods]


def default_config(suite: str) -> ExperimentConfig:
    """Table-note defaults per suite: tolerances, caps, algorithm grids."""
    methods = ("plain", "anderson", "spectral", "squarem")
    if suite == "static_j25":
        return ExperimentConfig(suite, _grid(("delta", "V"), (0.0, 1.0), methods),
                                replications=50, master_seed=9, tolerance=1e-13,
                                max_evaluations=1000)
    if suite == "static_j250":
        return ExperimentConfig(suite, _grid(("delta", "V"), (0.0, 1.0), methods),
                                replications=50, master_seed=4, tolerance=1e-13,
                                max_evaluations=1000)
    if suite == "static_2types":
        algos = _grid(("delta", "V"), (0.0, 1.0), methods)
        algos += [AlgorithmSpec("kalouptsidi_mixed"), AlgorithmSpec("kalouptsidi_tilde")]
        return ExperimentConfig(suite, algos, replications=50, master_seed=7,
                                tolerance=1e-13, max_evaluations=1000)
    if suite == "rcnl":
        return ExperimentConfig(suite, _grid(("delta", "IV"), (0.0, 1.0), methods),
                                replications=50, master_seed=7, tolerance=1e-13,
                                max_evaluations=1000)
    if suite == "large_hetero":
        return ExperimentConfig(suite, _grid(("delta", "V"), (0.0, 1.0), methods),
                                replications=1, master_seed=0, tolerance=1e-13,
                                max_evaluations=2000)
    if suite == "dynamic_pf":
        algos = _grid(("V",), (0.0, 1.0), methods) + _grid(("joint",), (0.0, 1.0), methods)
        return ExperimentConfig(suite, algos, replications=20, master_seed=11,
                                tolerance=1e-12, max_evaluations=3000)
    if suite == "dynamic_ivs":
        return ExperimentConfig(suite, _grid(("V",), (0.0, 1.0), methods),
                                replications=20, master_seed=11, tolerance=1e-12,
                                max_evaluations=3000)
    if suite == "stepsize_sweep":
        algos = []
        for rule in ("S1", "S2", "S3prime"):
            algos += _grid(("delta", "V"), (0.0, 1.0), ("spectral", "squarem"), rule)
        return ExperimentConfig(suite, algos, replications=50, master_seed=7,
                                tolerance=1e-13, max_evaluations=1000)
    raise ValueError(f"unknown suite {suite!r}")


def config_from_json(text: str) -> ExperimentConfig:
    doc = json.loads(text)
    cfg = default_config(doc["suite"])
    if "algorithms" in doc:
        cfg.algorithms = [AlgorithmSpec(a["mapping"], float(a.get("gamma", 1.0)),
                                        a.get("method", "plain"),
                                        a.get("step_rule", "S3"))
                          for a in doc["algorithms"]]
    for key in ("replications", "master_seed", "max_evaluations"):
        if key in doc:
            setattr(cfg, key, int(doc[key]))
    for key in ("tolerance", "dist_tol"):
        if key in doc:
            setattr(cfg, key, float(doc[key]))
    if "out_dir" in doc:
        cfg.out_dir = str(doc["out_dir"])
    return cfg


def _accel_cfg(cfg: ExperimentConfig, algo: AlgorithmSpec, use_blocks=False) -> AccelConfig:
    return AccelConfig(method=algo.method, tolerance=cfg.tolerance,
                       max_evaluations=cfg.max_evaluations,
                       step_size_rule=algo.step_rule, use_blocks=use_blocks)


def _mapping_name(algo: AlgorithmSpec) -> str:
    if algo.mapping.startswith("kalouptsidi"):
        return algo.mapping
    return f"{algo.mapping}{int(algo.gamma)}"


def _drawn(inst, rng):
    """The market of a DGP instance at a parameter draw from the same stream."""
    return inst.with_theta(draw_theta(inst.theta_true, rng))


def _dist_at_finite(metric):
    """DIST of a finite point; NaN marks a non-finite one."""
    return lambda delta, market: (metric(delta, market) if np.all(np.isfinite(delta))
                                  else float("nan"))


def _replication(cfg: ExperimentConfig, rep: int):
    """(market, solve(market, algo) -> (result, outcome), dist(result, market))."""
    def static(market, algo):
        return solve_inner(market, _mapping_name(algo), _accel_cfg(cfg, algo))

    def nested(market, algo):
        return rcnl_solve_inner(market, _mapping_name(algo), _accel_cfg(cfg, algo))

    def durable(market, algo):
        if algo.mapping == "joint":
            return traditional_joint_solve(market, algo.gamma, 1.0, _accel_cfg(cfg, algo))
        if cfg.suite == "dynamic_ivs":
            return ivs_solve(market, algo.gamma, IvsGrid(), _accel_cfg(cfg, algo))
        blocks = algo.method in ("spectral", "squarem")
        return pf_solve(market, algo.gamma, _accel_cfg(cfg, algo, use_blocks=blocks))

    if cfg.suite == "large_hetero":
        return large_heterogeneity_market()[0], static, _dist_at_finite(dist_metric)
    rng = SeededRng(cfg.master_seed, rep).generator()
    if cfg.suite == "rcnl":
        market = _drawn(gen_nested_market(StaticDgpParams(n_products=75), rng), rng)
        return market, nested, _dist_at_finite(rcnl_dist_metric)
    if cfg.suite in ("dynamic_pf", "dynamic_ivs"):
        params = DynamicDgpParams(horizon=25 if cfg.suite == "dynamic_ivs" else 50)
        market = _drawn(gen_dynamic_market(params, rng), rng)
        return market, durable, lambda sol, _: sol.dist
    if cfg.suite == "static_j25":
        params = StaticDgpParams(n_products=25)
    elif cfg.suite == "static_2types":
        params = StaticDgpParams(n_products=250, n_draws=2)
    else:
        params = StaticDgpParams(n_products=250)
    return _drawn(gen_static_market(params, rng), rng), static, _dist_at_finite(dist_metric)


def run_suite(cfg: ExperimentConfig) -> list[RunRecord]:
    """Execute the configured grid; solver divergence is recorded, never raised."""
    records = []
    for rep in range(cfg.replications):
        market, solve, dist = _replication(cfg, rep)
        for algo in cfg.algorithms:
            t0 = time.perf_counter()
            result, outcome = solve(market, algo)
            ms = (time.perf_counter() - t0) * 1e3
            records.append(RunRecord(cfg.suite, rep, algo.label, outcome.evaluations,
                                     outcome.converged, outcome.termination,
                                     dist(result, market), ms))
    return records


# ---------------------------------------------------------------------------
# Aggregation


def nearest_rank(sorted_values, pct: float) -> float:
    """Nearest-rank percentile on an already-sorted sequence."""
    n = len(sorted_values)
    k = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[k - 1])


def summarize(records, dist_tol: float = 1e-12) -> list[SummaryRow]:
    """Per-algorithm statistics in first-seen order; order-invariant values."""
    order: list[str] = []
    grouped: dict[str, list[RunRecord]] = {}
    for r in sorted(records, key=lambda r: (r.algorithm, r.replication)):
        grouped.setdefault(r.algorithm, []).append(r)
    for r in records:
        if r.algorithm not in order:
            order.append(r.algorithm)
    rows = []
    for label in order:
        recs = grouped[label]
        evals = sorted(r.evaluations for r in recs)
        dists = np.array([r.dist for r in recs], dtype=float)
        finite = np.isfinite(dists)
        if finite.all():
            mean_log = float(np.mean(np.log10(np.clip(dists, 1e-300, None))))
        else:
            mean_log = float("nan")
        rows.append(SummaryRow(
            algorithm=label,
            mean_evals=float(np.mean(evals)),
            min_evals=float(evals[0]),
            p25_evals=nearest_rank(evals, 25),
            median_evals=nearest_rank(evals, 50),
            p75_evals=nearest_rank(evals, 75),
            max_evals=float(evals[-1]),
            conv_pct=100.0 * sum(r.converged for r in recs) / len(recs),
            mean_log10_dist=mean_log,
            dist_below_pct=100.0 * float(np.mean(finite & (dists < dist_tol))),
            mean_wall_ms=float(np.mean([r.wall_ms for r in recs])),
        ))
    return rows


# ---------------------------------------------------------------------------
# Rendering and record IO

_SUMMARY_COLUMNS = ("algorithm", "mean_evals", "min_evals", "p25_evals",
                    "median_evals", "p75_evals", "max_evals", "conv_pct",
                    "mean_log10_dist", "dist_below_pct", "mean_wall_ms")


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
    if fmt in ("md", "markdown"):
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
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(RunRecord(
                suite=row["suite"], replication=int(row["replication"]),
                algorithm=row["algorithm"], evaluations=int(row["evaluations"]),
                converged=bool(int(row["converged"])), termination=row["termination"],
                dist=float(row["dist"]), wall_ms=float(row["wall_ms"])))
    return records
