"""Inner-loop benchmark: wall time to invert markets with demandinv.

    python3 perfbench/run.py --workload static-blp --seed 4 --seconds 40 --trace 0

Run from the repository root; demandinv is imported from ``src/``. A run
builds every market of the workload (several times, to time set-up), then
solves the whole market set in the workload's fixed number of rounds, and
each solve's time is its fastest round. ``--seconds`` does not change the
number of rounds: a run that measures for longer says so. With ``--trace 1``
as many traced rounds as untraced ones run, alternating, and the per-layer
metrics come from the traced ones.

Each run checks its own outputs and fails (exit code 1, ``"correct":
false``) when a converged solve has a non-finite DIST or one above the
workload's accuracy (unless it matches the workload's documented defect),
when a solve's evaluations, termination or DIST differ between rounds or
from an earlier run of the same seed and code (its result file in
``perfbench/out/``), when regenerated markets differ, or when a
traced solve's evaluate spans do not match its evaluation count. The last
line of standard output is one JSON object; the lines before it print every
metric with its unit and the provenance. The full result, with the
per-solve records, is written to ``perfbench/out/``.
"""

import ctypes
import os

# Pinned before numpy loads; a probe found no gain from 2 BLAS threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

# glibc adapts its mmap threshold and trims the heap top as memory is freed,
# so solve time depended on the heap layout that set-up left behind: with a
# free heap top, each 2 MB temporary of the static kernel was page-faulted
# afresh and static-blp took 60% longer. Fixed thresholds keep arrays of up
# to 32 MiB on the heap and never trim it, whatever set-up allocated.
MALLOC_PINS = {"M_MMAP_THRESHOLD": (-3, 32 << 20), "M_TRIM_THRESHOLD": (-1, 1 << 30)}


def pin_allocator() -> dict:
    """Apply MALLOC_PINS with mallopt; the values set, or {} off glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return {}
    return {name: value for name, (param, value) in MALLOC_PINS.items()
            if mallopt(param, value) == 1}


MALLOC = pin_allocator()

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "demandinv" / "__init__.py").is_file():
    sys.exit(f"perfbench: no demandinv sources under {SRC}")
sys.path.insert(0, str(SRC))
import demandinv  # noqa: E402

if Path(demandinv.__file__).resolve().parent != SRC / "demandinv":
    sys.exit(f"perfbench: imported demandinv from {demandinv.__file__}, not {SRC}")

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scipy.special import betainc  # noqa: E402

SETUP_REPEATS = 11
P90_MIN_SOLVES = 100  # at least ten solves lie beyond the 90th percentile


def child_import_seconds() -> float:
    """Time to import demandinv in a fresh interpreter, measured inside it."""
    code = ("import time; t = time.perf_counter(); import demandinv; "
            "print(time.perf_counter() - t); print(demandinv.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, where = proc.stdout.split("\n")[:2]
    if Path(where).resolve().parent != SRC / "demandinv":
        sys.exit(f"perfbench: child imported demandinv from {where}")
    return float(seconds)


def setup(workload, seed):
    """Import + market generation, repeated.

    Returns the median set-up seconds, the median ms per market, the last
    market dict, and each repeat's market digests.
    """
    totals, per_market_ms, digests = [], [], []
    for _ in range(SETUP_REPEATS):
        markets = None  # so peak memory holds one market set, not two
        import_s = child_import_seconds()
        t0 = perf_counter()
        markets = workloads.build_markets(workload, seed)
        gen_s = perf_counter() - t0
        totals.append(import_s + gen_s)
        per_market_ms.append(gen_s * 1e3 / len(markets))
        digests.append({k: workloads.market_digest(m) for k, m in markets.items()})
    return statistics.median(totals), statistics.median(per_market_ms), markets, digests


def run_round(workload, markets, tracer=None):
    """Solve every (replication, algorithm) once; one record per solve."""
    gc.collect()
    records = []
    for r in range(workload.replications):
        for solve in workload.grid:
            market = markets[solve.dgp, r]
            with tracer.entry() if tracer is not None else nullcontext():
                t0 = perf_counter()
                result = workloads.call(solve, market)
                seconds = perf_counter() - t0
            outcome, dist = workloads.audit(solve, market, result)
            records.append({"key": f"r{r} {solve.label}", "solve": solve, "rep": r,
                            "evaluations": outcome.evaluations,
                            "termination": outcome.termination, "dist": dist,
                            "point_absmax": float(np.max(np.abs(outcome.point))),
                            "seconds": seconds})
    return records


OUTCOME = ("key", "evaluations", "termination", "dist")


def record_row(rec):
    """The per-solve row of a result file; DIST in hex, so it compares exactly."""
    return {"key": rec["key"], "evaluations": rec["evaluations"],
            "termination": rec["termination"], "dist": float(rec["dist"]).hex(),
            "point_absmax": rec["point_absmax"], "seconds": rec["seconds"]}


def outcome_key(row):
    return tuple(row[k] for k in OUTCOME)


def check_previous_runs(stem, code_sha256, records):
    """Messages for solves whose outcome differs from an earlier run's result
    file for the same workload, seed and code."""
    errors = []
    rows = [outcome_key(record_row(rec)) for rec in records]
    for path in sorted(OUT.glob(f"{stem}-trace[01].json")):
        try:
            prev = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if prev.get("provenance", {}).get("code_sha256") != code_sha256:
            continue
        for old, new in zip(map(outcome_key, prev["records"]), rows):
            if old != new:
                errors.append(f"{new[0]}: {new[1:]} differs from {path.name}'s {old[1:]}")
    return errors


def known_defect(workload, rec):
    """The workload's documented defect that a wrong output matches, or None."""
    for defect in workload.known_defects:
        if (rec["solve"].label == defect.label and math.isfinite(rec["dist"])
                and rec["point_absmax"] >= defect.min_abs_point):
            return defect
    return None


def check_round(workload, records, reference):
    """Wrong outputs of one round: (messages that fail the run, messages for
    the workload's known defects)."""
    errors, known = [], []
    matches = {}
    for rec, ref in zip(records, reference):
        if rec["termination"] == "converged" and not rec["dist"] <= workload.accuracy:
            msg = (f"{rec['key']}: converged with DIST {rec['dist']:.3e} at max|x| "
                   f"{rec['point_absmax']:.3e}, accuracy {workload.accuracy:g}")
            defect = known_defect(workload, rec)
            if defect is None:
                errors.append(msg)
            else:
                known.append(msg)
                matches.setdefault(defect, []).append(rec["key"])
        new, old = outcome_key(record_row(rec)), outcome_key(record_row(ref))
        if new != old:
            errors.append(f"{rec['key']}: {new[1:]} differs from the first round's {old[1:]}")
    for defect, keys in matches.items():
        if len(keys) > defect.max_per_round:
            errors += [f"{k}: one of {len(keys)} drifted {defect.label} solves in a round, "
                       f"more than the {defect.max_per_round} seen" for k in keys]
    return errors, known


def best_seconds(rounds):
    """Each solve's fastest time over the rounds, in solve order.

    The machine's speed drifts by up to +-20% over seconds; the work of a
    solve is identical in every round, so its fastest round is the steadiest
    estimate of its cost.
    """
    return [min(times) for times in zip(*([r["seconds"] for r in rs] for rs in rounds))]


def hd_median(values) -> float:
    """Harrell-Davis median: a beta-weighted mean of all order statistics.

    dynamic-durable's solve times form clusters (IVS, joint, PF) and the
    plain median falls on the gap between two of them, so it jumps when one
    solve changes cluster; this estimate moves smoothly.
    """
    n = len(values)
    a = (n + 1) / 2.0
    weights = np.diff(betainc(a, a, np.arange(n + 1) / n))
    return float(np.sort(values) @ weights)


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def end_to_end(rounds, setup_s):
    first = rounds[0]
    n = len(first)
    best = best_seconds(rounds)
    converged = sum(rec["termination"] == "converged" for rec in first)
    dist_ok = sum(math.isfinite(rec["dist"]) and rec["dist"] < workloads.DIST_OK
                  for rec in first)
    metrics = {
        "setup_s": (setup_s, "s"),
        "inversion_s": (sum(best), "s"),
        "solve_ms_p50": (hd_median(best) * 1e3, "ms"),
        "evals_mean": (sum(rec["evaluations"] for rec in first) / n, "evals/solve"),
        "converged_pct": (100.0 * converged / n, "%"),
        "dist_ok_pct": (100.0 * dist_ok / n, "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"failed_pct": (100.0 - metrics["converged_pct"][0], "%")}
    if n >= P90_MIN_SOLVES:
        extra["solve_ms_p90"] = (nearest_rank(best, 90) * 1e3, "ms")
    return metrics, extra


def per_layer(markets, traced_rounds, tracer, untraced_rounds, market_ms):
    """Per-layer figures from the traced rounds, each per round unless noted."""
    spans = tracer.per_solve()
    n_rounds = len(traced_rounds)
    fam = {}   # family -> [evaluations, eval seconds, computed mu bytes]
    mod = {}   # model module -> [solves, seconds outside accel.solve]
    tot = {"evals": 0, "useful": 0, "solve_s": 0.0, "eval_s": 0.0}
    numer = {}
    errors = []
    solve_id = 0
    for records in traced_rounds:
        for rec in records:
            sp = spans[solve_id]
            solve_id += 1
            n_eval, eval_s = sp.get("evaluate", (0, 0.0))
            if n_eval != rec["evaluations"]:
                errors.append(f"{rec['key']}: {n_eval} evaluate spans for "
                              f"{rec['evaluations']} evaluations")
            solve = rec["solve"]
            f = fam.setdefault(solve.family, [0, 0.0, 0])
            f[0] += n_eval
            f[1] += eval_s
            f[2] += n_eval * solve.mu_passes * workloads.mu_nbytes(markets[solve.dgp, rec["rep"]])
            solve_s = sp["accel.solve"][1]
            m = mod.setdefault(solve.family.split(".")[0], [0, 0.0])
            m[0] += 1
            m[1] += sp["entry"][1] - solve_s
            tot["evals"] += n_eval
            tot["useful"] += n_eval if rec["termination"] == "converged" else 0
            tot["solve_s"] += solve_s
            tot["eval_s"] += eval_s
            for name in ("numerics.ls_minnorm", "numerics.chebyshev_eval_rows",
                         "numerics.ols_ar1_rows"):
                c, s = sp.get(name, (0, 0.0))
                acc = numer.setdefault(name, [0, 0.0])
                acc[0] += c
                acc[1] += s

    def gbps(families):
        b = sum(fam[k][2] for k in families)
        s = sum(fam[k][1] for k in families)
        return (b / s / 1e9, "GB/s") if s > 0 else None

    inv = sum(best_seconds(traced_rounds))
    base = sum(best_seconds(untraced_rounds))
    self_s = tot["solve_s"] - tot["eval_s"]
    ls_calls, ls_s = numer["numerics.ls_minnorm"]
    all_bytes = sum(f[2] for f in fam.values())
    metrics = {
        "accel.evals": (tot["evals"] / n_rounds, "count"),
        "accel.self_ms": (self_s * 1e3 / n_rounds, "ms"),
        "accel.self_us_per_eval": (self_s * 1e6 / tot["evals"], "us"),
        "accel.useful_eval_ratio": (tot["useful"] / tot["evals"], "ratio"),
        "numerics.ls_minnorm.calls": (ls_calls / n_rounds, "count"),
        "numerics.ls_minnorm.ms": (ls_s * 1e3 / n_rounds, "ms"),
        "mapping.eval_us": (tot["eval_s"] * 1e6 / tot["evals"], "us"),
        "mapping.eval_gbps_computed": (all_bytes / tot["eval_s"] / 1e9, "GB/s"),
        "entry.post_ms": (sum(m[1] for m in mod.values()) * 1e3
                          / sum(m[0] for m in mod.values()), "ms"),
        "datagen.market_ms": (market_ms, "ms"),
        "trace.overhead_pct": (100.0 * (inv / base - 1.0), "%"),
    }
    # Layers a workload may not exercise: printed, and recorded as omitted.
    detail = {}
    for family, (n_eval, eval_s, _) in sorted(fam.items()):
        detail[f"{family}.eval_us"] = (eval_s * 1e6 / n_eval, "us") if n_eval else None
    detail["static_rcl.eval_gbps_computed"] = gbps([k for k in fam if k.startswith("static_rcl")])
    detail["dynamic.eval_gbps_computed"] = gbps([k for k in fam if k.startswith("dynamic")])
    for module in ("static_rcl", "rcnl", "dynamic"):
        if module in mod:
            detail[f"{module}.post_ms"] = (mod[module][1] * 1e3 / mod[module][0], "ms")
    for name in ("numerics.chebyshev_eval_rows", "numerics.ols_ar1_rows"):
        detail[f"{name}.ms"] = (numer[name][1] * 1e3 / n_rounds, "ms") if numer[name][0] else None
    detail["trace.overhead_s"] = (inv - base, "s")
    return metrics, detail, errors


ALL_LAYER_DETAIL = ("static_rcl.delta.eval_us", "static_rcl.V.eval_us", "rcnl.delta.eval_us",
                    "rcnl.IV.eval_us", "static_rcl.kalouptsidi.eval_us", "dynamic.pf.eval_us",
                    "dynamic.joint.eval_us", "dynamic.ivs.eval_us",
                    "static_rcl.eval_gbps_computed", "dynamic.eval_gbps_computed",
                    "static_rcl.post_ms", "rcnl.post_ms", "dynamic.post_ms",
                    "numerics.chebyshev_eval_rows.ms", "numerics.ols_ar1_rows.ms",
                    "trace.overhead_s")


def provenance(workload, seed):
    import scipy

    sha = "unavailable"  # e.g. a checkout that is not a git repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
    except OSError:
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        sha = out[1]
    code = hashlib.sha256()
    for path in sorted((SRC / "demandinv").glob("*.py")) + sorted(HERE.glob("[!t]*.py")):
        code.update(path.name.encode() + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "code_sha256": code.hexdigest(),  # demandinv and benchmark sources
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "malloc": MALLOC or "not pinned (no glibc mallopt)",
        "seed": seed,
        "master_seeds": {d.name: d.default_seed if seed is None else seed
                         for d in workload.dgps},
        "held_out_seed": workloads.HELD_OUT_SEED,
    }


def fmt(name, value):
    if value is None:
        return f"  {name:<32} n/a (layer not exercised by this workload)"
    v, unit = value
    return f"  {name:<32} {v:.6g} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for every DGP (default: each suite's own)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="the time a run should measure; a longer run says so")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    setup_s, market_ms, markets, digests = setup(workload, args.seed)
    errors = [f"regenerated markets differ: {k}" for k in digests[0]
              if any(d[k] != digests[0][k] for d in digests)]

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    measured_s = 0.0  # wall time of the untraced rounds
    for _ in range(workload.rounds):
        t0 = perf_counter()
        untraced.append(run_round(workload, markets))
        measured_s += perf_counter() - t0
        if tracer is not None:
            with tracer.installed():
                traced.append(run_round(workload, markets, tracer))
    rounds = untraced + traced
    known = []
    for records in rounds:
        round_errors, round_known = check_round(workload, records, rounds[0])
        errors += round_errors
        known += round_known

    lines = [f"perfbench {workload.name}: {len(markets)} markets, {len(rounds[0])} solves "
             f"per round, {len(untraced)} untraced + {len(traced)} traced rounds; "
             f"untraced rounds took {measured_s:.1f} s"]
    if measured_s > args.seconds:
        lines.append(f"note: the untraced rounds took {measured_s:.1f} s, more than "
                     f"--seconds {args.seconds:g}; the round count is fixed per workload")
    if args.trace:
        metrics, detail, trace_errors = per_layer(markets, traced, tracer, untraced,
                                                  market_ms)
        errors += trace_errors
        lines += ["per-layer metrics (traced rounds):"]
        lines += [fmt(k, v) for k, v in metrics.items()]
        lines += [fmt(k, detail.get(k)) for k in ALL_LAYER_DETAIL]
    else:
        metrics, detail = end_to_end(untraced, setup_s)
        lines += ["end-to-end metrics:"]
        lines += [fmt(k, v) for k, v in {**metrics, **detail}.items()]
        if "solve_ms_p90" not in detail:
            lines.append(f"  {'solve_ms_p90':<32} omitted: {len(rounds[0])} solves per "
                         f"round, fewer than {P90_MIN_SOLVES}")
    not_converged = [rec for rec in rounds[0] if rec["termination"] != "converged"]
    failed_by_design = [rec["key"] for rec in not_converged
                        if rec["solve"].label in workload.by_design_failures]
    other_failures = [rec["key"] for rec in not_converged
                      if rec["solve"].label not in workload.by_design_failures]
    lines.append(f"non-converged solves per round: {len(failed_by_design)} by design, "
                 f"{len(other_failures)} others; by design: "
                 f"{', '.join(workload.by_design_failures) or 'none'}")
    prov = provenance(workload, args.seed)
    lines.append("provenance: " + json.dumps(prov))
    stem = f"{workload.name}-seed{args.seed}"
    errors += check_previous_runs(stem, prov["code_sha256"], rounds[0])

    bad_keys = {e.split(":")[0] for e in errors + known}
    result = {
        "correct": not errors,
        "attempted": sum(len(r) for r in rounds),
        "failed": sum(rec["key"] in bad_keys for records in rounds for rec in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem += f"-trace{args.trace}"
    record = {
        **result, "workload": workload.name, "why": workload.why,
        "prediction": workload.prediction, "provenance": prov, "errors": errors,
        "known_defect_outputs": known,
        "detail": {k: v and {"value": v[0], "unit": v[1]} for k, v in detail.items()},
        "failed_by_design": failed_by_design, "other_non_converged": other_failures,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "measured_s": measured_s,
        "records": [record_row(r) for r in rounds[0]],
    }
    tmp = OUT / f"{stem}.json.tmp"
    tmp.write_text(json.dumps(record, indent=1))
    tmp.replace(OUT / f"{stem}.json")
    if tracer is not None:
        tracer.write_csv(OUT / f"{stem}-spans.csv.gz")
    lines += [f"known defect (does not fail the run): {k}" for k in known]
    for line in lines + [f"ERROR {e}" for e in errors]:
        print(line)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
