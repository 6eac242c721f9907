"""Alternating pairs of benchmark runs on two checkouts, and the verdicts on a gain
and on a regression.

    python tools/bench_pairs.py --parent DIR --change DIR --workload small-markets \\
        [--seed default --seed 7919] [--pairs 10] [--append LABEL]

Pair k runs ``perfbench/run.py --workload W --trace 0`` once in each checkout,
the parent first when k is even and the change first when k is odd. A run
whose result is not correct stops the script with exit code 1. For each
end-to-end metric of ``BENCHMARK.json`` it then prints each side's median and
quartiles, the relative change of the median, the change's wins (ties count
for neither side) and two verdicts:

* gain: the rule for claiming a gain. The change wins at least nine tenths
  of the pairs, and the medians differ by more than the distance between the
  parent's quartiles;
* worse: the rule that refuses a change. The change's median is worse than
  the parent's by more than the metric's ``bound``, relative to the parent's
  median. The script exits with code 1 if any metric is worse.

``--seed`` may be given more than once; ``default`` stands for each
workload's own seeds, and no ``--seed`` means ``--seed default``. Each seed
runs its own pairs and gets its own verdicts.

With ``--append LABEL`` each seed's two series go into this repository's
``BENCH_<workload>.json`` as two entries, the parent's and then the change's
under LABEL, in the file's entry format.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the
    sorted values as numpy.percentile does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better: str) -> tuple[int, bool]:
    """(wins, gain) for paired series of one metric: wins counts the pairs
    whose change value is better (ties count for neither side), and gain holds
    when the change wins at least nine tenths of the pairs and its median is
    better than the parent's by more than the parent's interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = 10 * wins >= 9 * len(parent) and sign * (quartiles(change)[1] - p_med) > p_q3 - p_q1
    return wins, gain


def worse(parent, change, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than
    bound, relative to the parent's median (at a parent median of 0, by
    anything)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = quartiles(parent)[1], quartiles(change)[1]
    return sign * (p_med - c_med) > bound * abs(p_med)


def seed_arg(value: str):
    """A --seed value: an integer, or None for default."""
    return None if value == "default" else int(value)


def run_once(checkout: Path, workload: str, seed) -> dict:
    """One untraced run in checkout: its result line, with the provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"bench_pairs: the run in {checkout} is not correct "
                 f"(exit code {proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    prov = [line for line in lines if line.startswith("provenance: ")]
    result["provenance"] = json.loads(prov[-1][len("provenance: "):])
    return result


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def entry(label, commit, command, order, runs) -> dict:
    """One BENCH_<workload>.json entry for one side's runs."""
    prov = runs[0]["provenance"]
    metrics = list(runs[0]["metrics"])
    series = {m: [run["metrics"][m]["value"] for run in runs] for m in metrics}
    return {
        "label": label, "commit": commit, "command": command, "order": order,
        "environment": {"cpu": cpu_model(),
                        **{k: prov[k] for k in ("python", "numpy", "scipy", "blas", "nproc",
                                                "affinity_cpus", "threads", "malloc")}},
        "code_sha256": prov["code_sha256"],
        "runs": [{"correct": run["correct"], "attempted": run["attempted"],
                  "failed": run["failed"],
                  "metrics": {m: run["metrics"][m]["value"] for m in metrics}}
                 for run in runs],
        "median": {m: quartiles(v)[1] for m, v in series.items()},
        "quartiles": {m: [quartiles(v)[0], quartiles(v)[2]] for m, v in series.items()},
    }


def run_pairs(dirs, workload, seed, pairs) -> tuple[dict, list]:
    """(runs per side, the order they ran in) of pairs alternating pairs."""
    runs = {side: [] for side in SIDES}
    order = []
    for k in range(pairs):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(dirs[side], workload, seed))
            order.append(f"{k}:{side}")
            value = runs[side][-1]["metrics"]["inversion_s"]["value"]
            print(f"seed {seed}, pair {k} {side}: inversion_s {value:.4g}", flush=True)
    return runs, order


def report(runs, bounds, workload, seed, pairs) -> bool:
    """Print each metric's verdicts; True if any metric is worse."""
    print(f"{workload}, {pairs} pairs, seed {seed}: median [q1, q3]")
    any_worse = False
    for name, spec in bounds.items():
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        wins, gain = verdict(parent, change, spec["better"])
        bad = worse(parent, change, spec["better"], spec["bound"])
        any_worse |= bad
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        rel = f"{(cm - pm) / pm:+.2%}" if pm else "n/a"
        print(f"  {name}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}], change {cm:.6g} "
              f"[{c1:.6g}, {c3:.6g}], {rel} ({spec['better']} is better, bound "
              f"{spec['bound']:.0%}), change wins {wins} of {pairs}, "
              f"gain {'yes' if gain else 'no'}, worse {'yes' if bad else 'no'}")
    return any_worse


def append_entries(workload, seed, label, pairs, runs, order) -> None:
    """Append both sides' entries of one seed to BENCH_<workload>.json."""
    path = ROOT / f"BENCH_{workload}.json"
    bench = json.loads(path.read_text())
    sha = runs["parent"][0]["provenance"]["git_sha"]
    command = (f"python3 perfbench/run.py --workload {workload} --trace 0"
               + (f" --seed {seed}" if seed is not None else ""))
    how = (f"{pairs} pairs, alternating which side runs first (parent first in "
           f"even pairs); runs in the order they ran (pair:side): {', '.join(order)}")
    seed_note = f", seed {seed}" if seed is not None else ""
    bench["entries"] += [
        entry(f"{sha[:7]} (parent){seed_note}", sha, command, how, runs["parent"]),
        entry(label + seed_note, f"the child of {sha[:7]}", command, how, runs["change"])]
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"appended two entries to {path.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=seed_arg, action="append",
                        help="a master seed, or default; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--append", metavar="LABEL", default=None,
                        help="append both series to BENCH_<workload>.json, the change's "
                             "under this label")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in dirs.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    bounds = {m["name"]: m for m in
              json.loads((dirs["change"] / "BENCHMARK.json").read_text())["end_to_end"]}

    any_worse = False
    for seed in args.seed or [None]:
        runs, order = run_pairs(dirs, args.workload, seed, args.pairs)
        any_worse |= report(runs, bounds, args.workload, seed, args.pairs)
        if args.append:
            append_entries(args.workload, seed, args.append, args.pairs, runs, order)
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
