"""Command-line benchmark runner.

    bench run --suite static_j25 [static_j250 ...] [--replications N] [--out DIR]
    bench run --config cfg.json [--replications N] [--out DIR]
    bench summarize --in records.csv [--format md|csv]

``run`` writes records.csv, summary.csv and summary.md for every suite under
DIR/<suite>/ and prints each Markdown summary; ``summarize`` re-aggregates
an existing records file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .accel import checked_tolerance
from .bench import (SUITES, config_from_json, default_config, read_records,
                    render, run_suite, summarize, write_records)


def _cmd_run(args) -> int:
    if bool(args.suite) == bool(args.config):
        print("give exactly one of --suite and --config", file=sys.stderr)
        return 2
    try:
        configs = ([config_from_json(Path(args.config).read_text())] if args.config
                   else [default_config(suite) for suite in args.suite])
        if args.replications is not None:
            configs = [replace(cfg, replications=args.replications) for cfg in configs]
        outs = [Path(args.out) / cfg.suite for cfg in configs]
        for out in outs:  # before the first solve, so a bad --out costs no run
            out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:
        print(f"bench run: {err}", file=sys.stderr)
        return 2
    for cfg, out in zip(configs, outs):
        records = run_suite(cfg)
        rows = summarize(records, dist_tol=cfg.dist_tol)
        write_records(records, out / "records.csv")
        (out / "summary.csv").write_text(render(rows, "csv"))
        (out / "summary.md").write_text(render(rows, "md"))
        print(f"suite={cfg.suite} replications={cfg.replications} "
              f"seed={cfg.master_seed} -> {out}")
        print(render(rows, "md"))
    return 0


def _cmd_summarize(args) -> int:
    try:
        dist_tol = checked_tolerance("--dist-tol", args.dist_tol)
        records = read_records(args.infile)
    except (OSError, ValueError) as err:
        print(f"bench summarize: {err}", file=sys.stderr)
        return 2
    rows = summarize(records, dist_tol=dist_tol)
    print(render(rows, args.format), end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench",
                                     description="fixed-point inner-loop benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run benchmark suites")
    p_run.add_argument("--suite", nargs="+", choices=SUITES)
    p_run.add_argument("--config", help="JSON config overriding one suite's defaults")
    p_run.add_argument("--replications", type=int, default=None,
                       help="override every suite's replication count")
    p_run.add_argument("--out", default="bench_out",
                       help="output root; each suite writes to OUT/<suite>/")
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="aggregate a records.csv")
    p_sum.add_argument("--in", dest="infile", required=True)
    p_sum.add_argument("--format", choices=("csv", "md"), default="md")
    p_sum.add_argument("--dist-tol", type=float, default=1e-12)
    p_sum.set_defaults(func=_cmd_summarize)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
