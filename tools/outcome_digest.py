"""Print one ``key sha256`` line per solve, to check that a change keeps
every solve outcome byte for byte.

    python tools/outcome_digest.py [--seed N] > digests.txt

It solves one round of each workload grid in ``perfbench/workloads.py``,
one replication of each ``bench`` suite through ``run_suite``, and
``traditional_nested_solve``, which neither runs, on one small durable
market. A workload or nested solve's hash covers the returned point's
bytes, the evaluations, the termination, the final residual, the residual
history and every field of the first return value (the delta vector, or the
``DurableSolution`` with its ``IvsState``), and for the nested solve the
inner evaluation count. A suite record's hash covers every ``RunRecord``
field but ``wall_ms``. ``--seed`` replaces every default master seed.

Run it from the repository root on two checkouts and ``diff`` the outputs;
nothing is stored, so the script pins no bits of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# one BLAS thread, as perfbench runs: the thread count can move the last bits
# of a matrix product
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from demandinv.accel import AccelConfig  # noqa: E402
from demandinv.bench import SUITES, default_config, run_suite  # noqa: E402
from demandinv.datagen import DynamicDgpParams, SeededRng, gen_dynamic_market  # noqa: E402
from demandinv.dynamic import traditional_nested_solve  # noqa: E402


def digest(*objs) -> str:
    """sha256 over dataclass fields (by name), array dtype, shape and bytes,
    and the repr of anything else. Kept apart from perfbench's
    market_digest, so that a change to the benchmark cannot move it."""
    h = hashlib.sha256()

    def feed(obj):
        if is_dataclass(obj):
            h.update(type(obj).__name__.encode())
            for f in fields(obj):
                h.update(f.name.encode())
                feed(getattr(obj, f.name))
        elif isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode() + str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, (list, tuple)):
            h.update(f"{type(obj).__name__}{len(obj)}".encode())
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    for obj in objs:
        feed(obj)
    return h.hexdigest()


def workload_lines(seed):
    for workload in workloads.WORKLOADS.values():
        markets = workloads.build_markets(workload, seed)
        for r in range(workload.replications):
            for solve in workload.grid:
                result, outcome = workloads.call(solve, markets[solve.dgp, r])
                yield f"{workload.name} r{r} {solve.label}", digest(result, outcome)


def suite_lines(seed):
    for suite in SUITES:
        cfg = replace(default_config(suite), replications=1)
        if seed is not None:
            cfg = replace(cfg, master_seed=seed)
        for rec in run_suite(cfg):
            kept = [getattr(rec, f.name) for f in fields(rec) if f.name != "wall_ms"]
            yield f"bench {suite} r{rec.replication} {rec.algorithm}", digest(kept)


def nested_lines(seed):
    params = DynamicDgpParams(n_products=4, n_draws=6, horizon=12, beta=0.9)
    rng = SeededRng(99 if seed is None else seed, 10).generator()
    market = gen_dynamic_market(params, rng).market
    for gamma in (0.0, 1.0):
        for method in ("plain", "anderson"):
            inner = AccelConfig(method=method, tolerance=1e-12, max_evaluations=5000)
            outer = replace(inner, max_evaluations=2000)
            result = traditional_nested_solve(market, gamma, 1.0, inner, outer)
            yield f"nested gamma{gamma:g} {method}", digest(*result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for every workload, suite and the nested market "
                             "(default: their own)")
    args = parser.parse_args(argv)
    for lines in (workload_lines(args.seed), suite_lines(args.seed), nested_lines(args.seed)):
        for key, value in lines:
            print(key, value, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
