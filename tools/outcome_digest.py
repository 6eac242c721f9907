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
field but ``wall_ms``. A ``truth`` line hashes one DGP design's market and
its truth (``delta_true`` for the static and nested designs,
``solution_true`` for the durable ones) at replication 0, and the nested
solve's market and truth at the replication it draws. ``--seed`` replaces
every default master seed.

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
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams,  # noqa: E402
                               gen_dynamic_market, gen_nested_market, gen_static_market)
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


# key -> (generator, parameters, default master seed, replication, truth field)
DESIGNS = {
    "static_j25": (gen_static_market, StaticDgpParams(n_products=25), 9, 0, "delta_true"),
    "static_j250": (gen_static_market, StaticDgpParams(n_products=250), 4, 0, "delta_true"),
    "static_2types": (gen_static_market, StaticDgpParams(n_products=250, n_draws=2), 7, 0,
                      "delta_true"),
    "rcnl_j75": (gen_nested_market, StaticDgpParams(n_products=75), 7, 0, "delta_true"),
    "dynamic_t50": (gen_dynamic_market, DynamicDgpParams(horizon=50), 11, 0, "solution_true"),
    "dynamic_t25": (gen_dynamic_market, DynamicDgpParams(horizon=25), 11, 0, "solution_true"),
    "nested_solve": (gen_dynamic_market,
                     DynamicDgpParams(n_products=4, n_draws=6, horizon=12, beta=0.9), 99, 10,
                     "solution_true"),
}


def instance(key, seed):
    """(instance, its truth) of a design; seed, if given, replaces the master seed."""
    gen, params, default_seed, rep, truth = DESIGNS[key]
    inst = gen(params, SeededRng(default_seed if seed is None else seed, rep).generator())
    return inst, getattr(inst, truth)


def truth_lines(seed):
    for key in DESIGNS:
        inst, truth = instance(key, seed)
        yield f"truth {key}", digest(inst.market, truth)


def nested_lines(seed):
    market = instance("nested_solve", seed)[0].market
    for gamma in (0.0, 1.0):
        for method in ("plain", "anderson"):
            inner = AccelConfig(method=method, tolerance=1e-12, max_evaluations=5000)
            outer = replace(inner, max_evaluations=2000)
            result = traditional_nested_solve(market, gamma, 1.0, inner, outer)
            yield f"nested gamma{gamma:g} {method}", digest(*result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for every workload, suite and DGP design "
                             "(default: their own)")
    args = parser.parse_args(argv)
    for lines in (workload_lines(args.seed), suite_lines(args.seed), nested_lines(args.seed),
                  truth_lines(args.seed)):
        for key, value in lines:
            print(key, value, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
