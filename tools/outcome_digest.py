"""Print one ``key sha256 evals=N term=T`` line per solve, to check that a
change keeps every solve outcome byte for byte.

    python tools/outcome_digest.py [--seed N] > digests.txt

It solves one round of each workload grid in ``perfbench/workloads.py`` and
one replication of each ``bench`` suite through ``run_suite``. A workload
solve's hash covers the returned point's bytes, the evaluations, the
termination, the final residual, the residual history and every field of
the first return value (the delta vector, or the ``DurableSolution``'s
values, delta, ownership path and dist). A ``renested`` line hashes the same for one solve, by
one RCNL mapping and method, of the ``rcnl_j75`` design's market at a
drawn theta, re-nested into four interleaved nests of 19, 19, 19 and 18
products: unequal nests in two size classes, which the DGP's three equal
nests never make. A suite record's hash covers every ``RunRecord`` field
but ``wall_ms``. A ``truth`` line hashes one DGP design's market and its
truth (``delta_true`` for the static and nested designs, ``solution_true``
for the durable ones) at replication 0. A solve line ends with its
evaluations and termination in clear, so a changed line shows whether the
outcome changed or only its bits. ``--seed`` replaces every default master
seed.

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
                               draw_theta, gen_dynamic_market, gen_nested_market,
                               gen_static_market)
from demandinv.rcnl import RCNL_MAPPINGS, NestedMarket, rcnl_solve_inner  # noqa: E402


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


def in_clear(hash_value, outcome) -> str:
    """hash_value with the evaluations and termination of outcome (a
    SolveOutcome or a RunRecord)."""
    return f"{hash_value} evals={outcome.evaluations} term={outcome.termination}"


def workload_lines(seed):
    for workload in workloads.WORKLOADS.values():
        markets = workloads.build_markets(workload, seed)
        for r in range(workload.replications):
            for solve in workload.grid:
                result, outcome = workloads.call(solve, markets[solve.dgp, r])
                yield (f"{workload.name} r{r} {solve.label}",
                       in_clear(digest(result, outcome), outcome))


def suite_lines(seed):
    for suite in SUITES:
        cfg = replace(default_config(suite), replications=1)
        if seed is not None:
            cfg = replace(cfg, master_seed=seed)
        for rec in run_suite(cfg):
            kept = [getattr(rec, f.name) for f in fields(rec) if f.name != "wall_ms"]
            yield f"bench {suite} r{rec.replication} {rec.algorithm}", in_clear(digest(kept), rec)


# key -> (generator, parameters, default master seed, truth field)
DESIGNS = {
    "static_j25": (gen_static_market, StaticDgpParams(n_products=25), 9, "delta_true"),
    "static_j250": (gen_static_market, StaticDgpParams(n_products=250), 4, "delta_true"),
    "static_2types": (gen_static_market, StaticDgpParams(n_products=250, n_draws=2), 7,
                      "delta_true"),
    "rcnl_j75": (gen_nested_market, StaticDgpParams(n_products=75), 7, "delta_true"),
    "dynamic_t50": (gen_dynamic_market, DynamicDgpParams(horizon=50), 11, "solution_true"),
    "dynamic_t25": (gen_dynamic_market, DynamicDgpParams(horizon=25), 11, "solution_true"),
}


def renested_lines(seed):
    gen, params, default_seed, _ = DESIGNS["rcnl_j75"]
    rng = SeededRng(default_seed if seed is None else seed, 0).generator()
    inst = gen(params, rng)
    base = inst.with_theta(draw_theta(inst.theta_true, rng)).base
    mkt = NestedMarket(base, np.arange(base.n_products) % 4, 0.5)
    for mapping in RCNL_MAPPINGS:
        for method in workloads.METHODS:
            cfg = AccelConfig(method=method, tolerance=1e-13, max_evaluations=1000)
            delta, outcome = rcnl_solve_inner(mkt, mapping, cfg)
            yield (f"renested rcnl_j75 {mapping}+{method}",
                   in_clear(digest(delta, outcome), outcome))


def truth_lines(seed):
    for key, (gen, params, default_seed, truth) in DESIGNS.items():
        inst = gen(params, SeededRng(default_seed if seed is None else seed, 0).generator())
        yield f"truth {key}", digest(inst.market, getattr(inst, truth))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed for every workload, suite and DGP design "
                             "(default: their own)")
    args = parser.parse_args(argv)
    for lines in (workload_lines(args.seed), renested_lines(args.seed), suite_lines(args.seed),
                  truth_lines(args.seed)):
        for key, value in lines:
            print(key, value, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
