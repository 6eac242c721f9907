"""Workload definitions for the inner-loop benchmark.

A workload is a fixed set of markets crossed with a list of algorithms. The
markets of replication ``r`` come from demandinv's seeded DGPs on the stream
``SeededRng(seed, r)``, the stream ``bench run`` uses, so a run at a suite's
default seed solves the markets of that suite's first replications. A "solve"
is one call to a public entry point: ``solve_inner``, ``rcnl_solve_inner``,
``pf_solve``, ``traditional_joint_solve`` or ``ivs_solve``.

Why each workload exists, and which change it should show, is recorded next
to its definition in ``WORKLOADS`` below.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from demandinv import datagen, dynamic, rcnl, static_rcl
from demandinv.accel import AccelConfig

# A second seed, not used while this benchmark was tuned. A later claim of a
# gain is re-checked on it.
HELD_OUT_SEED = 7919

# dist_ok_pct counts solves whose DIST (the log-share audit) is below this.
DIST_OK = 1e-12

METHODS = ("plain", "anderson", "spectral", "squarem")


@dataclass(frozen=True)
class Dgp:
    """One market design: how to draw a market, and the suite's default seed."""

    name: str
    default_seed: int  # master seed of the matching suite in bench.default_config
    build: Callable[[np.random.Generator], object]


@dataclass(frozen=True)
class Solve:
    """One algorithm applied to the market of one DGP in every replication.

    ``family`` names the mapping kernel (the per-layer label); ``mu_passes``
    is how many times one evaluation of that kernel reads the whole ``mu``
    array, used for the computed bytes-per-evaluation figure.
    """

    dgp: str
    family: str
    mapping: str
    cfg: AccelConfig
    mu_passes: int = 1

    @property
    def label(self) -> str:
        tag = self.cfg.method + ("[blocks]" if self.cfg.use_blocks else "")
        return f"{self.dgp} {self.mapping}+{tag}"


@dataclass(frozen=True)
class KnownDefect:
    """A documented wrong output of the library at this commit.

    A converged solve of ``label`` whose DIST is finite but above the
    workload's accuracy matches the defect only if its final point has
    drifted to at least ``min_abs_point`` in absolute value, and at most
    ``max_per_round`` solves of a round may match. Matches count in
    ``failed`` and are listed in the result; they do not fail the run. Any
    other wrong output of the label does.
    """

    label: str
    min_abs_point: float
    max_per_round: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prediction: str
    replications: int
    # Rounds per run, fixed so that the number of timing samples per solve
    # does not depend on how fast the code under test is. Chosen so that a
    # run measures 25-40 s at the commit that added the benchmark.
    rounds: int
    dgps: tuple[Dgp, ...]
    grid: tuple[Solve, ...]
    accuracy: float  # a converged solve with a larger DIST is a wrong output
    by_design_failures: tuple[str, ...] = ()  # labels expected not to converge
    known_defects: tuple[KnownDefect, ...] = ()


def _static(params: datagen.StaticDgpParams):
    def build(rng):
        inst = datagen.gen_static_market(params, rng)
        return inst.with_theta(datagen.draw_theta(inst.theta_true, rng))
    return build


def _nested(params: datagen.StaticDgpParams):
    def build(rng):
        inst = datagen.gen_nested_market(params, rng)
        return inst.with_theta(datagen.draw_theta(inst.theta_true, rng))
    return build


def _durable(params: datagen.DynamicDgpParams):
    def build(rng):
        inst = datagen.gen_dynamic_market(params, rng)
        return inst.with_theta(datagen.draw_theta(inst.theta_true, rng))
    return build


def _large_hetero(rng):
    return datagen.large_heterogeneity_market()[0]


# Passes over mu per evaluation, read off each kernel: phi_delta builds
# delta + mu once; phi_V goes V -> delta -> V; the RCNL kernels read mu in the
# nest inclusive values and again in the shares; the joint dynamic map reads
# it for pr0, the choice probabilities and omega.
_MU_PASSES = {"static_rcl.delta": 1, "static_rcl.V": 2, "static_rcl.kalouptsidi": 1,
              "rcnl.delta": 2, "rcnl.IV": 2,
              "dynamic.pf": 1, "dynamic.joint": 3, "dynamic.ivs": 1}


def _solve(dgp, family, mapping, method, tol, max_evals, blocks=False):
    cfg = AccelConfig(method=method, tolerance=tol, max_evaluations=max_evals,
                      use_blocks=blocks)
    return Solve(dgp, family, mapping, cfg, _MU_PASSES[family])


def _static_grid(dgp, gammas, max_evals, v_name="V", module="static_rcl"):
    return tuple(_solve(dgp, f"{module}.{m}", f"{m}{g}", meth, 1e-13, max_evals)
                 for m in ("delta", v_name) for g in gammas for meth in METHODS)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="static-blp",
        # The many-products, many-draws case BLP users run. Mapping evaluations
        # take ~95% of solve time (1.7 ms each for static delta, 2.8 ms for
        # static V, 1.4-1.5 ms for RCNL, one BLAS thread); the solver loop ~4%.
        #
        # Only the outside-share-corrected half of the grid (gamma = 1) runs
        # here. At gamma = 0, plain iteration hit the 1000-evaluation cap on 13
        # of 40 probed J=250/RCNL replications and spectral/SQUAREM took up to
        # 740 evaluations, so one replication cost 1-15 s and a run's time was
        # set by how many such markets its seed drew. The gamma = 0 mappings
        # run through the same kernels in small-markets.
        why="many products and draws: J=250/I=1000 static and J=75 RCNL, "
            "evaluation cost dominates (~95% of solve time)",
        prediction="faster mapping kernels (e.g. exp-space shares) show here; a "
                   "solver-only change shows no change",
        replications=40,
        rounds=1,  # ~25 s
        dgps=(Dgp("static_j250", 4, _static(datagen.StaticDgpParams(n_products=250))),
              Dgp("rcnl", 7, _nested(datagen.StaticDgpParams(n_products=75)))),
        grid=(_static_grid("static_j250", (1,), 1000)
              + _static_grid("rcnl", (1,), 1000, v_name="IV", module="rcnl")),
        accuracy=1e-12,
    ),
    Workload(
        name="dynamic-durable",
        # A mapping evaluation is ~180 tiny numpy reductions in a Python loop
        # over T (2.1-2.9 ms each); the solver takes ~15% of solve time (480
        # us per evaluation, ls_minnorm ~220 us per call). Plain iteration is
        # left out: it takes 7-9 s per solve.
        #
        # Solves are capped at 1000 evaluations, not the suite's 3000. Converged
        # solves took at most 650 in probes, but IVS+Anderson stalls (residual
        # ~0.05) on ~3% of T=25 markets; at 3000 evaluations one stalled solve
        # adds 7.5 s to a ~28 s round and decides the run's time.
        why="durable goods, T=50 PF/joint and T=25 IVS: Python loop over T per "
            "evaluation, large Anderson least squares and per-period steps",
        prediction="faster per-period kernels and solver-loop changes (step "
                   "sizes, Anderson least squares) both show here",
        replications=4,
        rounds=1,  # ~28 s
        dgps=(Dgp("dynamic_t50", 11, _durable(datagen.DynamicDgpParams(horizon=50))),
              Dgp("dynamic_t25", 11, _durable(datagen.DynamicDgpParams(horizon=25)))),
        grid=(_solve("dynamic_t50", "dynamic.pf", "pf1", "anderson", 1e-12, 1000),
              _solve("dynamic_t50", "dynamic.pf", "pf1", "spectral", 1e-12, 1000, blocks=True),
              _solve("dynamic_t50", "dynamic.pf", "pf1", "squarem", 1e-12, 1000, blocks=True),
              _solve("dynamic_t50", "dynamic.joint", "joint1", "anderson", 1e-12, 1000),
              _solve("dynamic_t25", "dynamic.ivs", "ivs1", "anderson", 1e-12, 1000),
              _solve("dynamic_t25", "dynamic.ivs", "ivs1", "squarem", 1e-12, 1000)),
        # DIST of converged dynamic solves reached 5.5e-13 on probed seeds.
        accuracy=1e-11,
    ),
    Workload(
        name="small-markets",
        # An evaluation costs ~29 us, so solver time and Python call overhead
        # dominate: the solver takes ~1/3 of solve time, ~15 us per
        # evaluation. 5 of the 16 large-heterogeneity solves fail by design and
        # ~80% of that market's 9956 evaluations go to failed solves. Each
        # replication repeats the fixed market and draws one two-type market,
        # so the fixed market keeps the run's evaluation count steady.
        why="fixed large-heterogeneity market plus a two-type J=250 market: "
            "tiny states, many iterations, solver overhead dominates",
        prediction="solver-loop changes (a single solver loop, safeguarded Anderson) "
                   "show here; a kernel rewrite that "
                   "precomputes per-market arrays shows mostly as a cost here",
        replications=20,
        rounds=5,  # ~8 s each; the noisiest timing, so it measures longest
        dgps=(Dgp("large_hetero", 0, _large_hetero),
              Dgp("static_2types", 7,
                  _static(datagen.StaticDgpParams(n_products=250, n_draws=2)))),
        grid=(_static_grid("large_hetero", (0, 1), 2000)
              + _static_grid("static_2types", (0, 1), 1000)
              + tuple(_solve("static_2types", "static_rcl.kalouptsidi", k, "plain",
                             1e-13, 1000)
                      for k in ("kalouptsidi_mixed", "kalouptsidi_tilde"))),
        accuracy=1e-12,
        by_design_failures=("large_hetero delta0+plain", "large_hetero delta1+plain",
                            "large_hetero V0+plain", "large_hetero V1+plain",
                            "large_hetero delta0+anderson"),
        # Anderson on the gamma = 0 value mapping can drift along its nearly
        # flat direction (every V_i shifted together) to V ~ 1e14, where the
        # floating-point residual is exactly 0: the solve reports convergence
        # at a point with DIST 2e-3 to 0.5. Seen on 4 of 1000 probed two-type
        # markets (seed 102 replication 15, for one), so on at most one of a
        # round's 20; an undrifted solve ends at max|V| < 10.
        known_defects=(KnownDefect("static_2types V0+anderson", min_abs_point=1e10,
                                   max_per_round=1),),
    ),
)}


def build_markets(workload: Workload, seed: int | None) -> dict:
    """Every market of the run, keyed by (dgp name, replication)."""
    markets = {}
    for r in range(workload.replications):
        for dgp in workload.dgps:
            master = dgp.default_seed if seed is None else seed
            rng = datagen.SeededRng(master, r).generator()
            markets[dgp.name, r] = dgp.build(rng)
    return markets


def market_digest(market) -> str:
    """A hex digest of every array and scalar field of a market."""
    h = hashlib.sha256()

    def feed(obj):
        if is_dataclass(obj):
            for f in fields(obj):
                h.update(f.name.encode())
                feed(getattr(obj, f.name))
        elif isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode() + str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        else:
            h.update(repr(obj).encode())

    feed(market)
    return h.hexdigest()


def mu_nbytes(market) -> int:
    base = market.base if isinstance(market, rcnl.NestedMarket) else market
    return base.mu.nbytes


def call(solve: Solve, market):
    """The timed region: one call to a public entry point.

    Every dynamic solve uses the outside-share-corrected mapping, gamma = 1.
    """
    module = solve.family.split(".")[0]
    if module == "static_rcl":
        return static_rcl.solve_inner(market, solve.mapping, solve.cfg)
    if module == "rcnl":
        return rcnl.rcnl_solve_inner(market, solve.mapping, solve.cfg)
    if solve.family == "dynamic.pf":
        return dynamic.pf_solve(market, 1.0, solve.cfg)
    if solve.family == "dynamic.joint":
        return dynamic.traditional_joint_solve(market, 1.0, 1.0, solve.cfg)
    return dynamic.ivs_solve(market, 1.0, dynamic.IvsGrid(), solve.cfg)


def audit(solve: Solve, market, result):
    """(SolveOutcome, DIST) of a finished call; DIST is NaN at a non-finite point."""
    first, outcome = result
    if solve.family.startswith("dynamic"):
        return outcome, first.dist
    if not np.all(np.isfinite(first)):
        return outcome, float("nan")
    if solve.family.startswith("rcnl"):
        return outcome, rcnl.rcnl_dist_metric(first, market)
    return outcome, static_rcl.dist_metric(first, market)
