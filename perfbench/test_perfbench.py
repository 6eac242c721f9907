"""Tests of the benchmark itself: tracing fidelity, output checks, run contract.

    python3 -m pytest -q perfbench/test_perfbench.py

The CLI tests run small-markets end to end and take about a minute.
"""

import dataclasses
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the repository's src/ on sys.path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from demandinv import accel, dynamic, numerics, rcnl, static_rcl  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _subset(name, labels):
    """One replication of a workload, restricted to the given solve labels."""
    w = workloads.WORKLOADS[name]
    grid = tuple(s for s in w.grid if s.label in labels)
    assert len(grid) == len(labels)
    return dataclasses.replace(w, replications=1, grid=grid)


CASES = {
    "static-blp": _subset("static-blp", {
        "static_j250 delta1+anderson", "static_j250 V1+squarem",
        "rcnl delta1+spectral", "rcnl IV1+plain"}),
    "dynamic-durable": _subset("dynamic-durable", {
        "dynamic_t50 pf1+squarem[blocks]", "dynamic_t50 joint1+anderson",
        "dynamic_t25 ivs1+anderson"}),
    "small-markets": dataclasses.replace(workloads.WORKLOADS["small-markets"],
                                         replications=1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_traced_round_matches_untraced_and_counts_every_evaluation(name):
    w = CASES[name]
    markets = workloads.build_markets(w, seed=3)
    untraced = run.run_round(w, markets)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_round(w, markets, tracer)

    def outcomes(records):
        return [run.outcome_key(run.record_row(r)) for r in records]

    assert outcomes(traced) == outcomes(untraced)
    spans = tracer.per_solve()
    assert sorted(spans) == list(range(len(traced)))
    for i, rec in enumerate(traced):
        assert spans[i]["evaluate"][0] == rec["evaluations"], rec["key"]
        assert spans[i]["accel.solve"][0] == 1, rec["key"]
        assert spans[i]["entry"][0] == 1, rec["key"]
    metrics, detail, errors = run.per_layer(markets, [traced], tracer, [untraced], 1.0)
    assert errors == []
    assert metrics["accel.evals"][0] == sum(r["evaluations"] for r in traced)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    # every patched name is restored
    assert static_rcl.solve is rcnl.solve is dynamic.solve is accel.solve
    assert accel.ls_minnorm is numerics.ls_minnorm
    assert dynamic.chebyshev_eval_rows is numerics.chebyshev_eval_rows
    assert dynamic.ols_ar1_rows is numerics.ols_ar1_rows


W = workloads.WORKLOADS["small-markets"]
DEFECT = W.known_defects[0]
DEFECT_SOLVE = next(s for s in W.grid if s.label == DEFECT.label)


def _rec(key, evaluations=10, termination="converged", dist=1e-14, s=W.grid[0],
         point_absmax=3.0):
    return {"key": key, "solve": s, "evaluations": evaluations, "termination": termination,
            "dist": dist, "point_absmax": point_absmax, "seconds": 0.0}


def _keys(messages):
    return [m.split(":")[0] for m in messages]


def test_check_round_flags_wrong_outputs():
    reference = [_rec("a"), _rec("b"), _rec("c"),
                 _rec("d", termination="non_finite", dist=float("nan")),
                 _rec("e", dist=0.5, s=DEFECT_SOLVE, point_absmax=1.2e14)]
    errors, known = run.check_round(W, reference, reference)
    assert errors == [] and _keys(known) == ["e"]
    bad = [_rec("a", dist=float("nan")), _rec("b", dist=1e-6), _rec("c", evaluations=11),
           reference[3], reference[4]]
    errors, _ = run.check_round(W, bad, reference)
    assert _keys(errors) == ["a", "a", "b", "b", "c"]


def test_the_defect_label_fails_the_run_unless_its_point_has_drifted():
    # A wrong DIST of the defect's label at an ordinary V point is a wrong output.
    recs = [_rec("near", dist=0.02, s=DEFECT_SOLVE, point_absmax=4.0),
            _rec("nan", dist=float("nan"), s=DEFECT_SOLVE, point_absmax=1.2e14)]
    errors, known = run.check_round(W, recs, recs)
    assert _keys(errors) == ["near", "nan"] and known == []
    # More drifted solves in one round than the defect's observed rate fail too.
    recs = [_rec(k, dist=0.02, s=DEFECT_SOLVE, point_absmax=1.2e14)
            for k in ("x", "y")]
    errors, known = run.check_round(W, recs, recs)
    assert _keys(errors) == ["x", "y"] and _keys(known) == ["x", "y"]


def test_the_known_defect_is_recognised_on_the_market_where_it_was_found():
    # Seed 102, replication 15: V0+anderson drifts to max|V| ~ 1e14.
    w = dataclasses.replace(W, grid=(DEFECT_SOLVE,))
    markets = {("static_2types", 0): workloads.build_markets(
        dataclasses.replace(w, replications=16), seed=102)["static_2types", 15]}
    records = run.run_round(dataclasses.replace(w, replications=1), markets)
    assert records[0]["termination"] == "converged" and records[0]["dist"] > W.accuracy
    errors, known = run.check_round(w, records, records)
    assert errors == [] and len(known) == 1


def test_an_earlier_run_with_other_outcomes_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    rec = {"key": "r0 x", "evaluations": 10, "termination": "converged", "dist": 1e-14,
           "point_absmax": 3.0, "seconds": 0.1}
    prev = {"provenance": {"code_sha256": "abc"}, "records": [run.record_row(rec)]}
    (tmp_path / "w-seed1-trace1.json").write_text(json.dumps(prev))
    assert run.check_previous_runs("w-seed1", "abc", [rec]) == []
    assert run.check_previous_runs("w-seed1", "other code", [dict(rec, evaluations=9)]) == []
    assert len(run.check_previous_runs("w-seed1", "abc", [dict(rec, evaluations=9)])) == 1


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_the_allocator_thresholds_are_pinned():
    assert run.MALLOC == {name: value for name, (_, value) in run.MALLOC_PINS.items()}


def test_main_prints_the_declared_metrics_and_identical_records(tmp_path, monkeypatch,
                                                               capsys):
    # One round instead of the workload's five keeps this test short.
    monkeypatch.setitem(workloads.WORKLOADS, "small-markets", dataclasses.replace(
        workloads.WORKLOADS["small-markets"], rounds=1))
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = {}
    for trace in (0, 1):
        code = run.main(["--workload", "small-markets", "--seed", "3", "--trace", str(trace)])
        stdout = capsys.readouterr().out
        assert code == 0, stdout
        result = json.loads(stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
        out[trace] = json.loads((tmp_path / f"small-markets-seed3-trace{trace}.json").read_text())
    assert [run.outcome_key(r) for r in out[0]["records"]] == \
        [run.outcome_key(r) for r in out[1]["records"]]


def test_cli_fails_without_the_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-markets", "--seed", "3",
         "--seconds", "40", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
