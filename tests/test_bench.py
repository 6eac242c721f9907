import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demandinv
from demandinv import cli
from demandinv.accel import AccelConfig
from demandinv.bench import (RECORD_FIELDS, AlgorithmSpec, ExperimentConfig, RunRecord,
                             config_from_json, default_config, read_records, render,
                             run_suite, summarize, write_records)
from demandinv.cli import main as cli_main


def tiny_config(suite="static_j25", reps=2):
    return dataclasses.replace(default_config(suite), replications=reps,
                               algorithms=[AlgorithmSpec("delta", 1.0, "plain"),
                                           AlgorithmSpec("delta", 1.0, "anderson")])


def quartiles(evals):
    """(min, p25, median, p75, max) of summarize's row for these evaluation counts."""
    row, = summarize([RunRecord("static_j25", r, "a", e, True, "converged", 1e-14, 1.0)
                      for r, e in enumerate(evals)])
    return row.min_evals, row.p25_evals, row.median_evals, row.p75_evals, row.max_evals


class TestQuantiles:
    def test_table_row_example(self):
        assert quartiles([31, 5, 630, 14, 9]) == (5, 9, 14, 31, 630)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=60))
    def test_matches_sort_oracle(self, values):
        import math
        ranked = sorted(values)
        expect = [ranked[max(1, math.ceil(pct / 100 * len(values))) - 1] for pct in (25, 50, 75)]
        assert quartiles(values) == (ranked[0], *expect, ranked[-1])


class TestSummarize:
    def rec(self, algo, rep, ev, conv=True, dist=1e-14):
        return RunRecord("static_j25", rep, algo, ev, conv,
                         "converged" if conv else "max_evaluations", dist, 1.0)

    def test_all_converged(self):
        rows = summarize([self.rec("a", r, 10 + r) for r in range(4)])
        assert rows[0].conv_pct == 100.0
        assert rows[0].dist_below_pct == 100.0

    def test_nan_dist_marks_mean_undefined(self):
        rows = summarize([self.rec("a", 0, 5, conv=False, dist=float("nan")),
                          self.rec("a", 1, 7)])
        assert rows[0].conv_pct == 50.0
        assert not np.isfinite(rows[0].mean_log10_dist)
        assert rows[0].dist_below_pct == 50.0

    def test_order_invariant(self):
        recs = [self.rec("a", r, 10 * (r + 1)) for r in range(5)]
        recs += [self.rec("b", r, 3) for r in range(5)]
        fwd = summarize(recs)
        rev = summarize(list(reversed(recs)))
        by_label = {r.algorithm: r for r in rev}
        for row in fwd:
            other = by_label[row.algorithm]
            assert row.mean_evals == other.mean_evals
            assert row.median_evals == other.median_evals


class TestRender:
    def make_rows(self):
        recs = [RunRecord("s", 0, "a", 5, True, "converged", 1e-15, 0.5),
                RunRecord("s", 1, "a", 9, True, "converged", 1e-14, 0.7)]
        return summarize(recs)

    def test_empty_rows_header_only(self):
        text = render([], "csv")
        assert text.strip().count("\n") == 0
        assert text.startswith("algorithm,")

    def test_csv_round_trip(self):
        text = render(self.make_rows(), "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "a"
        assert rows[0]["mean_evals"] == "7.00"
        assert rows[0]["conv_pct"] == "100"

    def test_markdown_matches_csv_values(self):
        rows = self.make_rows()
        csv_cells = list(csv.reader(io.StringIO(render(rows, "csv"))))[1]
        md_lines = render(rows, "md").strip().splitlines()
        md_cells = [c.strip() for c in md_lines[2].strip("|").split("|")]
        assert md_cells == csv_cells

    def test_the_markdown_alias_is_gone(self):
        with pytest.raises(ValueError, match="unknown format 'markdown'"):
            render(self.make_rows(), "markdown")


class TestRecordsIO:
    def test_round_trip(self, tmp_path):
        recs = [RunRecord("s", 0, "a", 5, True, "converged", 1.25e-15, 0.5),
                RunRecord("s", 1, "b", 2000, False, "non_finite", float("nan"), 9.0)]
        path = tmp_path / "records.csv"
        write_records(recs, path)
        got = read_records(path)
        assert got[0].dist == 1.25e-15
        assert got[0].converged and not got[1].converged
        assert np.isnan(got[1].dist)
        assert got[1].termination == "non_finite"


class TestRunSuite:
    def test_deterministic_records(self):
        cfg = tiny_config()
        r1 = run_suite(cfg)
        r2 = run_suite(cfg)
        assert [(x.algorithm, x.replication, x.evaluations, x.dist) for x in r1] \
            == [(x.algorithm, x.replication, x.evaluations, x.dist) for x in r2]

    def test_every_algorithm_every_replication(self):
        cfg = tiny_config(reps=3)
        recs = run_suite(cfg)
        assert len(recs) == 6
        labels = {r.algorithm for r in recs}
        assert labels == {"delta-(1)", "delta-(1)+anderson"}

    def test_large_hetero_suite_rows(self):
        cfg = dataclasses.replace(default_config("large_hetero"),
                                  algorithms=[AlgorithmSpec("delta", 1.0, "plain"),
                                              AlgorithmSpec("delta", 1.0, "spectral")])
        rows = summarize(run_suite(cfg), dist_tol=cfg.dist_tol)
        by_label = {r.algorithm: r for r in rows}
        assert by_label["delta-(1)"].conv_pct == 0.0
        assert by_label["delta-(1)+spectral"].conv_pct == 100.0
        assert by_label["delta-(1)+spectral"].dist_below_pct == 100.0

    def test_dynamic_suite_smoke(self):
        cfg = dataclasses.replace(default_config("dynamic_pf"), replications=1,
                                  algorithms=[AlgorithmSpec("V", 1.0, "anderson")])
        recs = run_suite(cfg)
        assert len(recs) == 1
        assert recs[0].converged
        assert recs[0].dist < 1e-12


class TestConfig:
    def test_defaults_exist_for_every_suite(self):
        from demandinv.bench import SUITES
        for suite in SUITES:
            cfg = default_config(suite)
            assert cfg.replications >= 1 and cfg.algorithms

    def test_json_overrides(self):
        doc = {"suite": "static_j25", "replications": 3, "master_seed": 123,
               "tolerance": 1e-10,
               "algorithms": [{"mapping": "V", "gamma": 0, "method": "squarem",
                               "step_rule": "S1"}]}
        cfg = config_from_json(json.dumps(doc))
        assert cfg.replications == 3
        assert cfg.master_seed == 123
        assert cfg.tolerance == 1e-10
        assert cfg.algorithms[0].label == "V-(0)+squarem[S1]"

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            ExperimentConfig("nope", [AlgorithmSpec("delta")], 1, 0, 1e-13, 10)

    @pytest.mark.parametrize("doc", [
        {"suite": "static_j25", "replication": 2},
        {"suite": "static_j25", "out_dir": "elsewhere"},
        {"suite": "static_j25", "algorithms": [{"mapping": "delta", "gama": 0}]},
        {"suite": "static_j25", "algorithms": [{"mapping": "delta", "method": "newton"}]},
        {"suite": "static_j25",
         "algorithms": [{"mapping": "delta", "method": "spectral", "step_rule": "S4"}]},
        {"suite": "static_j25", "algorithms": [{"mapping": "IV"}]},
        {"suite": "dynamic_pf", "algorithms": [{"mapping": "delta"}]},
        {"suite": "large_hetero", "algorithms": [{"mapping": "delta", "gamma": 0.5}]},
        {"suite": "static_j25", "algorithms": [{"mapping": "V", "gamma": 2}]},
        {"suite": "rcnl", "algorithms": [{"mapping": "IV", "gamma": 0.5}]},
        {"suite": "static_j25", "replications": 2.7},
        {"suite": "static_j25", "replications": True},
        {"suite": "static_j25", "master_seed": 1.5},
        {"suite": "static_j25", "max_evaluations": "100"},
        5,
        {"suite": [1]},
        {"suite": "static_j25", "algorithms": 5},
        {"suite": "static_j25", "algorithms": [{"mapping": ["delta"]}]},
        {"suite": "static_j25", "tolerance": True},
        {"suite": "static_j25", "tolerance": float("inf")},
        {"suite": "static_j25", "dist_tol": "1e-3"},
        {"suite": "static_j25", "algorithms": [{"mapping": "delta", "gamma": "1"}]},
        {"suite": "dynamic_pf", "algorithms": [{"mapping": "V", "gamma": 7}]},
        # fields that the run would ignore
        {"suite": "static_2types", "algorithms": [{"mapping": "kalouptsidi_mixed", "gamma": 0.3}]},
        {"suite": "static_j25",
         "algorithms": [{"mapping": "delta", "method": "anderson", "step_rule": "S1"}]},
        {"suite": "static_j25",
         "algorithms": [{"mapping": "V", "method": "plain", "step_rule": "S2"}]},
    ], ids=["unknown-key", "out_dir", "unknown-algorithm-key", "bad-method",
            "bad-step-rule", "mapping-of-another-suite", "static-mapping-on-dynamic",
            "static-delta-gamma-half", "static-V-gamma-two", "rcnl-IV-gamma-half",
            "float-replications", "bool-replications", "float-seed", "string-cap",
            "top-level-number", "list-suite", "number-algorithms", "list-mapping",
            "bool-tolerance", "infinite-tolerance", "string-dist-tol", "string-gamma",
            "dynamic-V-gamma-seven", "kalouptsidi-gamma", "anderson-step-rule",
            "plain-step-rule"])
    def test_rejects_at_parse_time(self, doc):
        with pytest.raises(ValueError):
            config_from_json(json.dumps(doc))

    @pytest.mark.parametrize("spec,field", [
        (dict(mapping="kalouptsidi_tilde", gamma=0.0), "gamma"),
        (dict(mapping="delta", method="anderson", step_rule="S3prime"), "step_rule"),
        (dict(mapping="V", step_rule="S2"), "step_rule"),
    ], ids=["kalouptsidi-gamma", "anderson-step-rule", "plain-step-rule"])
    def test_a_field_that_the_run_ignores_is_named(self, spec, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            AlgorithmSpec(**spec)

    def test_configs_are_frozen(self):
        cfg = default_config("static_j25")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.algorithms = [AlgorithmSpec("delta", 0.5, "spectral")]
        with pytest.raises(dataclasses.FrozenInstanceError):
            AccelConfig().tolerance = 1.0
        assert isinstance(cfg.algorithms, tuple)

    @pytest.mark.parametrize("build", [
        lambda: ExperimentConfig("static_j25", [AlgorithmSpec("delta")], 2.7, 0, 1e-13, 10),
        lambda: AccelConfig(max_evaluations=2.5),
        lambda: AccelConfig(tolerance=True),
        lambda: AccelConfig(tolerance=float("inf")),
    ], ids=["float-replications", "float-cap", "bool-tolerance", "infinite-tolerance"])
    def test_python_api_rejects_what_json_rejects(self, build):
        with pytest.raises(ValueError):
            build()

    def test_integers_become_floats_where_the_field_is_a_float(self):
        cfg = ExperimentConfig("static_j25", [AlgorithmSpec("V", 0, "squarem")], 1, 0, 1, 10, 1)
        assert type(cfg.tolerance) is float and type(cfg.dist_tol) is float
        assert type(cfg.algorithms[0].gamma) is float
        assert cfg.algorithms[0].label == "V-(0)+squarem"

    @pytest.mark.parametrize("algorithms,label", [
        ((AlgorithmSpec("kalouptsidi_tilde", method="anderson"), AlgorithmSpec("delta"),
          AlgorithmSpec("kalouptsidi_tilde", method="anderson")), "kalouptsidi_tilde+anderson"),
        ((AlgorithmSpec("delta"), AlgorithmSpec("V"), AlgorithmSpec("delta")), "delta-(1)"),
    ], ids=["identical-family-without-gamma", "identical-entries"])
    def test_rejects_repeated_labels(self, algorithms, label):
        # summarize would merge the two into one row
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            dataclasses.replace(default_config("static_2types"), algorithms=algorithms)

    def test_dynamic_gammas_keep_distinct_labels(self):
        doc = {"suite": "dynamic_pf", "algorithms": [{"mapping": m, "gamma": g}
                                                     for m in ("V", "joint")
                                                     for g in (0, 0.5, 1)]}
        labels = [a.label for a in config_from_json(json.dumps(doc)).algorithms]
        assert labels == ["V-(0)", "V-(0.5)", "V-(1)", "Vdelta-(0) (joint)",
                          "Vdelta-(0.5) (joint)", "Vdelta-(1) (joint)"]


def _labels(bases, tags):
    return [b + t for b in bases for t in tags]


_S3 = ("", "+anderson", "+spectral", "+squarem")

# Table-note defaults per suite: replications, master seed, tolerance, cap, labels.
FROZEN_DEFAULTS = {
    "static_j25": (50, 9, 1e-13, 1000, _labels(
        ["delta-(0)", "delta-(1)", "V-(0)", "V-(1)"], _S3)),
    "static_j250": (50, 4, 1e-13, 1000, _labels(
        ["delta-(0)", "delta-(1)", "V-(0)", "V-(1)"], _S3)),
    "static_2types": (50, 7, 1e-13, 1000, _labels(
        ["delta-(0)", "delta-(1)", "V-(0)", "V-(1)"], _S3)
        + ["kalouptsidi_mixed", "kalouptsidi_tilde"]),
    "rcnl": (50, 7, 1e-13, 1000, _labels(
        ["delta-(0)", "delta-(1)", "IV-(0)", "IV-(1)"], _S3)),
    "large_hetero": (1, 0, 1e-13, 2000, _labels(
        ["delta-(0)", "delta-(1)", "V-(0)", "V-(1)"], _S3)),
    "dynamic_pf": (20, 11, 1e-12, 3000, _labels(
        ["V-(0)", "V-(1)", "Vdelta-(0) (joint)", "Vdelta-(1) (joint)"], _S3)),
    "dynamic_ivs": (20, 11, 1e-12, 3000, _labels(["V-(0)", "V-(1)"], _S3)),
    "stepsize_sweep": (50, 7, 1e-13, 1000, [
        label for rule in ("S1", "S2", "S3prime")
        for label in _labels(["delta-(0)", "delta-(1)", "V-(0)", "V-(1)"],
                             [f"+spectral[{rule}]", f"+squarem[{rule}]"])]),
}


@pytest.mark.parametrize("suite", sorted(FROZEN_DEFAULTS))
def test_suite_defaults_are_frozen(suite):
    from demandinv.bench import SUITES
    assert sorted(SUITES) == sorted(FROZEN_DEFAULTS)
    cfg = default_config(suite)
    reps, seed, tol, cap, labels = FROZEN_DEFAULTS[suite]
    assert (cfg.replications, cfg.master_seed, cfg.tolerance, cfg.max_evaluations,
            cfg.dist_tol) == (reps, seed, tol, cap, 1e-12)
    assert [a.label for a in cfg.algorithms] == labels


class TestCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        cfg_doc = {"suite": "static_j25", "replications": 1,
                   "algorithms": [{"mapping": "delta", "gamma": 1,
                                   "method": "anderson"}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg_doc))
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 0
        out_dir = tmp_path / "out" / "static_j25"  # one directory per suite
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "summary.md").exists()
        capsys.readouterr()
        assert cli_main(["summarize", "--in", str(out_dir / "records.csv"),
                         "--format", "md"]) == 0
        out = capsys.readouterr().out
        assert "delta-(1)+anderson" in out

    def test_run_several_suites(self, tmp_path, capsys):
        suites = ["static_j25", "large_hetero"]
        assert cli_main(["run", "--suite", *suites, "--replications", "1",
                         "--out", str(tmp_path)]) == 0
        for suite in suites:
            recs = read_records(tmp_path / suite / "records.csv")
            assert {r.suite for r in recs} == {suite}
            assert {r.replication for r in recs} == {0}
            assert len(recs) == len(default_config(suite).algorithms)
            assert (tmp_path / suite / "summary.csv").exists()

    def test_suite_and_config_are_exclusive(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suite": "static_j25"}))
        assert cli_main(["run", "--suite", "static_j25", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_bad_config_is_rejected_before_running(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suite": "static_j25", "replication": 2}))
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert "replication" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["run", "--config"], ["summarize", "--in"]],
                             ids=["run", "summarize"])
    def test_missing_input_file_exits_2_with_a_message(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing.json"
        assert cli_main([*argv, str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bench {argv[0]}: ") and str(missing) in err

    def test_records_without_a_column_exit_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "records.csv"
        path.write_text("suite,replication,evaluations,converged,termination,dist,wall_ms\n"
                        "static_j25,0,12,1,converged,1e-14,0.5\n")
        assert cli_main(["summarize", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench summarize: ") and "'algorithm'" in err

    @pytest.mark.parametrize("row,message", [
        ("static_j25,0,delta,12,1,converged,1e-14", "7 cells for 8 columns"),
        ("static_j25,0,delta,12,1,converged,1e-14,0.5,9", "9 cells for 8 columns"),
        ("static_j25,0,delta,12,7,converged,1e-14,0.5", "converged must be 0 or 1, not '7'"),
        ("static_j25,0,delta,12,1,bogus,1e-14,0.5", "unknown termination 'bogus'"),
        ("static_j25,-1,delta,12,1,converged,1e-14,0.5",
         "replication must be an integer >= 0, not -1"),
        ("static_j25,0,delta,-5,1,converged,1e-14,0.5",
         "evaluations must be an integer >= 0, not -5"),
        ("static_j25,0,delta,12,1,non_finite,nan,0.5",
         "converged 1 disagrees with termination 'non_finite'"),
        ("static_j25,0,delta,12,0,converged,1e-14,0.5",
         "converged 0 disagrees with termination 'converged'"),
        ("static_j25,0,delta,12,1,converged,-0.5,0.5",
         "dist must be a finite non-negative real or nan, not -0.5"),
        ("static_j25,0,delta,12,1,converged,1e-14,-2.0",
         "wall_ms must be a finite non-negative real, not -2.0"),
    ], ids=["short-row", "long-row", "converged-7", "bogus-termination",
            "negative-replication", "negative-evaluations", "converged-but-non-finite",
            "unconverged-but-converged", "negative-dist", "negative-wall-ms"])
    def test_malformed_records_exit_2_naming_the_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "records.csv"
        good = "static_j25,0,delta,12,1,converged,1e-14,0.5"
        path.write_text(",".join(RECORD_FIELDS) + f"\n{good}\n{row}\n")
        assert cli_main(["summarize", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bench summarize: {path} line 3: ") and message in err

    @pytest.mark.parametrize("dist_tol", ["nan", "-5", "inf", "0"])
    def test_bad_dist_tol_exits_2(self, tmp_path, capsys, dist_tol):
        path = tmp_path / "records.csv"
        write_records([RunRecord("static_j25", 0, "delta", 12, True, "converged", 1e-14, 0.5)],
                      path)
        assert cli_main(["summarize", "--in", str(path), "--dist-tol", dist_tol]) == 2
        assert "--dist-tol must be a finite positive real" in capsys.readouterr().err

    def test_unusable_out_exits_2_before_solving(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise AssertionError("run_suite called")
        monkeypatch.setattr(cli, "run_suite", fail)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli_main(["run", "--suite", "static_j25", "large_hetero",
                         "--out", str(blocker / "out")]) == 2
        assert capsys.readouterr().err.startswith("bench run: ")

    def test_malformed_config_exits_2_with_a_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"suite": "static_j25", "algorithms": 5}))
        assert cli_main(["run", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 2
        assert "algorithms must be a JSON list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _in_a_fresh_interpreter(code: str) -> str:
    """What code prints, run in a new interpreter that imports demandinv from here."""
    env = dict(os.environ, PYTHONPATH=str(Path(demandinv.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.strip()


def test_importing_the_package_loads_no_scipy():
    # the benchmark's setup_s times this import in a fresh interpreter:
    # importing scipy.linalg from accel took dynamic-durable's setup_s from
    # 0.13 to 0.31 s on a 2-vCPU Xeon. datagen's scipy.special loads with
    # datagen only
    code = "import sys, demandinv; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _in_a_fresh_interpreter(code) == "[]"


def test_the_package_namespace_holds_the_public_api_and_its_submodules():
    """The numerics helpers stay in demandinv.numerics, not in the package."""
    code = "import demandinv; print(' '.join(n for n in dir(demandinv) if n[0] != '_'))"
    assert _in_a_fresh_interpreter(code).split() == sorted([
        "AccelConfig", "FixedPointMap", "SolveOutcome", "solve",
        "DurableMarket", "DurableSolution", "IvsGrid", "bellman_residual",
        "ivs_solve", "pf_solve", "pf_value_update", "traditional_joint_solve",
        "market_from_json", "market_to_json",
        "NestedMarket", "rcnl_dist_metric", "rcnl_iota_delta_to_IV", "rcnl_iota_IV_to_delta",
        "rcnl_phi_delta", "rcnl_phi_IV", "rcnl_shares", "rcnl_solve_inner",
        "StaticMarket", "dist_metric", "iota_delta_to_V", "iota_V_to_delta", "kalouptsidi_F",
        "kalouptsidi_Ftilde", "logit_shares", "phi_V", "phi_delta", "solve_inner",
        "accel", "dynamic", "fixtures", "numerics", "rcnl", "static_rcl"])
