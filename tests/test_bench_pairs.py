"""The verdicts of tools/bench_pairs.py on fixed series: a gain needs the
change to win at least nine tenths of the pairs (ties count for neither
side) and the medians to differ by more than the parent's interquartile
range; a metric is worse when the change's median is worse than the
parent's by more than the metric's bound, relative to the parent's median,
and then the script exits with code 1."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [2.50, 2.55, 2.48, 2.60, 2.52, 2.51, 2.58, 2.49, 2.53, 2.56]


def test_quartiles_interpolate_as_numpy_percentile():
    assert np.allclose(bench_pairs.quartiles(PARENT), np.percentile(PARENT, [25, 50, 75]),
                       rtol=0, atol=1e-15)
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_ten_wins_with_a_gap_beyond_the_iqr_is_a_gain():
    change = [p - 0.2 for p in PARENT]
    assert bench_pairs.verdict(PARENT, change, "lower") == (10, True)
    # the same numbers read as a metric where higher is better: no wins
    assert bench_pairs.verdict(PARENT, change, "higher") == (0, False)


def test_nine_of_ten_wins_suffice_and_eight_do_not():
    nine = [p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 0.2]
    assert bench_pairs.verdict(PARENT, nine, "lower") == (9, True)
    eight = [p - 0.2 for p in PARENT[:8]] + [p + 0.2 for p in PARENT[8:]]
    assert bench_pairs.verdict(PARENT, eight, "lower") == (8, False)


def test_ties_count_for_neither_side():
    tied = [p - 0.2 for p in PARENT[:8]] + PARENT[8:]
    assert bench_pairs.verdict(PARENT, tied, "lower") == (8, False)
    assert bench_pairs.verdict(PARENT, PARENT, "lower") == (0, False)
    assert bench_pairs.verdict(PARENT, PARENT, "higher") == (0, False)


@pytest.mark.parametrize("better, step", [("lower", -1.0), ("higher", 1.0)])
def test_a_gap_within_the_parents_iqr_is_no_gain(better, step):
    q1, _, q3 = bench_pairs.quartiles(PARENT)  # IQR 0.0525
    small = [p + step * 0.05 for p in PARENT]
    assert bench_pairs.verdict(PARENT, small, better) == (10, False)
    large = [p + step * 0.06 for p in PARENT]
    assert 0.05 < q3 - q1 < 0.06
    assert bench_pairs.verdict(PARENT, large, better) == (10, True)


@pytest.mark.parametrize("better, sign", [("lower", 1.0), ("higher", -1.0)])
def test_worse_means_beyond_the_bound_in_the_bad_direction(better, sign):
    parent = [2.0, 1.0, 3.0]  # median 2: the bound 0.25 allows a move of 0.5
    at_bound = [2.0 + sign * 0.5] * 3
    assert not bench_pairs.worse(parent, at_bound, better, 0.25)
    beyond = [2.0 + sign * 0.5000001] * 3
    assert bench_pairs.worse(parent, beyond, better, 0.25)
    # any move in the good direction is never worse
    assert not bench_pairs.worse(parent, [2.0 - sign * 100.0] * 3, better, 0.25)
    assert not bench_pairs.worse(parent, parent, better, 0.0)
    assert bench_pairs.worse(parent, [2.0 + sign * 1e-9] * 3, better, 0.0)


def test_worse_reads_the_medians_only():
    parent = [1.0, 1.0, 1.0, 1.0, 100.0]
    change = [1.1, 1.1, 1.1, 0.0, 0.0]  # median 1.1, a 10% rise
    assert bench_pairs.worse(parent, change, "lower", 0.09)
    assert not bench_pairs.worse(parent, change, "lower", 0.11)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_at_a_parent_median_of_zero_any_bad_move_is_worse(better):
    bad = 1.0 if better == "lower" else -1.0
    assert bench_pairs.worse([0.0], [bad], better, 0.24)
    assert not bench_pairs.worse([0.0], [-bad], better, 0.24)
    assert not bench_pairs.worse([0.0], [0.0], better, 0.24)


def test_seed_values():
    assert bench_pairs.seed_arg("default") is None
    assert bench_pairs.seed_arg("7919") == 7919
    with pytest.raises(ValueError):
        bench_pairs.seed_arg("seven")


def _checkout(path, bounds=None):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    if bounds is not None:
        (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": bounds}))
    return path


@pytest.mark.parametrize("change_s, code", [(2.0, 0), (2.4, 0), (2.6, 1)])
def test_each_seed_gets_its_verdicts_and_a_worse_metric_exits_1(
        tmp_path, monkeypatch, capsys, change_s, code):
    bounds = [{"name": "inversion_s", "better": "lower", "bound": 0.24}]
    parent = _checkout(tmp_path / "parent")
    change = _checkout(tmp_path / "change", bounds)
    seen = []

    def run_once(checkout, workload, seed):
        seen.append((checkout.name, seed))
        value = 2.0 if checkout.name == "parent" else change_s * (1.0 if seed is None else 1.01)
        return {"metrics": {"inversion_s": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w",
            "--seed", "default", "--seed", "7919", "--pairs", "2"]
    assert bench_pairs.main(argv) == code
    assert seen == [("parent", None), ("change", None), ("change", None), ("parent", None),
                    ("parent", 7919), ("change", 7919), ("change", 7919), ("parent", 7919)]
    out = capsys.readouterr().out
    blocks = [line for line in out.splitlines() if line.startswith("w, 2 pairs")]
    assert blocks == ["w, 2 pairs, seed None: median [q1, q3]",
                      "w, 2 pairs, seed 7919: median [q1, q3]"]
    verdicts = [line.rsplit(", ", 1)[1] for line in out.splitlines()
                if line.startswith("  inversion_s")]
    # 2.4 is 20% over 2.0 and within the bound; 2.4 * 1.01 is 21.2%
    assert verdicts == ["worse " + ("yes" if code else "no")] * 2
