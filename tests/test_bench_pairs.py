"""The verdict of tools/bench_pairs.py on fixed series: a gain needs the
change to win at least nine tenths of the pairs (ties count for neither
side) and the medians to differ by more than the parent's interquartile
range."""

import importlib.util
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
