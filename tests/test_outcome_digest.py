"""tools/outcome_digest.py, the byte-identity check of a refactor: its hash
tells apart what a solve outcome's bytes can differ in, ignores the memory
layout of an array, and its line generators are deterministic."""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "outcome_digest.py"


def load_tool():
    """The tool as a module. Importing it prepends src/ and perfbench/ to
    sys.path and sets the BLAS thread counts in os.environ; both are restored
    at once, so that later tests and their subprocesses do not see it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", sys.path[:])
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            patch.setitem(os.environ, name, os.environ.get(name, "1"))
        spec = importlib.util.spec_from_file_location("outcome_digest", _PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return load_tool()


def test_loading_the_tool_leaves_sys_path_and_the_environment_as_they_were():
    path, environ = sys.path[:], dict(os.environ)
    load_tool()
    assert sys.path == path
    assert dict(os.environ) == environ


def test_arrays_that_differ_only_in_dtype_or_shape_hash_apart(tool):
    a = np.arange(6, dtype=np.int64)
    assert tool.digest(a) != tool.digest(a.view(np.float64))  # the same bytes
    assert tool.digest(a) != tool.digest(a.reshape(2, 3))


def test_containers_that_differ_only_in_a_field_name_or_type_hash_apart(tool):
    left, right = (dataclasses.make_dataclass("Point", [name])(1.0) for name in "xy")
    assert tool.digest(left) != tool.digest(right)
    assert tool.digest([1, 2]) != tool.digest((1, 2))


def test_c_and_fortran_ordered_copies_hash_alike(tool):
    a = np.arange(6.0).reshape(2, 3)
    assert tool.digest(a) == tool.digest(np.asfortranarray(a))


def test_in_clear_appends_evaluations_and_termination(tool):
    line = tool.in_clear("abc", SimpleNamespace(evaluations=7, termination="converged"))
    assert line == "abc evals=7 term=converged"


def test_truth_and_renested_lines_are_deterministic(tool):
    runs = [(list(tool.truth_lines(None)), list(tool.renested_lines(None))) for _ in range(2)]
    truth, renested = runs[0]
    assert runs[1] == runs[0]
    assert [key for key, _ in truth] == [f"truth {key}" for key in tool.DESIGNS]
    assert len(renested) == 16
    assert all(value.endswith(("term=converged", "term=max_evaluations", "term=non_finite"))
               for _, value in renested)
