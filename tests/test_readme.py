"""The README's Python blocks run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def _run(code: str) -> tuple[dict, str]:
    """The namespace that code leaves and what it prints."""
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    return namespace, out.getvalue()


def test_the_readme_has_the_quick_start_and_the_replace_snippet():
    quick_start, snippet = _python_blocks()
    assert "solve_inner(market, \"delta1\", cfg)" in quick_start
    assert "replace(default_config(\"static_j25\")" in snippet


def test_the_quick_start_converges_in_10_evaluations():
    _, printed = _run(_python_blocks()[0])
    evaluations, converged, dist = printed.split()
    assert (int(evaluations), converged) == (10, "True")
    assert float(dist) < 1e-12


def test_the_replace_snippet_runs_two_replications_of_one_algorithm():
    namespace, _ = _run(_python_blocks()[1])
    records = namespace["records"]
    assert [r.replication for r in records] == [0, 1]
    assert {r.algorithm for r in records} == {"delta-(1)+anderson"}
    assert all(r.converged for r in records)
