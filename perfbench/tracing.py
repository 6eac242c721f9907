"""In-memory spans at demandinv's layer boundaries, recorded from outside.

While a :class:`Tracer` is installed it replaces, for the duration of a
``with`` block, the names the library looks up at call time:

* ``static_rcl.solve``, ``rcnl.solve`` and ``dynamic.solve`` (the ``accel``
  solver each model module imports) record an ``accel.solve`` span, and hand
  the solver a copy of the :class:`FixedPointMap` whose ``evaluate`` records
  an ``evaluate`` span per call;
* ``accel.ls_minnorm`` records ``numerics.ls_minnorm``;
* ``dynamic.chebyshev_eval_rows`` and ``dynamic.ols_ar1_rows`` record
  ``numerics.chebyshev_eval_rows`` and ``numerics.ols_ar1_rows``.

The benchmark adds one ``entry`` span per solve around the public entry
point. Spans of one solve share its solve id; nothing is written until the
caller asks.
"""

from __future__ import annotations

import copy
import csv
import gzip
from array import array
from contextlib import contextmanager
from time import perf_counter

from demandinv import accel, dynamic, numerics, rcnl, static_rcl

SPAN_FIELDS = ("span_id", "parent_id", "solve_id", "name", "start_s", "end_s")
SPAN_NAMES = ("entry", "accel.solve", "evaluate", "numerics.ls_minnorm",
              "numerics.chebyshev_eval_rows", "numerics.ols_ar1_rows")


class Tracer:
    def __init__(self):
        # One column per field of SPAN_FIELDS, in closing order. Flat arrays
        # keep the garbage collector from scanning one object per span.
        self._cols = (array("q"), array("q"), array("q"), array("b"),
                      array("d"), array("d"))
        self._solve_id = -1          # id of the current entry span's solve
        self._stack: list[int] = []  # open spans, innermost last

    def __len__(self) -> int:
        return len(self._cols[0])

    def _open(self) -> tuple[int, int]:
        sid = len(self) + len(self._stack)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, code, t0, t1):
        self._stack.pop()
        for col, value in zip(self._cols, (sid, parent, self._solve_id, code, t0, t1)):
            col.append(value)

    def _wrap(self, name, fn):
        code = SPAN_NAMES.index(name)

        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, code, t0, perf_counter())
        return traced

    def spans(self):
        """(span_id, parent_id, solve_id, name, start_s, end_s) per span."""
        for sid, parent, solve_id, code, t0, t1 in zip(*self._cols):
            yield sid, parent, solve_id, SPAN_NAMES[code], t0, t1

    def _solve(self, fp_map, x0, cfg):
        # copy.copy bypasses __post_init__, so the partition is not re-checked
        traced_map = copy.copy(fp_map)
        object.__setattr__(traced_map, "evaluate",
                           self._wrap("evaluate", fp_map.evaluate))
        return self._accel_solve(traced_map, x0, cfg)

    @contextmanager
    def entry(self):
        """Span of one public entry-point call; solves are numbered from 0."""
        self._solve_id += 1
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, 0, t0, perf_counter())

    @contextmanager
    def installed(self):
        self._accel_solve = self._wrap("accel.solve", accel.solve)
        patches = [
            (static_rcl, "solve", self._solve),
            (rcnl, "solve", self._solve),
            (dynamic, "solve", self._solve),
            (accel, "ls_minnorm", self._wrap("numerics.ls_minnorm", numerics.ls_minnorm)),
            (dynamic, "chebyshev_eval_rows",
             self._wrap("numerics.chebyshev_eval_rows", numerics.chebyshev_eval_rows)),
            (dynamic, "ols_ar1_rows",
             self._wrap("numerics.ols_ar1_rows", numerics.ols_ar1_rows)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, fn in patches:
            setattr(module, name, fn)
        try:
            yield self
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def per_solve(self) -> dict[int, dict[str, list]]:
        """{solve id: {span name: [count, total seconds]}}."""
        out: dict[int, dict[str, list]] = {}
        for _, _, solve_id, name, t0, t1 in self.spans():
            acc = out.setdefault(solve_id, {}).setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += t1 - t0
        return out

    def write_csv(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(SPAN_FIELDS)
            writer.writerows(self.spans())
