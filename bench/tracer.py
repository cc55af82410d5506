"""Span recording around the package's public functions, from outside it.

``Tracer.install`` replaces every binding of each traced function in the
loaded ``steadycredit`` modules with a wrapper, so a call is seen at the name
its caller looks up: ``report.analyze`` calls ``credit_gap`` through the name
it imported into ``report``, and ``steady_state`` calls ``ols.fit`` through
the ``ols`` module. Spans are kept in memory as
``[name, start, end, parent, op, size]`` and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


def _points(result) -> int:
    return len(result.points)


def _errors(result) -> int:
    return len(result.errors)


# span name "module.function" under steadycredit, and the size recorded
# from the result; the CLI module is imported only when a tracer is installed
TARGETS = (
    ("cli.main", None),
    ("series.parse_csv", None),
    ("rates.credit_growth_rates", _points),
    ("rates.select_window", _points),
    ("ols.fit", None),
    ("steady_state.ssp_least_squares", None),
    ("steady_state.ssp_irr_root", None),
    ("steady_state.trajectory", None),
    ("steady_state.chi2_p_value", None),
    ("cycles.cycle_stats", None),
    ("basel.hp_filter", None),
    ("basel.credit_gap", None),
    ("report.analyze", _errors),
    ("report.to_json", None),
    ("report.render_svg", None),
)
# span name, module, class, method
METHOD_TARGETS = (("series.slice", "series", "CreditSeries", "slice"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(result)
            return result

        return traced

    def install(self) -> None:
        originals = []
        for name, size in TARGETS:
            module, attr = name.split(".")
            module = importlib.import_module(f"steadycredit.{module}")
            originals.append((name, getattr(module, attr), size))
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "steadycredit" or n.startswith("steadycredit."))]
        for name, original, size in originals:
            wrapper = self.wrap(name, original, size)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        for name, module, cls_name, attr in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"steadycredit.{module}"), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, and summed result size.

    Self time is a span's duration minus the durations of its child spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _size in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
    for i, (name, start, end, _parent, _op, size) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["size"] += size or 0
    return dict(out)


def merge(a: dict, b: dict) -> dict:
    """Sum two ``summarize`` results."""
    out = {name: dict(agg) for name, agg in a.items()}
    for name, agg in b.items():
        total = out.setdefault(name, dict.fromkeys(agg, 0))
        for field, value in agg.items():
            total[field] += value
    return out
