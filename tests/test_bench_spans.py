"""The benchmark's trace points must name attributes that exist: a renamed or
moved function would crash ``bench/run.py --trace 1`` before its first span."""

from __future__ import annotations

import importlib.util
import inspect
import os

BENCH_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def test_every_trace_point_resolves_without_instrumenting() -> None:
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = list(spans._targets())
    assert targets
    for owner, attr, name, *_ in targets:
        static = inspect.getattr_static(owner, attr)
        assert callable(static) or isinstance(static, (classmethod, staticmethod)), name
