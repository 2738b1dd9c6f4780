"""Spans around the public functions of each tmkit layer, kept outside ``src/``.

:meth:`Tracer.install` replaces each listed function, in every loaded
``tmkit`` module that holds it, by a wrapper that records a span while
the tracer is recording; :meth:`Tracer.uninstall` puts the originals
back. A span's self time is its duration minus the time of the spans it
encloses, so nested layers (``dsl.load`` around ``dsl.parse`` and
``dsl.lower``, ``dsl.lower`` around ``model.build_model``) are not
counted twice. Counts are read from arguments and results at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Span name -> the (module, attribute) of each function it wraps. Both model
# builders share one span: build_model calls try_build_model, and the
# self times of the two nested spans add up to the time spent building.
TARGETS = {
    "dsl.load": [("tmkit.dsl", "load")],
    "dsl.parse": [("tmkit.dsl", "parse")],
    "dsl.lower": [("tmkit.dsl", "lower")],
    "dsl.format_model": [("tmkit.dsl", "format_model")],
    "model.build_model": [("tmkit.model", "build_model"), ("tmkit.model", "try_build_model")],
    "validator.check_flow_legality": [("tmkit.validator", "check_flow_legality")],
    "validator.check_connectivity": [("tmkit.validator", "check_connectivity")],
    "validator.validate_document": [("tmkit.validator", "validate_document")],
    "dynamics.build_events": [("tmkit.dynamics", "build_events")],
    "dynamics.check_behavior": [("tmkit.dynamics", "check_behavior")],
    "dynamics.elementary_events": [("tmkit.dynamics", "elementary_events")],
    "dynamics.run": [("tmkit.dynamics", "run")],
    "dynamics.to_ndjson": [("tmkit.dynamics", "Trace.to_ndjson")],
    "dynamics.conforms": [("tmkit.dynamics", "conforms")],
    "transform.simplify": [("tmkit.transform", "simplify")],
    "transform.make_overlay": [("tmkit.transform", "make_overlay")],
    "render.to_dot": [("tmkit.render", "to_dot")],
    "render.to_json": [("tmkit.render", "to_json")],
    "render.from_json": [("tmkit.render", "from_json")],
}


def _source_counts(args, ast):
    source = args[0]
    text = source if isinstance(source, str) else source.text
    return {"dsl.source_bytes": len(text.encode("utf-8")),
            "dsl.declarations": len(ast.declarations)}


def _model_counts(args, doc):
    return {"model.stages": len(doc.model.stages),
            "model.flows": len(doc.model.flows),
            "model.triggers": len(doc.model.triggers)}


def _run_counts(args, trace):
    return {"dynamics.records": len(trace.records),
            "dynamics.event_firings": len(trace.event_firings())}


def _simplify_counts(args, result):
    report = result[1]
    return {"transform.stages_removed": sum(report.removed.values()),
            "transform.rewired": report.rewired}


# Counts taken at a span's boundary from its arguments and result.
COUNTERS = {
    "dsl.parse": _source_counts,
    "dsl.lower": _model_counts,
    "validator.validate_document": lambda args, result: {
        "validator.diagnostics": len(result[0].diagnostics)},
    "dynamics.run": _run_counts,
    "transform.simplify": _simplify_counts,
    "render.to_dot": lambda args, text: {"render.dot_bytes": len(text.encode("utf-8"))},
    "render.to_json": lambda args, text: {"render.json_bytes": len(text.encode("utf-8"))},
}

COUNT_NAMES = (
    "dsl.source_bytes", "dsl.declarations",
    "model.stages", "model.flows", "model.triggers",
    "validator.diagnostics",
    "dynamics.records", "dynamics.event_firings",
    "transform.stages_removed", "transform.rewired",
    "render.dot_bytes", "render.json_bytes",
)


def _lookup(module: str, attr: str):
    """The function at ``attr`` (which may be ``Class.method``) in a loaded module."""
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    """Self time per span name, and the latest count per counter name."""

    def __init__(self) -> None:
        self.recording = False
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []  # [start, time in child spans]
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self.self_time[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    @contextmanager
    def record(self, name: str | None = None):
        """Record spans while inside; ``name`` opens a span of its own."""
        self.recording = True
        try:
            if name is None:
                yield
            else:
                with self.span(name):
                    yield
        finally:
            self.recording = False

    def take(self) -> dict[str, float]:
        """Self times recorded since the last call, by span name."""
        out = dict(self.self_time)
        self.self_time.clear()
        return out

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a loaded tmkit module refers to it."""
        replacement = {}
        for name, targets in TARGETS.items():
            for module, attr in targets:
                original = _lookup(module, attr)
                replacement[id(original)] = self._wrap(name, original)
        owners = [m for n, m in sys.modules.items() if n == "tmkit" or n.startswith("tmkit.")]
        owners.append(sys.modules["tmkit.dynamics"].Trace)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
