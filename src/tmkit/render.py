"""Exporters: dot graph text and canonical JSON.

The dot output follows the diagram conventions of the modeling language:
one cluster per thimac (nested for subthimacs), one box per stage, solid
edges for flows, dashed edges for triggers, and optional node fills from
an overlay that maps element ids to colors (``transform.make_overlay``
builds one from event regions).

Every JSON document of ``tm`` is written here, by the same code on every
Python: byte for byte ``json.dumps(payload, indent=2)`` plus a newline,
the payload being what ``model_to_dict`` and the ``to_json_dict`` methods
build. Each record of a model, its events, chronology, diagnostics,
simplify report and parse errors has a writer: one f-string nested at
``pad``, the indent of its braces, that quotes strings with the C
``encode_basestring_ascii`` of ``json.dumps``. Writers are module-level
functions, not closures that call themselves, so they make no reference
cycle while ``tm`` pauses the collector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _q
from typing import Iterable, Mapping

from .diagnostics import REF_UNRESOLVED, Diagnostic, ModelError, ValidationReport, error
from .model import (
    KIND_BY_NAME,
    NAME_BY_KIND,
    BehaviorEdge,
    BehaviorGraph,
    EdgeSet,
    Event,
    FlowEdge,
    Stage,
    Thimac,
    TmModel,
    TriggerEdge,
    declared_twice,
    try_build_model,
)

DOT = "dot"
JSON = "json"


@dataclass(frozen=True)
class RenderOptions:
    """How :func:`to_dot` draws a model: a cluster per thimac or flat, and an event overlay."""

    cluster_thimacs: bool = True
    overlay: Mapping[str, tuple[str, ...]] | None = None


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(model: TmModel, options: RenderOptions = RenderOptions()) -> str:
    """Deterministic dot text for a model, its stages filled with the
    colors that ``options.overlay`` maps them to.

    Stage node identifiers are the full dotted stage references, so names
    never collide across thimacs.
    """
    colors = options.overlay or {}
    quoted = {sid: _quote(ref) for sid, ref in model.refs.items()}
    lines = ["digraph tm {", "    rankdir=LR;", "    node [shape=box];"]

    def node_line(stage: Stage, pad: str) -> str:
        kind = NAME_BY_KIND[stage.kind]
        label = f"{kind}({stage.label})" if stage.label else kind
        fill = colors.get(stage.id)
        style = f", style=filled, fillcolor={_quote(':'.join(fill))}" if fill else ""
        return f"{pad}{quoted[stage.id]} [label={_quote(label)}{style}];"

    if options.cluster_thimacs:
        stage_by_id = model.stage_by_id
        clusters = 0
        for depth, thimac in model.nesting():
            pad = "    " * (depth + 1)
            if thimac is None:
                lines.append(f"{pad}}}")
                continue
            lines.append(f"{pad}subgraph cluster_{clusters} {{")
            clusters += 1
            lines.append(f"{pad}    label={_quote(thimac.name)};")
            lines += [node_line(stage_by_id[sid], pad + "    ") for sid in thimac.stages]
    else:
        lines += [node_line(stage, "    ") for stage in model.stages]

    lines += [f"    {quoted[f.source]} -> {quoted[f.target]};" for f in model.flows]
    lines += [f"    {quoted[t.source]} -> {quoted[t.target]} [style=dashed];" for t in model.triggers]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _nullable(text: str | None) -> str:
    return "null" if text is None else _q(text)


def _list(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """Written items, none of them empty, in ``brackets`` whose closing one is at ``pad``."""
    inner = "\n" + pad + "  "
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{pad}{brackets[1]}" if body else brackets


def _thimac(t: Thimac, pad: str) -> str:
    p = pad + "  "
    return (f'{{\n{p}"id": {_q(t.id)},\n{p}"name": {_q(t.name)},\n{p}"parent": {_nullable(t.parent)},\n'
            f'{p}"children": {_list(map(_q, t.children), p)},\n'
            f'{p}"stages": {_list(map(_q, t.stages), p)}\n{pad}}}')


def _stage(s: Stage, pad: str) -> str:
    p = pad + "  "
    return (f'{{\n{p}"id": {_q(s.id)},\n{p}"kind": {_q(NAME_BY_KIND[s.kind])},\n'
            f'{p}"owner": {_q(s.owner)},\n{p}"label": {_nullable(s.label)}\n{pad}}}')


def _edge(e: FlowEdge | TriggerEdge, pad: str) -> str:
    p = pad + "  "
    return f'{{\n{p}"source": {_q(e.source)},\n{p}"target": {_q(e.target)}\n{pad}}}'


def _event(e: Event, pad: str) -> str:
    p = pad + "  "
    return (f'{{\n{p}"id": {_q(e.id)},\n{p}"name": {_q(e.name)},\n{p}"level": {_q(e.level)},\n'
            f'{p}"region": {_list(map(_q, e.region), p)},\n'
            f'{p}"constituents": {_list(map(_q, e.constituents), p)}\n{pad}}}')


def _behavior_edge(e: BehaviorEdge, pad: str) -> str:
    p = pad + "  "
    return (f'{{\n{p}"before": {_q(e.before)},\n{p}"after": {_q(e.after)},\n'
            f'{p}"repeat": {"true" if e.repeat else "false"}\n{pad}}}')


def _diagnostic(d: Diagnostic, pad: str) -> str:
    p, s = pad + "  ", d.span
    span = "null" if s is None else (f'{{\n{p}  "line": {s.line},\n{p}  "column": {s.column},\n'
                                     f'{p}  "start": {s.start},\n{p}  "end": {s.end}\n{p}}}')
    return (f'{{\n{p}"code": {_q(d.code)},\n{p}"severity": {_q(d.severity)},\n'
            f'{p}"message": {_q(d.message)},\n{p}"element": {_nullable(d.element)},\n'
            f'{p}"span": {span}\n{pad}}}')


def _dropped_trigger(d, pad: str) -> str:
    p = pad + "  "
    return (f'{{\n{p}"source": {_q(d.source)},\n{p}"target": {_q(d.target)},\n'
            f'{p}"reason": {_q(d.reason)}\n{pad}}}')


def _model(model: TmModel, pad: str) -> str:
    """The fields of ``model_to_dict(model)`` in an object whose braces are at ``pad``."""
    p, q = pad + "  ", pad + "    "
    return (f'{p}"thimacs": {_list([_thimac(t, q) for t in model.thimacs], p)},\n'
            f'{p}"stages": {_list([_stage(s, q) for s in model.stages], p)},\n'
            f'{p}"flows": {_list([_edge(f, q) for f in model.flows], p)},\n'
            f'{p}"triggers": {_list([_edge(t, q) for t in model.triggers], p)}')


def to_json(model: TmModel, events: Iterable[Event] = (), behavior: BehaviorGraph | None = None) -> str:
    """Canonical JSON: fixed key order, declaration-order element lists."""
    written = [_event(e, "    ") for e in events]
    chronology = [_behavior_edge(e, "    ") for e in behavior.edges] if behavior is not None else []
    return (f'{{\n{_model(model, "")},\n  "events": {_list(written, "  ")},\n'
            f'  "behavior": {_list(chronology, "  ")}\n}}\n')


def events_json(elementary: Iterable[Event], declared: Iterable[Event]) -> str:
    """The document of ``tm events``."""
    return (f'{{\n  "elementary": {_list([_event(e, "    ") for e in elementary], "  ")},\n'
            f'  "declared": {_list([_event(e, "    ") for e in declared], "  ")}\n}}\n')


def simplified_json(model: TmModel, report) -> str:
    """The document of ``tm simplify``: the simplified model and its ``transform.SimplifyReport``."""
    removed = [f"{_q(kind)}: {count}" for kind, count in report.removed.items()]
    dropped = [_dropped_trigger(d, "      ") for d in report.dropped_triggers]
    return (f'{{\n  "model": {{\n{_model(model, "  ")}\n  }},\n  "report": {{\n'
            f'    "removed": {_list(removed, "    ", "{}")},\n    "rewired": {report.rewired},\n'
            f'    "dropped_triggers": {_list(dropped, "    ")}\n  }}\n}}\n')


def report_json(report: ValidationReport) -> str:
    """The document of ``tm validate``, and of any command on a model that is not valid."""
    diagnostics = [_diagnostic(d, "    ") for d in report.diagnostics]
    ok = "true" if report.ok else "false"
    return f'{{\n  "ok": {ok},\n  "diagnostics": {_list(diagnostics, "  ")}\n}}\n'


def _parse_error(e, pad: str) -> str:
    p = pad + "  "
    return (f'{{\n{p}"line": {e.line},\n{p}"column": {e.column},\n'
            f'{p}"expected": {_list(map(_q, e.expected), p)},\n{p}"found": {_q(e.found)}\n{pad}}}')


def parse_errors_json(errors: Iterable) -> str:
    """The document of a text that does not parse, from its ``dsl.ParseError`` records."""
    written = [_parse_error(e, "    ") for e in errors]
    return f'{{\n  "ok": false,\n  "parse_errors": {_list(written, "  ")}\n}}\n'


class _Reader:
    """Reads fields of a parsed JSON document, collecting one REF_UNRESOLVED
    diagnostic per value of the wrong shape instead of raising."""

    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []

    def bad(self, where: str, expected: str) -> None:
        self.diags.append(error(REF_UNRESOLVED, f"JSON {where}: expected {expected}", where))

    def entries(self, data: dict, section: str) -> list[tuple[str, dict]]:
        """The objects listed under ``section`` (absent means none), each
        with its path for messages."""
        items = data.get(section, [])
        if not isinstance(items, list):
            self.bad(section, "a list")
            return []
        out = []
        for i, item in enumerate(items):
            if isinstance(item, dict):
                out.append((f"{section}[{i}]", item))
            else:
                self.bad(f"{section}[{i}]", "an object")
        return out

    def text(self, where: str, entry: dict, key: str, optional: bool = False) -> str | None:
        value = entry.get(key)
        if isinstance(value, str) or (optional and value is None):
            return value
        self.bad(f"{where}.{key}", "a string or null" if optional else "a string")
        return None

    def texts(self, where: str, entry: dict, key: str, optional: bool = False) -> tuple[str, ...]:
        value = entry.get(key, [] if optional else None)
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        self.bad(f"{where}.{key}", "a list of strings")
        return ()

    def flag(self, where: str, entry: dict, key: str) -> bool:
        value = entry.get(key, False)
        if isinstance(value, bool):
            return value
        self.bad(f"{where}.{key}", "true or false")
        return False


def from_json(text: str) -> tuple[TmModel, tuple[Event, ...], BehaviorGraph]:
    """Inverse of :func:`to_json`; serializing the result again is byte-identical.

    Text that is not JSON raises :class:`json.JSONDecodeError`. Text nested
    too deeply for the decoder's recursion, and JSON of the wrong shape (a
    value of the wrong type, a missing key, an unknown stage kind, a stage
    id with ``->`` or ``~>``, which could make two edge ids one) raise
    :class:`ModelError` with REF_UNRESOLVED, a repeated flow or trigger
    with DUP_NAME, and a model that does not build with the diagnostics
    of :func:`try_build_model`.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ModelError([error(REF_UNRESOLVED, "JSON document: nested too deeply")]) from None
    if not isinstance(data, dict):
        raise ModelError([error(REF_UNRESOLVED, "JSON document: expected an object")])
    r = _Reader()
    thimacs = [
        Thimac(id=r.text(w, t, "id"), name=r.text(w, t, "name"),
               parent=r.text(w, t, "parent", optional=True))
        for w, t in r.entries(data, "thimacs")
    ]
    stages = []
    for w, s in r.entries(data, "stages"):
        kind = r.text(w, s, "kind")
        if kind is not None and kind not in KIND_BY_NAME:
            r.bad(f"{w}.kind", f"a stage kind, not '{kind}'")
        sid = r.text(w, s, "id")
        if sid is not None and (FlowEdge.arrow in sid or TriggerEdge.arrow in sid):
            r.bad(f"{w}.id", f"a stage id without '{FlowEdge.arrow}' or '{TriggerEdge.arrow}'")
        stages.append(Stage(id=sid, kind=KIND_BY_NAME.get(kind),
                            owner=r.text(w, s, "owner"), label=r.text(w, s, "label", optional=True)))
    edges, repeated = EdgeSet(), []
    for section, make in (("flows", FlowEdge), ("triggers", TriggerEdge)):
        for w, e in r.entries(data, section):
            if not edges.add(edge := make(r.text(w, e, "source"), r.text(w, e, "target"))):
                repeated.append(declared_twice(edge.id))
    events = tuple(
        Event(id=r.text(w, e, "id"), name=r.text(w, e, "name"), region=r.texts(w, e, "region"),
              level=r.text(w, e, "level"),
              constituents=r.texts(w, e, "constituents", optional=True))
        for w, e in r.entries(data, "events")
    )
    behavior = BehaviorGraph(
        nodes=tuple(e.id for e in events),
        edges=tuple(
            BehaviorEdge(r.text(w, b, "before"), r.text(w, b, "after"), r.flag(w, b, "repeat"))
            for w, b in r.entries(data, "behavior")
        ),
    )
    if r.diags:
        raise ModelError(r.diags)
    model, diags = try_build_model(thimacs, stages, edges.flows, edges.triggers)
    if diags or repeated:
        raise ModelError(diags + repeated)
    return model, events, behavior
