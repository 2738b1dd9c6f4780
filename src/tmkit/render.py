"""Exporters: dot graph text and canonical JSON.

The dot output follows the diagram conventions of the modeling language:
one cluster per thimac (nested for subthimacs), one box per stage, solid
edges for flows, dashed edges for triggers, and optional node fills from
an overlay that maps element ids to colors (``transform.make_overlay``
builds one from event regions). The JSON output is the canonical
document schema shared with the core model, stable down to the byte;
``indented_json`` writes it and every other JSON document of ``tm``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping

from .diagnostics import REF_UNRESOLVED, Diagnostic, ModelError, error
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
    model_to_dict,
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


def _float_text(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


def _indented(value: object) -> str:
    """``json.dumps(value, indent=2)``, written by one recursive walk that
    joins its pieces once.

    On Python 3.10-3.12 an ``indent`` makes ``json.dumps`` skip its C
    encoder for generators in pure Python; this walk takes about half their
    time. Values dispatch on their exact type: dicts with string keys,
    lists and tuples, strings, ints, floats, booleans and ``None``; any
    other type raises :class:`TypeError`. Strings and keys are quoted by the
    C ``encode_basestring_ascii`` that ``json.dumps`` uses. Each nesting
    level costs one Python frame; the payloads of ``tm`` are at most four
    levels deep whatever the model's nesting, since ``model_to_dict`` is
    flat.
    """
    parts: list[str] = []
    _write_indented(value, "\n", parts.append)
    return "".join(parts)


def _write_indented(value: object, newline: str, append: Callable[[str], None]) -> None:
    """Append the pieces of ``value``, nested at the indent that follows
    ``newline``. A module-level function rather than a closure: a closure
    that calls itself is a reference cycle, which would keep every piece
    alive while ``tm`` runs with the cyclic collector paused."""
    kind = type(value)
    if kind is str:
        append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            append(sep)
            append(encode_basestring_ascii(key))
            append(": ")
            _write_indented(item, inner, append)
            sep = "," + inner
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            append(sep)
            _write_indented(item, inner, append)
            sep = "," + inner
        append(newline + "]")
    elif kind is int:
        append(int.__repr__(value))
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif value is None:
        append("null")
    elif kind is float:
        append(_float_text(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _stdlib_indented(value: object) -> str:
    return json.dumps(value, indent=2)


# Every JSON document that tm prints is indented_json(payload): exactly
# json.dumps(payload, indent=2). Python 3.13 indents in C, about twice as
# fast as _indented; delete this check and the writer above once Python
# 3.12 support is dropped.
indented_json = _stdlib_indented if sys.version_info >= (3, 13) else _indented


def to_json(
    model: TmModel,
    events: Iterable[Event] = (),
    behavior: BehaviorGraph | None = None,
) -> str:
    """Canonical JSON: fixed key order, declaration-order element lists."""
    data = model_to_dict(model)
    data["events"] = [e.to_json_dict() for e in events]
    data["behavior"] = behavior.to_json_list() if behavior is not None else []
    return indented_json(data) + "\n"


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
