"""Exporters: dot graph text and canonical JSON.

The dot output follows the diagram conventions of the modeling language:
one cluster per thimac (nested for subthimacs), one box per stage, solid
edges for flows, dashed edges for triggers, and optional event-region
colors as node fills. The JSON output is the canonical document schema
shared with the core model, stable down to the byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .diagnostics import DUP_NAME, REF_UNRESOLVED, Diagnostic, ModelError, error
from .model import (
    KIND_BY_NAME,
    BehaviorEdge,
    BehaviorGraph,
    Event,
    FlowEdge,
    Stage,
    Thimac,
    TmModel,
    TriggerEdge,
    model_to_dict,
    try_build_model,
)
from .transform import OverlaySpec, apply_overlay

DOT = "dot"
JSON = "json"


@dataclass(frozen=True)
class RenderOptions:
    show_labels: bool = True
    cluster_thimacs: bool = True
    overlay: OverlaySpec | None = None


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(
    model: TmModel,
    options: RenderOptions = RenderOptions(),
    events: Iterable[Event] = (),
) -> str:
    """Deterministic dot text for a model, optionally color-filled by event regions.

    Stage node identifiers are the full dotted stage references, so names
    never collide across thimacs.
    """
    colors: dict[str, tuple[str, ...]] = {}
    if options.overlay is not None:
        colors = apply_overlay(model, tuple(events), options.overlay)

    lines = ["digraph tm {", "    rankdir=LR;", "    node [shape=box];"]

    def node_line(stage_id: str, pad: str) -> str:
        stage = model.stage(stage_id)
        if options.show_labels and stage.label:
            label = f"{stage.kind.value}({stage.label})"
        else:
            label = stage.kind.value
        attrs = [f"label={_quote(label)}"]
        fill = colors.get(stage_id)
        if fill:
            attrs.append("style=filled")
            attrs.append(f"fillcolor={_quote(':'.join(fill))}")
        return f"{pad}{_quote(model.stage_ref(stage_id))} [{', '.join(attrs)}];"

    if options.cluster_thimacs:
        counter = [0]

        def emit_cluster(thimac: Thimac, depth: int) -> None:
            pad = "    " * depth
            lines.append(f"{pad}subgraph cluster_{counter[0]} {{")
            counter[0] += 1
            lines.append(f"{pad}    label={_quote(thimac.name)};")
            for sid in thimac.stages:
                lines.append(node_line(sid, pad + "    "))
            for child_id in thimac.children:
                emit_cluster(model.thimac(child_id), depth + 1)
            lines.append(f"{pad}}}")

        for root in model.root_thimacs:
            emit_cluster(root, 1)
    else:
        for stage in model.stages:
            lines.append(node_line(stage.id, "    "))

    for flow in model.flows:
        lines.append(
            f"    {_quote(model.stage_ref(flow.source))} -> {_quote(model.stage_ref(flow.target))};")
    for trigger in model.triggers:
        lines.append(
            f"    {_quote(model.stage_ref(trigger.source))} -> "
            f"{_quote(model.stage_ref(trigger.target))} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def document_to_dict(
    model: TmModel,
    events: Iterable[Event] = (),
    behavior: BehaviorGraph | None = None,
) -> dict:
    data = model_to_dict(model)
    data["events"] = [e.to_json_dict() for e in events]
    data["behavior"] = behavior.to_json_list() if behavior is not None else []
    return data


def to_json(
    model: TmModel,
    events: Iterable[Event] = (),
    behavior: BehaviorGraph | None = None,
) -> str:
    """Canonical JSON: fixed key order, declaration-order element lists."""
    return json.dumps(document_to_dict(model, events, behavior), indent=2) + "\n"


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

    Text that is not JSON raises :class:`json.JSONDecodeError`. JSON of the
    wrong shape (a value of the wrong type, a missing key, an unknown
    stage kind) raises :class:`ModelError` with REF_UNRESOLVED, a repeated
    flow or trigger with DUP_NAME, and a model that does not build with
    the diagnostics of :func:`try_build_model`.
    """
    data = json.loads(text)
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
        stages.append(Stage(id=r.text(w, s, "id"), kind=KIND_BY_NAME.get(kind),
                            owner=r.text(w, s, "owner"), label=r.text(w, s, "label", optional=True)))
    seen: set[str] = set()
    repeated: list[Diagnostic] = []

    def edges(section: str, make: type) -> list:
        out = []
        for w, e in r.entries(data, section):
            edge = make(r.text(w, e, "source"), r.text(w, e, "target"))
            if edge.id in seen:
                repeated.append(error(DUP_NAME, f"edge '{edge.id}' is declared twice", edge.id))
            else:
                seen.add(edge.id)
                out.append(edge)
        return out

    flows, triggers = edges("flows", FlowEdge), edges("triggers", TriggerEdge)
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
    model, diags = try_build_model(thimacs, stages, flows, triggers)
    if diags or repeated:
        raise ModelError(diags + repeated)
    return model, events, behavior
