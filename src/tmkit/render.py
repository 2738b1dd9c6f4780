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

from .model import (
    BehaviorEdge,
    BehaviorGraph,
    Event,
    Thimac,
    TmModel,
    model_from_dict,
    model_to_dict,
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


def from_json(text: str) -> tuple[TmModel, tuple[Event, ...], BehaviorGraph]:
    """Inverse of :func:`to_json`; serializing the result again is byte-identical."""
    data = json.loads(text)
    model = model_from_dict(data)
    events = tuple(
        Event(
            id=e["id"],
            name=e["name"],
            region=tuple(e["region"]),
            level=e["level"],
            constituents=tuple(e.get("constituents", ())),
        )
        for e in data.get("events", [])
    )
    behavior = BehaviorGraph(
        nodes=tuple(e.id for e in events),
        edges=tuple(
            BehaviorEdge(b["before"], b["after"], bool(b.get("repeat", False)))
            for b in data.get("behavior", [])
        ),
    )
    return model, events, behavior
