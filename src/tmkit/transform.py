"""Model-to-model transformations.

``simplify`` removes the release/transfer/receive (and arrive/accept)
stages and lets arrow direction alone carry the flow, keeping exactly the
reachability between the retained create/process stages. ``make_overlay``
maps model elements to the fill colors of the event regions covering them,
for rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import (
    NAME_BY_KIND,
    Event,
    FlowEdge,
    StageKind,
    TmModel,
    TriggerEdge,
    build_model,
    walk,
)

REMOVED_KINDS = (
    StageKind.RELEASE,
    StageKind.TRANSFER,
    StageKind.RECEIVE,
    StageKind.ARRIVE,
    StageKind.ACCEPT,
)


@dataclass(frozen=True)
class DroppedTrigger:
    """A trigger that simplification could not keep, and why."""

    source: str
    target: str
    reason: str

    def to_json_dict(self) -> dict:
        return {"source": self.source, "target": self.target, "reason": self.reason}


@dataclass(frozen=True)
class SimplifyReport:
    """What the simplification did: stages removed by kind, direct flows
    added by path collapse, and triggers dropped with reasons."""

    removed: dict[str, int]
    rewired: int
    dropped_triggers: tuple[DroppedTrigger, ...]

    def to_json_dict(self) -> dict:
        return {
            "removed": dict(self.removed),
            "rewired": self.rewired,
            "dropped_triggers": [d.to_json_dict() for d in self.dropped_triggers],
        }


def simplify(model: TmModel) -> tuple[TmModel, SimplifyReport]:
    """Collapse transport chains into direct flows between retained stages.

    For every retained pair (u, v) joined by a flow path whose interior
    stages are all removable, the output gains the direct flow u -> v.
    Triggers touching removed stages are re-anchored to the nearest
    retained stage against the flow on the source side and along it on the
    target side; when no such stage exists (or re-anchoring would make a
    self-loop) the trigger is dropped and the report says why.

    The result is a skeleton that keeps reachability, not a model that
    ``validate`` accepts. A transport chain between thimacs collapses into a
    cross-thimac create -> process or process -> process flow, which the
    flow table forbids (every corpus model and benchmark shape has one),
    and a cycle through removed stages collapses on purpose into a
    self-loop flow, which ``validate`` reports as FLOW_ILLEGAL.
    """
    removable = {s.id for s in model.stages if s.kind in REMOVED_KINDS}
    retained = [s for s in model.stages if s.id not in removable]
    retained_ids = {s.id for s in retained}
    flow_targets, flow_sources = model.flow_targets, model.flow_sources

    def through_removable(stage: str) -> Iterable[str]:
        return flow_targets.get(stage, ()) if stage in removable else ()

    # Collapse: walk from each retained stage's flow targets through
    # removable interiors only; a path back to the stage itself yields a
    # self-loop. Discovery order keeps the output deterministic.
    new_flows = [
        FlowEdge(stage.id, reached)
        for stage in retained
        for reached in walk(through_removable, flow_targets.get(stage.id, ()))
        if reached in retained_ids
    ]

    direct_before = {(f.source, f.target) for f in model.flows
                     if f.source in retained_ids and f.target in retained_ids}
    rewired = sum(1 for f in new_flows if (f.source, f.target) not in direct_before)

    def nearest_retained(start: str, succ: dict[str, tuple[str, ...]]) -> str | None:
        """Closest retained stage along the ``succ`` table, breadth first;
        ties resolve by flow declaration order."""
        return next((n for n in walk(lambda s: succ.get(s, ()), [start])
                     if n in retained_ids), None)

    new_triggers: dict[TriggerEdge, None] = {}  # insertion-ordered, first of each pair
    dropped: list[DroppedTrigger] = []
    for trigger in model.triggers:
        source = trigger.source
        if source in removable:
            source = nearest_retained(trigger.source, flow_sources)
        target = trigger.target
        if target in removable:
            target = nearest_retained(trigger.target, flow_targets)
        if source is None:
            dropped.append(DroppedTrigger(
                trigger.source, trigger.target,
                "no retained stage upstream of the trigger source"))
            continue
        if target is None:
            dropped.append(DroppedTrigger(
                trigger.source, trigger.target,
                "no retained stage downstream of the trigger target"))
            continue
        if source == target:
            dropped.append(DroppedTrigger(
                trigger.source, trigger.target,
                "re-anchoring would collapse the trigger to a self-loop"))
            continue
        new_triggers.setdefault(TriggerEdge(source, target))

    # build_model derives children and stages of each thimac afresh, so
    # the input's thimacs and retained stages pass through as they are.
    simplified = build_model(model.thimacs, retained, new_flows, new_triggers.keys())
    removed_counts = {NAME_BY_KIND[kind]: 0 for kind in REMOVED_KINDS}
    for sid in removable:
        removed_counts[NAME_BY_KIND[model.stage_by_id[sid].kind]] += 1
    report = SimplifyReport(
        removed=removed_counts,
        rewired=rewired,
        dropped_triggers=tuple(dropped),
    )
    return simplified, report


# -- event overlays ----------------------------------------------------------

# Fixed palette cycled over events in declaration order; the names are
# valid fill colors in common graph renderers.
PALETTE = (
    "yellow",
    "orange",
    "lightblue",
    "palegreen",
    "plum",
    "salmon",
    "khaki",
    "turquoise",
)


def make_overlay(model: TmModel, events: Iterable[Event]) -> dict[str, tuple[str, ...]]:
    """Map each model element to the colors of the events covering it.

    :data:`PALETTE` colors cycle over the events in declaration order, and
    an element inside several regions carries all their colors in that
    order. Region elements the model does not have are left out. The model
    itself is untouched; the mapping is the annotation.
    """
    colors: dict[str, list[str]] = {}
    for i, event in enumerate(events):
        color = PALETTE[i % len(PALETTE)]
        for element in event.region:
            if model.has_element(element):
                colors.setdefault(element, []).append(color)
    return {element: tuple(cs) for element, cs in colors.items()}
