"""Core metamodel: thimacs, stages, flows, and triggers.

A thimac is one node of the thing/machine hierarchy; its stages are the
generic things the machine can do to a thing (create, process, release,
transfer, receive, with receive optionally refined into arrive + accept).
Flows are solid arrows moving a thing between stages, triggers are dashed
arrows activating a stage without passing a thing to it.

Events name regions of the model and a behavior graph declares their
expected chronology; their types live here too, so that every module
can read a document without importing the simulator.

A :class:`TmModel` is immutable once built and safe to share between
readers; every other module of the toolchain works against the types
defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable

from .diagnostics import (
    DUP_NAME,
    NEST_CYCLE,
    REF_UNRESOLVED,
    Diagnostic,
    ModelError,
    Span,
    error,
)


class StageKind(Enum):
    """The generic stages a machine applies to the things it handles."""

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"
    ARRIVE = "arrive"
    ACCEPT = "accept"

    def __str__(self) -> str:
        return self.value


KIND_BY_NAME = {kind.value: kind for kind in StageKind}

# Flow edges allowed between stage kinds. Inside one thimac the machine
# wires up in fixed directions; between thimacs only the transfer ports
# touch. accept inherits receive's outgoing legality because the
# arrive/accept pair stands in for receive when the input chain is
# refined.
LEGAL_FLOWS_WITHIN = frozenset({
    (StageKind.CREATE, StageKind.PROCESS),
    (StageKind.CREATE, StageKind.RELEASE),
    (StageKind.RECEIVE, StageKind.PROCESS),
    (StageKind.RECEIVE, StageKind.RELEASE),
    (StageKind.PROCESS, StageKind.PROCESS),
    (StageKind.PROCESS, StageKind.RELEASE),
    (StageKind.RELEASE, StageKind.TRANSFER),
    (StageKind.TRANSFER, StageKind.RECEIVE),
    (StageKind.TRANSFER, StageKind.ARRIVE),
    (StageKind.ARRIVE, StageKind.ACCEPT),
    (StageKind.ACCEPT, StageKind.PROCESS),
    (StageKind.ACCEPT, StageKind.RELEASE),
})
LEGAL_FLOWS_ACROSS = frozenset({(StageKind.TRANSFER, StageKind.TRANSFER)})

# Only creations and processings can be activated by a trigger.
TRIGGER_TARGET_KINDS = frozenset({StageKind.CREATE, StageKind.PROCESS})


@dataclass(frozen=True)
class Thimac:
    """One thing/machine node.

    ``children`` and ``stages`` are derived from parent/owner references
    by :func:`build_model`; declarations may leave them empty.
    """

    id: str
    name: str
    parent: str | None = None
    children: tuple[str, ...] = ()
    stages: tuple[str, ...] = ()


@dataclass(frozen=True)
class Stage:
    id: str
    kind: StageKind
    owner: str
    label: str | None = None


@dataclass(frozen=True)
class FlowEdge:
    """Solid arrow: conceptual movement of a thing between stages."""

    source: str
    target: str

    @property
    def id(self) -> str:
        return f"flow:{self.source}->{self.target}"


@dataclass(frozen=True)
class TriggerEdge:
    """Dashed arrow: activation that is not an input/output flow."""

    source: str
    target: str

    @property
    def id(self) -> str:
        return f"trigger:{self.source}~>{self.target}"


def stage_ref_text(owner_path: str, kind: StageKind, label: str | None) -> str:
    """Canonical textual reference for a stage: ``Path.kind`` or ``Path.kind(label)``."""
    ref = f"{owner_path}.{kind.value}"
    return f"{ref}({label})" if label else ref


@dataclass(frozen=True)
class TmModel:
    """An immutable, index-accelerated model.

    The whole model acts as the grand thimac: an implicit root owns every
    parentless thimac. Collections keep a canonical order (thimacs in
    pre-order of the containment forest, stages grouped by owner) so that
    equal declarations always build structurally equal models.
    """

    thimacs: tuple[Thimac, ...]
    stages: tuple[Stage, ...]
    flows: tuple[FlowEdge, ...]
    triggers: tuple[TriggerEdge, ...]

    def __post_init__(self) -> None:
        thimac_by_id = {t.id: t for t in self.thimacs}
        stage_by_id = {s.id: s for s in self.stages}
        paths: dict[str, str] = {}
        for t in self.thimacs:
            paths[t.id] = t.name if t.parent is None else f"{paths[t.parent]}.{t.name}"
        object.__setattr__(self, "_thimac_by_id", thimac_by_id)
        object.__setattr__(self, "_stage_by_id", stage_by_id)
        object.__setattr__(self, "_paths", paths)

    @cached_property
    def index(self) -> ModelIndex:
        """Adjacency, edge lookup and connectivity, built on first use.

        Formatting never asks for it, so ``fmt`` does not pay for it.
        """
        return ModelIndex(self)

    # -- lookups ---------------------------------------------------------

    def thimac(self, thimac_id: str) -> Thimac:
        return self._thimac_by_id[thimac_id]

    def stage(self, stage_id: str) -> Stage:
        return self._stage_by_id[stage_id]

    def has_stage(self, stage_id: str) -> bool:
        return stage_id in self._stage_by_id

    def has_element(self, element_id: str) -> bool:
        """Whether ``element_id`` names a stage, flow or trigger of this model."""
        return element_id in self._stage_by_id or element_id in self.index.edge_by_id

    @property
    def root_thimacs(self) -> tuple[Thimac, ...]:
        return tuple(t for t in self.thimacs if t.parent is None)

    def thimac_path(self, thimac_id: str) -> str:
        """Dotted path of thimac names from the root down."""
        return self._paths[thimac_id]

    def stage_ref(self, stage_id: str) -> str:
        s = self.stage(stage_id)
        return stage_ref_text(self.thimac_path(s.owner), s.kind, s.label)

    def flows_from(self, stage_id: str) -> tuple[FlowEdge, ...]:
        return self.index.flows_from.get(stage_id, ())

    def flows_into(self, stage_id: str) -> tuple[FlowEdge, ...]:
        return self.index.flows_into.get(stage_id, ())

    def triggers_from(self, stage_id: str) -> tuple[TriggerEdge, ...]:
        return self.index.triggers_from.get(stage_id, ())

    def triggers_into(self, stage_id: str) -> tuple[TriggerEdge, ...]:
        return self.index.triggers_into.get(stage_id, ())

    def element_ids(self) -> tuple[str, ...]:
        """Every addressable element: stages first, then flow and trigger edges."""
        return (
            tuple(s.id for s in self.stages)
            + tuple(f.id for f in self.flows)
            + tuple(tr.id for tr in self.triggers)
        )


def _grouped(edges: Iterable, end: str) -> dict[str, tuple]:
    """Edges keyed by the stage at ``end`` ("source" or "target"), in declaration order."""
    out: dict[str, list] = {}
    for edge in edges:
        out.setdefault(getattr(edge, end), []).append(edge)
    return {stage_id: tuple(group) for stage_id, group in out.items()}


class ModelIndex:
    """Lookups derived from one model, built together and never changed.

    ``neighbors`` ignores arrow direction and counts flows and triggers
    alike; ``component`` labels every stage with the first stage, in
    declaration order, of its connected component in that undirected
    graph. ``flow_indices_from`` gives, per stage, the positions in
    ``model.flows`` of the flows leaving it. ``spontaneous_creates`` are
    the create stages no trigger points at, which fire on their own.
    """

    def __init__(self, model: TmModel) -> None:
        self.flows_from: dict[str, tuple[FlowEdge, ...]] = _grouped(model.flows, "source")
        self.flows_into: dict[str, tuple[FlowEdge, ...]] = _grouped(model.flows, "target")
        self.triggers_from: dict[str, tuple[TriggerEdge, ...]] = _grouped(model.triggers, "source")
        self.triggers_into: dict[str, tuple[TriggerEdge, ...]] = _grouped(model.triggers, "target")
        indices: dict[str, list[int]] = {}
        for i, f in enumerate(model.flows):
            indices.setdefault(f.source, []).append(i)
        self.flow_indices_from = {src: tuple(group) for src, group in indices.items()}

        self.edge_by_id: dict[str, FlowEdge | TriggerEdge] = {
            edge.id: edge for edge in (*model.flows, *model.triggers)}
        self.neighbors: dict[str, set[str]] = {s.id: set() for s in model.stages}
        for edge in (*model.flows, *model.triggers):
            self.neighbors[edge.source].add(edge.target)
            self.neighbors[edge.target].add(edge.source)
        self.component: dict[str, str] = {}
        for s in model.stages:
            if s.id in self.component:
                continue
            self.component[s.id] = s.id
            frontier = [s.id]
            while frontier:
                for nxt in self.neighbors[frontier.pop()]:
                    if nxt not in self.component:
                        self.component[nxt] = s.id
                        frontier.append(nxt)

        self.spontaneous_creates = tuple(
            s.id for s in model.stages
            if s.kind is StageKind.CREATE and s.id not in self.triggers_into)


def try_build_model(
    thimacs: Iterable[Thimac],
    stages: Iterable[Stage],
    flows: Iterable[FlowEdge],
    triggers: Iterable[TriggerEdge],
) -> tuple[TmModel | None, list[Diagnostic]]:
    """Check declarations and assemble a model, accumulating every problem.

    Returns ``(model, [])`` on success or ``(None, diagnostics)`` with the
    full list of structural diagnostics. Structural here means referential
    integrity, containment shape, and naming; flow/trigger legality is the
    validator's business so that ill-wired but well-formed models can still
    be built and reported on.
    """
    thimacs = tuple(thimacs)
    stages = tuple(stages)
    flows = tuple(flows)
    triggers = tuple(triggers)
    diags: list[Diagnostic] = []

    thimac_by_id: dict[str, Thimac] = {}
    for t in thimacs:
        if t.id in thimac_by_id:
            diags.append(error(DUP_NAME, f"duplicate thimac '{t.id}'", t.id))
        else:
            thimac_by_id[t.id] = t

    for t in thimac_by_id.values():
        if t.parent is not None and t.parent not in thimac_by_id:
            diags.append(error(
                REF_UNRESOLVED, f"thimac '{t.id}' names unknown parent '{t.parent}'", t.id))

    # Containment must be a forest: follow parent chains, memoizing nodes
    # already known to reach a root.
    safe: set[str] = set()
    reported_cycles: set[frozenset[str]] = set()
    for t in thimac_by_id.values():
        chain: list[str] = []
        on_chain: set[str] = set()
        cur: str | None = t.id
        while cur is not None and cur in thimac_by_id and cur not in safe:
            if cur in on_chain:
                cycle = frozenset(chain[chain.index(cur):])
                if cycle not in reported_cycles:
                    reported_cycles.add(cycle)
                    diags.append(error(
                        NEST_CYCLE, f"thimac containment cycle through '{cur}'", cur))
                break
            chain.append(cur)
            on_chain.add(cur)
            cur = thimac_by_id[cur].parent
        else:
            safe.update(chain)

    # Sibling names must be unique (the implicit grand-thimac root owns the
    # parentless ones).
    seen_names: dict[tuple[str | None, str], str] = {}
    for t in thimac_by_id.values():
        key = (t.parent, t.name)
        if key in seen_names:
            diags.append(error(
                DUP_NAME,
                f"thimac name '{t.name}' appears twice under the same parent",
                t.id,
            ))
        else:
            seen_names[key] = t.id

    stage_by_id: dict[str, Stage] = {}
    seen_slots: set[tuple[str, StageKind, str | None]] = set()
    for s in stages:
        if s.owner not in thimac_by_id:
            diags.append(error(
                REF_UNRESOLVED, f"stage '{s.id}' names unknown owner '{s.owner}'", s.id))
            continue
        if s.id in stage_by_id:
            diags.append(error(DUP_NAME, f"duplicate stage '{s.id}'", s.id))
            continue
        slot = (s.owner, s.kind, s.label)
        if slot in seen_slots:
            labelled = f" labelled '{s.label}'" if s.label else ""
            diags.append(error(
                DUP_NAME,
                f"thimac '{s.owner}' already has a {s.kind.value} stage{labelled}",
                s.id,
            ))
            continue
        seen_slots.add(slot)
        stage_by_id[s.id] = s

    for edge in (*flows, *triggers):
        for end in (edge.source, edge.target):
            if end not in stage_by_id:
                diags.append(error(
                    REF_UNRESOLVED, f"edge endpoint '{end}' is not a declared stage", edge.id))

    if diags:
        return None, diags

    # Canonical ordering: containment pre-order for thimacs, stages grouped
    # under their owner in declaration order. This makes models built from
    # equivalent declarations structurally equal.
    children: dict[str, list[str]] = {t.id: [] for t in thimacs}
    roots: list[str] = []
    for t in thimacs:
        if t.parent is None:
            roots.append(t.id)
        else:
            children[t.parent].append(t.id)
    ordered_ids: list[str] = []
    pending = list(reversed(roots))
    while pending:
        tid = pending.pop()
        ordered_ids.append(tid)
        pending.extend(reversed(children[tid]))

    stages_by_owner: dict[str, list[Stage]] = {t.id: [] for t in thimacs}
    for s in stages:
        stages_by_owner[s.owner].append(s)

    ordered_thimacs = tuple(
        Thimac(
            id=tid,
            name=thimac_by_id[tid].name,
            parent=thimac_by_id[tid].parent,
            children=tuple(children[tid]),
            stages=tuple(s.id for s in stages_by_owner[tid]),
        )
        for tid in ordered_ids
    )
    ordered_stages = tuple(s for tid in ordered_ids for s in stages_by_owner[tid])
    return TmModel(ordered_thimacs, ordered_stages, flows, triggers), []


def build_model(
    thimacs: Iterable[Thimac],
    stages: Iterable[Stage],
    flows: Iterable[FlowEdge],
    triggers: Iterable[TriggerEdge],
) -> TmModel:
    """Build a model or raise :class:`ModelError` with the full diagnostic list."""
    model, diags = try_build_model(thimacs, stages, flows, triggers)
    if model is None:
        raise ModelError(diags)
    return model


def reachable(model: TmModel, start: str) -> set[str]:
    """Stages reachable from ``start`` along flow edges, including ``start`` itself.

    Triggers do not count as movement, so they are excluded.
    """
    if not model.has_stage(start):
        raise ModelError([error(REF_UNRESOLVED, f"unknown stage '{start}'", start)])
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for f in model.flows_from(current):
            if f.target not in seen:
                seen.add(f.target)
                frontier.append(f.target)
    return seen


# -- events and chronologies --------------------------------------------------

@dataclass(frozen=True)
class EventDecl:
    """An event as declared in source: a name and the stage ids of its region."""

    name: str
    region: tuple[str, ...]
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Event:
    """A named region of the model at elementary or composite level."""

    id: str
    name: str
    region: tuple[str, ...]
    level: str
    constituents: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "level": self.level,
            "region": list(self.region),
            "constituents": list(self.constituents),
        }


@dataclass(frozen=True)
class BehaviorEdge:
    """Chronology edge ``before -> after``; a repeat mark declares a loop back."""

    before: str
    after: str
    repeat: bool = False


@dataclass(frozen=True)
class BehaviorGraph:
    nodes: tuple[str, ...]
    edges: tuple[BehaviorEdge, ...]

    def to_json_list(self) -> list[dict]:
        return [
            {"before": e.before, "after": e.after, "repeat": e.repeat}
            for e in self.edges
        ]


# -- canonical JSON ------------------------------------------------------
# Stable key order and declaration-order element lists; ids serialized as
# plain strings. Shared with the render module.

def model_to_dict(model: TmModel) -> dict:
    return {
        "thimacs": [
            {
                "id": t.id,
                "name": t.name,
                "parent": t.parent,
                "children": list(t.children),
                "stages": list(t.stages),
            }
            for t in model.thimacs
        ],
        "stages": [
            {"id": s.id, "kind": s.kind.value, "owner": s.owner, "label": s.label}
            for s in model.stages
        ],
        "flows": [{"source": f.source, "target": f.target} for f in model.flows],
        "triggers": [{"source": t.source, "target": t.target} for t in model.triggers],
    }
