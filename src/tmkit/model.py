"""Core metamodel: thimacs, stages, flows, and triggers.

A thimac is one node of the thing/machine hierarchy; its stages are the
generic things the machine can do to a thing (create, process, release,
transfer, receive, with receive optionally refined into arrive + accept).
Flows are solid arrows moving a thing between stages, triggers are dashed
arrows activating a stage without passing a thing to it.

Events name regions of the model and a behavior graph declares their
expected chronology; their types live here too, so that every module
can read a document without importing the simulator.

A :class:`TmModel` is frozen, and the tuples it holds contain slotted
value records (thimacs, stages, flows, triggers; events and chronology
edges likewise). These records compare and hash by value, and no tmkit
code assigns to them, so a model is safe to share between readers;
every other module of the toolchain works against the types defined
here. Its :class:`ModelIndex`, built on first use, answers adjacency
in stage ids: which stages a stage's flows or triggers lead to or come
from, or, as ``adjacent``, both. Its ``refs``, a table built on first
use apart from the index, so that formatting never builds the index,
gives each stage's reference text once per model. Stage kinds hash by
identity, in C. :func:`walk` is the one graph search: reachability,
connected components, chronology paths and simplification all use it.
:class:`EdgeSet` is the one rule that an edge is declared once, and
:func:`declared_twice` the diagnostic of a repeat, shared by the text
and JSON readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, TypeVar

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
    """The generic stages a machine applies to the things it handles.

    Members hash by identity, in C: a set of kinds has no reproducible
    order, so no output iterates over one."""

    __hash__ = object.__hash__

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"
    ARRIVE = "arrive"
    ACCEPT = "accept"


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


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
class Stage:
    id: str
    kind: StageKind
    owner: str
    label: str | None = None


@dataclass(slots=True, unsafe_hash=True)
class FlowEdge:
    """Solid arrow: conceptual movement of a thing between stages."""

    source: str
    target: str

    @property
    def id(self) -> str:
        return f"flow:{self.source}->{self.target}"


@dataclass(slots=True, unsafe_hash=True)
class TriggerEdge:
    """Dashed arrow: activation that is not an input/output flow."""

    source: str
    target: str

    @property
    def id(self) -> str:
        return f"trigger:{self.source}~>{self.target}"


class EdgeSet:
    """The rule that an edge is declared once: keeps the first flow or
    trigger of each id, in declaration order, sorted into ``flows`` and
    ``triggers``."""

    def __init__(self) -> None:
        self.flows: list[FlowEdge] = []
        self.triggers: list[TriggerEdge] = []
        self._ids: set[str] = set()

    def add(self, edge: FlowEdge | TriggerEdge) -> bool:
        """Keep ``edge`` and return True, or return False for a repeat,
        which earns the DUP_NAME of :func:`declared_twice`."""
        eid = edge.id
        if eid in self._ids:
            return False
        self._ids.add(eid)
        (self.flows if isinstance(edge, FlowEdge) else self.triggers).append(edge)
        return True


def declared_twice(edge_id: str, span: Span | None = None) -> Diagnostic:
    """The DUP_NAME of an edge that :meth:`EdgeSet.add` found repeated."""
    return error(DUP_NAME, f"edge '{edge_id}' is declared twice", edge_id, span)


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
    ``stage_by_id`` maps each stage id to its stage.
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
        object.__setattr__(self, "stage_by_id", stage_by_id)
        object.__setattr__(self, "_paths", paths)

    @cached_property
    def index(self) -> ModelIndex:
        """Adjacency, edge lookup and connectivity, built on first use.

        Formatting never asks for it, so ``fmt`` does not pay for it.
        """
        return ModelIndex(self)

    @cached_property
    def refs(self) -> dict[str, str]:
        """Each stage id's reference text, built on first use; stage ids
        of JSON models need not be references."""
        paths = self._paths
        return {s.id: stage_ref_text(paths[s.owner], s.kind, s.label) for s in self.stages}

    # -- lookups ---------------------------------------------------------

    def thimac(self, thimac_id: str) -> Thimac:
        return self._thimac_by_id[thimac_id]

    def stage(self, stage_id: str) -> Stage:
        return self.stage_by_id[stage_id]

    def has_stage(self, stage_id: str) -> bool:
        return stage_id in self.stage_by_id

    def has_element(self, element_id: str) -> bool:
        """Whether ``element_id`` names a stage, flow or trigger of this model."""
        return element_id in self.stage_by_id or element_id in self.index.edge_by_id

    @property
    def root_thimacs(self) -> tuple[Thimac, ...]:
        return tuple(t for t in self.thimacs if t.parent is None)

    def nesting(self) -> Iterator[tuple[int, Thimac | None]]:
        """Walk the containment forest without recursion: ``(depth, thimac)``
        where a thimac opens and ``(depth, None)`` where the innermost open
        one closes. Roots have depth 0. ``thimacs`` is already in
        containment pre-order, so one pass over it suffices."""
        open_ids: list[str] = []
        for t in self.thimacs:
            while open_ids and open_ids[-1] != t.parent:
                open_ids.pop()
                yield len(open_ids), None
            yield len(open_ids), t
            open_ids.append(t.id)
        while open_ids:
            open_ids.pop()
            yield len(open_ids), None

    def thimac_path(self, thimac_id: str) -> str:
        """Dotted path of thimac names from the root down."""
        return self._paths[thimac_id]

    def stage_ref(self, stage_id: str) -> str:
        return self.refs[stage_id]

    def flow_targets(self, stage_id: str) -> tuple[str, ...]:
        return self.index.flow_targets.get(stage_id, ())

    def flow_sources(self, stage_id: str) -> tuple[str, ...]:
        return self.index.flow_sources.get(stage_id, ())

    def trigger_targets(self, stage_id: str) -> tuple[str, ...]:
        return self.index.trigger_targets.get(stage_id, ())

    def trigger_sources(self, stage_id: str) -> tuple[str, ...]:
        return self.index.trigger_sources.get(stage_id, ())

    def element_ids(self) -> tuple[str, ...]:
        """Every addressable element: stages first, then flow and trigger edges."""
        return (
            tuple(s.id for s in self.stages)
            + tuple(f.id for f in self.flows)
            + tuple(tr.id for tr in self.triggers)
        )


T = TypeVar("T")


def _grouped(pairs: Iterable[tuple[str, T]]) -> dict[str, tuple[T, ...]]:
    """Each key of the ``(key, value)`` pairs with its values, in pair order."""
    out: dict[str, list[T]] = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return {key: tuple(group) for key, group in out.items()}


class ModelIndex:
    """Lookups derived from one model, built together and never changed.

    Adjacency is answered in stage ids: ``flow_targets``, ``flow_sources``,
    ``trigger_targets`` and ``trigger_sources`` map a stage to the stages
    its flows or triggers lead to or come from, in edge declaration
    order; a stage with no such edge has no entry. ``flow_indices_from``
    gives, per stage, the positions in ``model.flows`` of the flows
    leaving it. ``adjacent`` ignores arrow direction and counts flows and
    triggers alike; ``component`` labels every stage with the first stage,
    in declaration order, of its connected component in that undirected
    graph. ``spontaneous_creates`` are the create stages no trigger points
    at, which fire on their own.
    """

    def __init__(self, model: TmModel) -> None:
        self.flow_targets = _grouped((f.source, f.target) for f in model.flows)
        self.flow_sources = _grouped((f.target, f.source) for f in model.flows)
        self.trigger_targets = _grouped((t.source, t.target) for t in model.triggers)
        self.trigger_sources = _grouped((t.target, t.source) for t in model.triggers)
        self.flow_indices_from = _grouped((f.source, i) for i, f in enumerate(model.flows))

        self.edge_by_id: dict[str, FlowEdge | TriggerEdge] = {
            edge.id: edge for edge in (*model.flows, *model.triggers)}
        self.component: dict[str, str] = {}
        for s in model.stages:
            if s.id not in self.component:
                self.component.update(dict.fromkeys(walk(self.adjacent, [s.id]), s.id))

        self.spontaneous_creates = tuple(
            s.id for s in model.stages
            if s.kind is StageKind.CREATE and s.id not in self.trigger_sources)

    def adjacent(self, stage_id: str) -> tuple[str, ...]:
        """A stage's flow targets, flow sources, trigger targets, then trigger sources."""
        return (self.flow_targets.get(stage_id, ()) + self.flow_sources.get(stage_id, ())
                + self.trigger_targets.get(stage_id, ()) + self.trigger_sources.get(stage_id, ()))


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

    # Containment must be a forest: follow each parent chain until it
    # meets a thimac an earlier chain visited. A chain that meets itself
    # closes a cycle, reported once where it closed.
    visited: set[str] = set()
    for t in thimac_by_id.values():
        chain: list[str] = []
        cur: str | None = t.id
        while cur in thimac_by_id and cur not in visited:
            visited.add(cur)
            chain.append(cur)
            cur = thimac_by_id[cur].parent
        if cur in chain:
            diags.append(error(NEST_CYCLE, f"thimac containment cycle through '{cur}'", cur))

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


def walk(succ: Callable[[str], Iterable[str]], starts: Iterable[str]) -> Iterator[str]:
    """The one graph search: yield the ``starts`` (duplicates dropped, in
    order), then every node a path of ``succ`` arcs leads to from them,
    each once, breadth first in the order it is first reached.

    Nodes are yielded as they are reached, so a caller looking for one
    node stops the search there.
    """
    queue = list(dict.fromkeys(starts))
    seen = set(queue)
    yield from queue
    for node in queue:  # grows while iterating
        for nxt in succ(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
                yield nxt


def reachable(model: TmModel, start: str) -> set[str]:
    """Stages reachable from ``start`` along flow edges, including ``start`` itself.

    Triggers do not count as movement, so they are excluded.
    """
    if not model.has_stage(start):
        raise ModelError([error(REF_UNRESOLVED, f"unknown stage '{start}'", start)])
    return set(walk(model.flow_targets, [start]))


# -- events and chronologies --------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class EventDecl:
    """An event as declared in source: a name and the stage ids of its region."""

    name: str
    region: tuple[str, ...]
    span: Span | None = field(default=None, compare=False)


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
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
