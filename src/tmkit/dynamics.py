"""Events, behavior graphs, and the deterministic token-flow simulator.

An event is a region of the static model (stages plus optionally edges)
that fires during execution; a behavior graph declares the expected
chronology of events. The simulator moves tokens along flows, activates
triggers, fires events, and records everything in a trace that can be
checked against a behavior graph.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Sequence

from .diagnostics import (
    BEHAVIOR_INCONSISTENT,
    DUP_NAME,
    REF_UNRESOLVED,
    REGION_DISCONNECTED,
    REGION_EMPTY,
    Diagnostic,
    ModelError,
    NotEnabledError,
    Span,
    ValidationReport,
    error,
    warning,
)
from .model import BehaviorEdge, BehaviorGraph, Event, EventDecl, StageKind, TmModel

ELEMENTARY = "elementary"
COMPOSITE = "composite"


def _stage_elements(model: TmModel, region: Iterable[str]) -> tuple[str, ...]:
    """The stage ids named directly in a region; these drive event firing."""
    return tuple(e for e in region if model.has_stage(e))


def _touched_stages(model: TmModel, region: Iterable[str]) -> tuple[str, ...]:
    """Stage ids a region touches: stage elements plus edge endpoints.

    Used for connectivity and path questions, where an edge in the region
    stands for its two ends.
    """
    edge_by_id = model.index.edge_by_id
    out: list[str] = []
    seen: set[str] = set()
    for element in region:
        if model.has_stage(element):
            candidates = (element,)
        elif element in edge_by_id:
            edge = edge_by_id[element]
            candidates = (edge.source, edge.target)
        else:
            candidates = ()
        for sid in candidates:
            if sid not in seen:
                seen.add(sid)
                out.append(sid)
    return tuple(out)


def elementary_events(model: TmModel) -> list[Event]:
    """One event per stage, in declaration order; its region is that stage alone."""
    return [
        Event(id=s.id, name=model.stage_ref(s.id), region=(s.id,), level=ELEMENTARY)
        for s in model.stages
    ]


def define_event(
    model: TmModel,
    name: str,
    region: Iterable[str],
    constituents: Sequence[Event] | None = None,
    span: Span | None = None,
) -> tuple[Event, list[Diagnostic]]:
    """Validate a region and produce an event, plus any warnings.

    Raises :class:`ModelError` for empty regions and unresolved element
    ids. A region whose elements do not hang together in the flow +
    trigger graph (ignoring arrow direction) earns a REGION_DISCONNECTED
    warning. When ``constituents`` are given the event is composite and
    its region is the union of theirs.
    """
    region = tuple(region)
    if constituents:
        derived: list[str] = []
        seen: set[str] = set()
        for c in constituents:
            for element in c.region:
                if element not in seen:
                    seen.add(element)
                    derived.append(element)
        if region and set(region) != set(derived):
            raise ValueError(
                f"event '{name}': region does not match the union of its constituents")
        region = tuple(derived)

    if not region:
        raise ModelError([error(REGION_EMPTY, f"event '{name}' has an empty region", name, span)])

    unresolved = [
        error(REF_UNRESOLVED, f"event '{name}' names unknown element '{element}'", element, span)
        for element in region
        if not model.has_element(element)
    ]
    if unresolved:
        raise ModelError(unresolved)

    index = model.index
    touched = _touched_stages(model, region)
    warnings: list[Diagnostic] = []
    if len({index.component[sid] for sid in touched}) > 1:
        warnings.append(warning(
            REGION_DISCONNECTED,
            f"event '{name}' covers elements with no connecting flow or trigger",
            name,
            span,
        ))

    stages = _stage_elements(model, region)
    if constituents:
        event = Event(
            id=name,
            name=name,
            region=region,
            level=COMPOSITE,
            constituents=tuple(c.id for c in constituents),
        )
    elif len(stages) == 1 and set(touched) <= {stages[0]} | index.neighbors[stages[0]]:
        event = Event(id=name, name=name, region=region, level=ELEMENTARY)
    else:
        # Implicitly composed of the per-stage elementary events, whose ids
        # are the stage ids themselves.
        event = Event(
            id=name,
            name=name,
            region=region,
            level=COMPOSITE,
            constituents=stages,
        )
    return event, warnings


def build_events(
    model: TmModel, decls: Iterable[EventDecl]
) -> tuple[list[Event], list[Diagnostic]]:
    """Turn declarations into events, accumulating diagnostics instead of raising."""
    events: list[Event] = []
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for decl in decls:
        if decl.name in seen:
            diags.append(error(
                DUP_NAME, f"event '{decl.name}' is declared twice", decl.name, decl.span))
            continue
        seen.add(decl.name)
        try:
            event, warns = define_event(model, decl.name, decl.region, span=decl.span)
        except ModelError as exc:
            diags.extend(exc.diagnostics)
            continue
        events.append(event)
        diags.extend(warns)
    return events, diags


# -- behavior-graph checking ----------------------------------------------

def _reaches(model: TmModel, sources: Iterable[str], goals: set[str]) -> bool:
    """Whether a flow or trigger path (possibly empty) leads from a source
    to a goal. Breadth first, so the walk stops at the nearest goal."""
    seen = set(sources)
    if not seen.isdisjoint(goals):
        return True
    frontier = list(seen)
    for current in frontier:  # grows while iterating: a queue
        for edge in (*model.flows_from(current), *model.triggers_from(current)):
            if edge.target in goals:
                return True
            if edge.target not in seen:
                seen.add(edge.target)
                frontier.append(edge.target)
    return False


def check_behavior(
    model: TmModel, events: Iterable[Event], graph: BehaviorGraph
) -> ValidationReport:
    """Check a declared chronology against the static model.

    Every plain edge A -> B must be backed by a flow/trigger path from A's
    region to B's region, the plain edges must be acyclic, and every
    repeat edge must close a loop over plain edges. Repeat edges declare
    re-iteration, not precedence, so they are exempt from the path rule.
    """
    diags: list[Diagnostic] = []
    by_id = {e.id: e for e in events}

    resolved: list[BehaviorEdge] = []
    for edge in graph.edges:
        missing = [e for e in (edge.before, edge.after) if e not in by_id]
        if missing:
            for name in missing:
                diags.append(error(
                    REF_UNRESOLVED,
                    f"chronology edge names undeclared event '{name}'",
                    name,
                ))
            continue
        resolved.append(edge)

    succ: dict[str, list[str]] = {}
    order = TopologicalSorter()
    for e in resolved:
        if not e.repeat:
            succ.setdefault(e.before, []).append(e.after)
            order.add(e.after, e.before)

    # Plain edges must form a DAG.
    try:
        order.prepare()
        cyclic = False
    except CycleError:
        cyclic = True
    if cyclic:
        diags.append(error(
            BEHAVIOR_INCONSISTENT,
            "chronology edges form a cycle with no repeat mark",
            None,
        ))

    def dag_reaches(start: str, goal: str) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for nxt in succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    for edge in resolved:
        if edge.repeat:
            if not cyclic and not dag_reaches(edge.after, edge.before):
                diags.append(error(
                    BEHAVIOR_INCONSISTENT,
                    f"repeat edge {edge.before} -> {edge.after} does not loop back over the chronology",
                    f"{edge.before}->{edge.after}",
                ))
            continue
        before_stages = _touched_stages(model, by_id[edge.before].region)
        after_stages = set(_touched_stages(model, by_id[edge.after].region))
        if not _reaches(model, before_stages, after_stages):
            diags.append(error(
                BEHAVIOR_INCONSISTENT,
                f"no flow or trigger path from event '{edge.before}' to event '{edge.after}'",
                f"{edge.before}->{edge.after}",
            ))
    return ValidationReport(tuple(diags))


# -- simulation ------------------------------------------------------------

FIFO = "fifo"
RANDOM = "random"

STAGE_EXECUTED = "stage-executed"
EVENT_FIRED = "event-fired"
TOKEN_REJECTED = "token-rejected"
RUN_ENDED = "run-ended"


@dataclass(frozen=True)
class SimOptions:
    """Run parameters; equal options on the same model give equal runs."""

    seed: int = 0
    max_steps: int = 1000
    creation_cap: int = 1
    policy: str = FIFO
    reject_accept: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Candidate:
    """One firing choice: a spontaneous creation, the pending trigger
    activation at the head of the queue, or a token move along a flow."""

    kind: str  # "create" | "trigger" | "move"
    stage: str | None = None
    token: int | None = None
    flow_index: int | None = None


@dataclass(frozen=True)
class TraceRecord:
    step: int
    kind: str
    element: str
    tokens: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "id": self.element,
            "tokens": list(self.tokens),
        }


@dataclass(frozen=True)
class Trace:
    """Ordered record of stage executions and event firings from one run."""

    records: tuple[TraceRecord, ...]
    truncated: bool = False

    def event_firings(self) -> tuple[str, ...]:
        return tuple(r.element for r in self.records if r.kind == EVENT_FIRED)

    def stage_executions(self) -> tuple[str, ...]:
        return tuple(r.element for r in self.records if r.kind == STAGE_EXECUTED)

    def to_ndjson(self) -> str:
        lines = [json.dumps(r.to_json_dict()) for r in self.records]
        lines.append(json.dumps({
            "kind": RUN_ENDED,
            "truncated": self.truncated,
            "records": len(self.records),
        }))
        return "\n".join(lines) + "\n"


class _Fenwick:
    """Counts at positions 0..n-1 under point updates, with the position
    that holds the k-th unit of their running sum, both in O(log n)
    (Fenwick, *Softw. Pract. Exper.* 1994). Counts never go negative."""

    def __init__(self, size: int) -> None:
        self.tree = [0] * (size + 1)  # 1-based partial sums
        self.top = 1 << size.bit_length() >> 1  # highest power of two <= size
        self.total = 0

    def add(self, position: int, delta: int) -> None:
        self.total += delta
        tree = self.tree
        i = position + 1
        while i < len(tree):
            tree[i] += delta
            i += i & -i

    def find(self, k: int) -> tuple[int, int]:
        """For ``0 <= k < total``: the position whose count covers unit k of
        the running sum, and k's offset within that count."""
        tree = self.tree
        position = 0
        step = self.top
        while step:
            nxt = position + step
            if nxt < len(tree) and tree[nxt] <= k:
                position = nxt
                k -= tree[nxt]
            step >>= 1
        return position, k


@dataclass
class SimState:
    """Mutable run state with a single owner; never shared between runs.

    ``tokens`` maps each live token to the indices of the flows it has
    already taken, because a thing never takes the same passage twice
    within one run; that is what lets a single transfer port serve both
    the inbound and the outbound leg without looping forever.

    The candidate frontier is kept up to date by every step rather than
    rebuilt. ``frontier`` maps a stage's declaration position to the
    tokens there that still have an untaken outgoing flow, in arrival
    order, each with the indices of those flows in declaration order; a
    token stays at one stage until it moves, so the list is fixed while
    it waits. A token whose flows out are all taken can never move again:
    it stays in ``tokens`` but leaves the frontier, and no step looks at
    it again. ``counts`` is a Fenwick tree over the number of moves
    waiting at each stage position, followed by one unit for each
    spontaneous create still under its cap (at position ``create_slot``),
    so the k-th candidate of :func:`enabled` is found without listing the
    others. ``position`` maps a stage id to its declaration position, and
    ``firing`` maps a stage to the events that name it, in declaration
    order, each with the stages it needs to fire.
    """

    model: TmModel
    options: SimOptions
    tokens: dict[int, set[int]] = field(default_factory=dict)
    frontier: dict[int, dict[int, tuple[int, ...]]] = field(default_factory=dict)
    pending: deque = field(default_factory=deque)
    creations_used: dict[str, int] = field(default_factory=dict)
    coverage: dict[str, set[str]] = field(default_factory=dict)
    counts: _Fenwick = field(default_factory=lambda: _Fenwick(0), compare=False)
    position: dict[str, int] = field(default_factory=dict, compare=False)
    create_slot: dict[str, int] = field(default_factory=dict, compare=False)
    firing: dict[str, list[tuple[str, frozenset[str]]]] = field(
        default_factory=dict, compare=False)
    step_count: int = 0
    next_token: int = 1
    rng: random.Random = field(default_factory=random.Random, compare=False)


def init_state(
    model: TmModel,
    options: SimOptions = SimOptions(),
    events: Iterable[Event] = (),
) -> SimState:
    events = tuple(events)
    state = SimState(model=model, options=options)
    state.rng.seed(options.seed)
    needed = {e.id: frozenset(_stage_elements(model, e.region)) for e in events}
    for e in events:
        for stage_id in needed[e.id]:
            state.firing.setdefault(stage_id, []).append((e.id, needed[e.id]))
    state.coverage = {e.id: set() for e in events}
    stages = len(model.stages)
    creates = model.index.spontaneous_creates
    state.position = {s.id: i for i, s in enumerate(model.stages)}
    state.create_slot = {sid: stages + j for j, sid in enumerate(creates)}
    state.counts = _Fenwick(stages + len(creates))
    if options.creation_cap > 0:
        for slot in state.create_slot.values():
            state.counts.add(slot, 1)
    return state


def enabled(state: SimState) -> list[Candidate]:
    """Firing candidates in deterministic order.

    Pending trigger activations come first (queue head only), then token
    moves (stage declaration order, arrival order within a stage, flow
    declaration order per token), then spontaneous creations still under
    their cap. Queued work runs before new creations so each created thing
    plays out its chain before the next appears. The moves are read from
    the frontier kept in ``state``, so a token parked where its flows run
    out costs nothing here.
    """
    out: list[Candidate] = []
    if state.pending:
        out.append(Candidate(kind="trigger", stage=state.pending[0]))
    for position in sorted(state.frontier):
        for token_id, untaken in state.frontier[position].items():
            out.extend(Candidate(kind="move", token=token_id, flow_index=i) for i in untaken)
    cap = state.options.creation_cap
    for sid in state.model.index.spontaneous_creates:
        if state.creations_used.get(sid, 0) < cap:
            out.append(Candidate(kind="create", stage=sid))
    return out


def _candidate(state: SimState, k: int) -> Candidate:
    """``enabled(state)[k]`` without listing the rest: O(log n) through the
    Fenwick tree, plus a walk over the tokens waiting at the one stage."""
    if state.pending:
        if k == 0:
            return Candidate(kind="trigger", stage=state.pending[0])
        k -= 1
    position, k = state.counts.find(k)
    stages = len(state.model.stages)
    if position >= stages:
        return Candidate(kind="create", stage=state.model.index.spontaneous_creates[position - stages])
    for token_id, untaken in state.frontier[position].items():
        if k < len(untaken):
            break
        k -= len(untaken)
    return Candidate(kind="move", token=token_id, flow_index=untaken[k])


def _is_enabled(state: SimState, c: Candidate) -> bool:
    """Whether ``c`` is in ``enabled(state)``, checked in O(1) for its kind."""
    if c.kind == "trigger":
        return bool(state.pending) and c == Candidate(kind="trigger", stage=state.pending[0])
    if c.kind == "create":
        return (c == Candidate(kind="create", stage=c.stage) and isinstance(c.stage, str)
                and c.stage in state.create_slot
                and state.creations_used.get(c.stage, 0) < state.options.creation_cap)
    flows = state.model.flows
    if (c.kind != "move" or c.stage is not None
            or not isinstance(c.token, int) or not isinstance(c.flow_index, int)
            or not 0 <= c.flow_index < len(flows)):
        return False
    waiting = state.frontier.get(state.position[flows[c.flow_index].source], {})
    return c.flow_index in waiting.get(c.token, ())


def _arrive(state: SimState, stage_id: str, token_id: int) -> None:
    """Put a token that reached (or was minted in) a stage on the frontier,
    unless it has already taken every flow out of that stage."""
    taken = state.tokens[token_id]
    untaken = tuple(
        i for i in state.model.index.flow_indices_from.get(stage_id, ()) if i not in taken)
    if untaken:
        position = state.position[stage_id]
        state.frontier.setdefault(position, {})[token_id] = untaken
        state.counts.add(position, len(untaken))


def _mint(state: SimState, stage_id: str) -> int:
    token_id = state.next_token
    state.next_token += 1
    state.tokens[token_id] = set()
    _arrive(state, stage_id, token_id)
    return token_id


def _execute_stage(state: SimState, stage_id: str, token_id: int) -> list[TraceRecord]:
    """A token arriving at (or minted in) a stage executes it: the stage's
    outgoing triggers are enqueued and covering events may fire."""
    records = []
    state.step_count += 1
    records.append(TraceRecord(state.step_count, STAGE_EXECUTED, stage_id, (token_id,)))
    for trigger in state.model.triggers_from(stage_id):
        state.pending.append(trigger.target)
    for event_id, needed in state.firing.get(stage_id, ()):
        covered = state.coverage[event_id]
        covered.add(stage_id)
        if covered >= needed:
            state.step_count += 1
            records.append(TraceRecord(state.step_count, EVENT_FIRED, event_id, (token_id,)))
            covered.clear()
    return records


def _fire(state: SimState, candidate: Candidate) -> list[TraceRecord]:
    """Apply the effects of a candidate that is enabled in ``state``."""
    if candidate.kind == "create":
        used = state.creations_used.get(candidate.stage, 0) + 1
        state.creations_used[candidate.stage] = used
        if used == state.options.creation_cap:
            state.counts.add(state.create_slot[candidate.stage], -1)
        return _execute_stage(state, candidate.stage, _mint(state, candidate.stage))

    if candidate.kind == "trigger":
        target = state.pending.popleft()
        return _execute_stage(state, target, _mint(state, target))

    flow = state.model.flows[candidate.flow_index]
    position = state.position[flow.source]
    waiting = state.frontier[position]
    state.counts.add(position, -len(waiting.pop(candidate.token)))
    if not waiting:
        del state.frontier[position]
    if (flow.target in state.options.reject_accept
            and state.model.stage(flow.target).kind is StageKind.ACCEPT):
        del state.tokens[candidate.token]
        state.step_count += 1
        return [TraceRecord(state.step_count, TOKEN_REJECTED, flow.target, (candidate.token,))]
    state.tokens[candidate.token].add(candidate.flow_index)
    _arrive(state, flow.target, candidate.token)
    return _execute_stage(state, flow.target, candidate.token)


def step(state: SimState, candidate: Candidate) -> tuple[SimState, list[TraceRecord]]:
    """Execute one candidate, mutating and returning the state plus new records."""
    if not _is_enabled(state, candidate):
        raise NotEnabledError(f"candidate {candidate} is not currently enabled")
    return state, _fire(state, candidate)


def run(model: TmModel, events: Iterable[Event] = (), options: SimOptions = SimOptions()) -> Trace:
    """Run to exhaustion (or the step bound), returning the full trace.

    The fifo policy always takes the first enabled candidate; the random
    policy picks uniformly with the seeded generator. Either way the trace
    is a pure function of (model, events, options).
    """
    state = init_state(model, options, events)
    records: list[TraceRecord] = []
    truncated = False
    while True:
        if state.step_count >= options.max_steps:
            truncated = True
            break
        total = bool(state.pending) + state.counts.total  # len(enabled(state))
        if not total:
            break
        k = state.rng.randrange(total) if options.policy == RANDOM else 0
        records.extend(_fire(state, _candidate(state, k)))
    return Trace(tuple(records), truncated)


# -- trace conformance ------------------------------------------------------

@dataclass(frozen=True)
class Conformance:
    """Outcome of checking a trace against a behavior graph."""

    ok: bool
    violation: tuple[str, str] | None = None
    step: int | None = None


def conforms(trace: Trace, graph: BehaviorGraph) -> Conformance:
    """True when the trace's event firings linearize the declared chronology.

    Only events that actually fired constrain the check. A repeat edge
    ``tail -> head`` lets the loop body (everything between head and tail
    in the plain chronology) fire again once the tail has fired; without
    one, a second firing of the same event is a violation, reported as
    ``(event, event)``. Precedence breaks are reported as the violated
    edge ``(before, after)``.
    """
    firings = [(r.step, r.element) for r in trace.records if r.kind == EVENT_FIRED]
    fired = {name for _, name in firings}

    plain = [(e.before, e.after) for e in graph.edges
             if not e.repeat and e.before in fired and e.after in fired]
    repeats = [(e.before, e.after) for e in graph.edges
               if e.repeat and e.before in fired and e.after in fired]

    succ: dict[str, set[str]] = {}
    preds: dict[str, list[str]] = {}
    for before, after in plain:
        succ.setdefault(before, set()).add(after)
        preds.setdefault(after, []).append(before)

    def descendants(node: str) -> set[str]:
        seen = {node}
        frontier = [node]
        while frontier:
            for nxt in succ.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    closure = {name: descendants(name) for name in fired}

    done: set[str] = set()
    for at_step, name in firings:
        if name in done:
            reset = False
            for tail, head in repeats:
                if tail not in done:
                    continue
                body = {x for x in closure.get(head, ()) if tail in closure.get(x, ())}
                if name in body:
                    done -= body
                    reset = True
                    break
            if not reset:
                return Conformance(False, (name, name), at_step)
        for before in preds.get(name, ()):
            if before not in done:
                return Conformance(False, (before, name), at_step)
        done.add(name)
    return Conformance(True)
