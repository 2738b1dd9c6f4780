"""The deterministic token-flow simulator and trace conformance.

The simulator moves tokens along flows, activates triggers, fires the
events built by :mod:`tmkit.validator`, and records everything in a
trace. :func:`conforms` checks a trace against a declared chronology
(behavior graph).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .diagnostics import NotEnabledError
from .model import BehaviorEdge, BehaviorGraph, Event, StageKind, TmModel, walk
# Events and chronology checks are static and live in the validator; they
# (and ``BehaviorEdge``) stay importable from here for existing callers.
from .validator import build_events, check_behavior, define_event, elementary_events

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

    def __post_init__(self) -> None:
        if self.policy not in (FIFO, RANDOM):
            raise ValueError(f"unknown policy {self.policy!r}: expected {FIFO!r} or {RANDOM!r}")


@dataclass(frozen=True)
class Candidate:
    """One firing choice: a spontaneous creation, the pending trigger
    activation at the head of the queue, or a token move along a flow."""

    kind: str  # "create" | "trigger" | "move"
    stage: str | None = None
    token: int | None = None
    flow_index: int | None = None


@dataclass(slots=True, unsafe_hash=True)
class TraceRecord:
    """One trace entry: the step, what happened, to which element, with which tokens."""

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


class _Quoted(dict):
    """``json.dumps(text)`` for each string looked up, computed on first use."""

    def __missing__(self, text: str) -> str:
        self[text] = quoted = json.dumps(text)
        return quoted


@dataclass(frozen=True)
class Trace:
    """Ordered record of stage executions and event firings from one run."""

    records: tuple[TraceRecord, ...]
    truncated: bool = False  # only when the step bound stopped a run with candidates left

    def event_firings(self) -> tuple[str, ...]:
        return tuple(r.element for r in self.records if r.kind == EVENT_FIRED)

    def stage_executions(self) -> tuple[str, ...]:
        return tuple(r.element for r in self.records if r.kind == STAGE_EXECUTED)

    def to_ndjson(self) -> str:
        """One line per record, each equal to ``json.dumps(record.to_json_dict())``,
        then a closing ``run-ended`` line. A record is written with one
        f-string; its kind and id are quoted by ``json.dumps``, once per
        distinct string."""
        quoted = _Quoted()
        lines = [
            f'{{"step": {r.step}, "kind": {quoted[r.kind]}, "id": {quoted[r.element]}, '
            f'"tokens": [{", ".join(map(str, r.tokens))}]}}'
            for r in self.records
        ]
        lines.append(json.dumps({
            "kind": RUN_ENDED,
            "truncated": self.truncated,
            "records": len(self.records),
        }))
        return "\n".join(lines) + "\n"


class _Fenwick:
    """Counts at positions 0..n-1 under point updates, with the position
    that holds the k-th unit of their running sum, both in O(log n)
    (Fenwick, *Softw. Pract. Exper.* 1994). Counts never go negative.
    :meth:`move` updates two positions in one climb, which stops where
    their update paths meet if the net change is zero."""

    __slots__ = ("tree", "length", "top", "total")

    def __init__(self, size: int) -> None:
        self.top = top = 1 << size.bit_length() >> 1  # highest power of two <= size
        # 1-based partial sums over positions padded with zeros to 2 * top - 1,
        # so that every index the descent in find can reach is in the tree.
        self.length = 2 * top
        self.tree = [0] * self.length
        self.total = 0

    def add(self, position: int, delta: int) -> None:
        self.total += delta
        tree = self.tree
        length = self.length
        i = position + 1
        while i < length:
            tree[i] += delta
            i += i & -i

    def move(self, source: int, taken: int, target: int, added: int) -> None:
        """``add(source, -taken)`` then ``add(target, added)``, in one climb:
        the lower index climbs until the two paths meet, and only the net
        change climbs on from there. Both paths end at ``length``, so they
        always meet, at ``length`` at the latest."""
        delta = added - taken
        self.total += delta
        tree = self.tree
        i, j = source + 1, target + 1
        while i != j:
            if i < j:
                tree[i] -= taken
                i += i & -i
            else:
                tree[j] += added
                j += j & -j
        if delta:
            length = self.length
            while i < length:
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
            if tree[nxt] <= k:
                position = nxt
                k -= tree[nxt]
            step >>= 1
        return position, k


@dataclass(slots=True)
class SimState:
    """Mutable run state with a single owner; never shared between runs.
    :func:`_fire` is the one place a step changes it.

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
    others. A move changes its source and target counts in one climb of
    the tree that stops where the two update paths meet, so a step still
    costs O(log n). ``position`` maps a stage id to its declaration
    position, and ``firing`` maps a stage to the events that name it, in
    declaration order, each with the stages it needs to fire.
    """

    model: TmModel
    options: SimOptions
    position: dict[str, int] = field(compare=False)
    create_slot: dict[str, int] = field(compare=False)
    firing: dict[str, list[tuple[str, frozenset[str]]]] = field(compare=False)
    coverage: dict[str, set[str]]
    counts: _Fenwick = field(compare=False)
    rng: random.Random = field(compare=False)
    tokens: dict[int, set[int]] = field(default_factory=dict)
    frontier: dict[int, dict[int, tuple[int, ...]]] = field(default_factory=dict)
    pending: deque = field(default_factory=deque)
    creations_used: dict[str, int] = field(default_factory=dict)
    step_count: int = 0
    next_token: int = 1


def init_state(
    model: TmModel,
    options: SimOptions = SimOptions(),
    events: Iterable[Event] = (),
) -> SimState:
    events = tuple(events)
    firing: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for e in events:
        needed = frozenset(s for s in e.region if s in model.stage_by_id)
        for stage_id in needed:
            firing.setdefault(stage_id, []).append((e.id, needed))
    stages = len(model.stages)
    create_slot = {sid: stages + j for j, sid in enumerate(model.spontaneous_creates)}
    counts = _Fenwick(stages + len(create_slot))
    if options.creation_cap > 0:
        for slot in create_slot.values():
            counts.add(slot, 1)
    return SimState(model, options, position={s.id: i for i, s in enumerate(model.stages)},
                    create_slot=create_slot, firing=firing,
                    coverage={e.id: set() for e in events}, counts=counts,
                    rng=random.Random(options.seed))


def enabled(state: SimState) -> list[Candidate]:
    """Every firing candidate, in order: ``_candidate(state, k)`` for each k,
    the choices that :func:`run` draws from."""
    return [Candidate(*_candidate(state, k))
            for k in range(bool(state.pending) + state.counts.total)]


def _candidate(state: SimState, k: int) -> tuple[str, str | None, int | None, int | None]:
    """The fields ``(kind, stage, token, flow_index)`` of firing candidate k.

    The order is defined here alone. The pending trigger activation at the
    queue head comes first, then token moves (stage declaration order,
    arrival order within a stage, flow declaration order per token), then
    spontaneous creations still under their cap. Queued work runs before
    new creations so each created thing plays out its chain before the
    next appears. Candidate k is found in O(log n) through the Fenwick
    tree, plus a walk over the tokens waiting at the one stage, so a token
    parked where its flows run out costs nothing here.
    """
    if state.pending:
        if k == 0:
            return "trigger", state.pending[0], None, None
        k -= 1
    position, k = state.counts.find(k)
    waiting = state.frontier.get(position)
    if waiting is None:  # a stage position with a count always has waiting tokens
        stages = len(state.model.stages)
        return "create", state.model.spontaneous_creates[position - stages], None, None
    for token_id, untaken in waiting.items():
        if k < len(untaken):
            break
        k -= len(untaken)
    return "move", None, token_id, untaken[k]


def _fire(state: SimState, kind: str, stage: str | None, token: int | None,
          flow_index: int | None) -> list[TraceRecord]:
    """Apply one whole step for the enabled candidate with these fields, the
    one place a step changes the state: ``run`` fires the tuples that
    ``_candidate`` selects and ``step`` the fields of a :class:`Candidate`.
    A creation or a trigger mints a token; a move takes its token off the
    source's frontier, with the ``left`` moves it no longer waits for. The
    token executes the stage: it joins the frontier unless it has taken
    every flow out, a move's two counts change in one climb, the stage's
    triggers are enqueued and covering events may fire."""
    model = state.model
    if kind == "move":
        flow = model.flows[flow_index]
        source = state.position[flow.source]
        waiting = state.frontier[source]
        left = len(waiting.pop(token))
        if not waiting:
            del state.frontier[source]
        stage = flow.target
        if (stage in state.options.reject_accept
                and model.stage_by_id[stage].kind is StageKind.ACCEPT):
            state.counts.add(source, -left)
            del state.tokens[token]
            state.step_count += 1
            return [TraceRecord(state.step_count, TOKEN_REJECTED, stage, (token,))]
        taken = state.tokens[token]
        taken.add(flow_index)
    else:  # a creation or a trigger mints a token in its stage
        if kind == "trigger":
            stage = state.pending.popleft()
        else:
            used = state.creations_used.get(stage, 0) + 1
            state.creations_used[stage] = used
            if used == state.options.creation_cap:
                state.counts.add(state.create_slot[stage], -1)
        token = state.next_token
        state.next_token += 1
        state.tokens[token] = taken = set()
        left = 0
    untaken = model.flow_indices_from.get(stage, ())
    if not taken.isdisjoint(untaken):
        untaken = tuple(i for i in untaken if i not in taken)
    if untaken:
        position = state.position[stage]
        state.frontier.setdefault(position, {})[token] = untaken
        if left:
            state.counts.move(source, left, position, len(untaken))
        else:
            state.counts.add(position, len(untaken))
    elif left:
        state.counts.add(source, -left)
    state.step_count += 1
    records = [TraceRecord(state.step_count, STAGE_EXECUTED, stage, (token,))]
    state.pending.extend(model.trigger_targets.get(stage, ()))
    for event_id, needed in state.firing.get(stage, ()):
        covered = state.coverage[event_id]
        covered.add(stage)
        if covered >= needed:
            state.step_count += 1
            records.append(TraceRecord(state.step_count, EVENT_FIRED, event_id, (token,)))
            covered.clear()
    return records


def step(state: SimState, candidate: Candidate) -> tuple[SimState, list[TraceRecord]]:
    """Execute one candidate, mutating and returning the state plus new records.

    Raises :class:`NotEnabledError` unless ``candidate`` is in ``enabled(state)``,
    an O(candidates) check, with a move's token and flow index exact ints:
    ``True`` and ``1.0`` equal 1, and would otherwise reach the trace."""
    if candidate not in enabled(state) or (candidate.kind == "move" and (
            type(candidate.token) is not int or type(candidate.flow_index) is not int)):
        raise NotEnabledError(f"candidate {candidate} is not currently enabled")
    return state, _fire(state, candidate.kind, candidate.stage, candidate.token,
                        candidate.flow_index)


def run(model: TmModel, events: Iterable[Event] = (), options: SimOptions = SimOptions()) -> Trace:
    """Run to exhaustion or the step bound, returning the full trace.

    The fifo policy always takes the first enabled candidate; the random
    policy picks uniformly with the seeded generator. Either way the trace
    is a pure function of (model, events, options). The choice is fired as
    the plain tuple that ``_candidate`` returns, through the same
    ``_fire`` that :func:`step` uses for a :class:`Candidate`, so no
    ``Candidate`` is built per step.
    """
    state = init_state(model, options, events)
    counts, pending = state.counts, state.pending
    draw = state.rng.randrange if options.policy == RANDOM else None
    records: list[TraceRecord] = []
    while (total := bool(pending) + counts.total) and state.step_count < options.max_steps:
        k = draw(total) if draw else 0  # total is len(enabled(state))
        records.extend(_fire(state, *_candidate(state, k)))
    return Trace(tuple(records), bool(total))


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

    succ: dict[str, list[str]] = {name: [] for name in fired}
    preds: dict[str, list[str]] = {name: [] for name in fired}
    for before, after in plain:
        succ[before].append(after)
        preds[after].append(before)

    # The body of a loop closed by a repeat edge tail -> head: every event
    # on a plain path from head to tail.
    loops = [(tail, set(walk(succ.__getitem__, [head])) & set(walk(preds.__getitem__, [tail])))
             for tail, head in repeats]

    done: set[str] = set()
    for at_step, name in firings:
        if name in done:
            for tail, body in loops:
                if tail in done and name in body:
                    done -= body
                    break
            else:
                return Conformance(False, (name, name), at_step)
        for before in preds[name]:
            if before not in done:
                return Conformance(False, (before, name), at_step)
        done.add(name)
    return Conformance(True)
