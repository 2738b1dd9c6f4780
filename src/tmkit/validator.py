"""Static checks of built models, their events and their chronology.

Structural integrity is already guaranteed by ``build_model``; the checks
here apply the five-stage machine rules on top: which kinds may flow into
which, what triggers may point at, and whether the wiring hangs together.
Wiring gaps are warnings (abbreviated diagrams are tolerated); illegal
flows and triggers are errors.

An event is a region of the static model (stages plus optionally edges);
this module builds events from their declarations and checks a declared
chronology (behavior graph) against the flow and trigger paths of the
model. Nothing here runs the model: that is the simulator's job.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Sequence

from .diagnostics import (
    BEHAVIOR_INCONSISTENT,
    DUP_NAME,
    FLOW_ILLEGAL,
    REF_UNRESOLVED,
    REGION_DISCONNECTED,
    REGION_EMPTY,
    SINK_RELEASE,
    STAGE_ORPHAN,
    TRANSFER_UNPAIRED,
    TRIGGER_ILLEGAL,
    Diagnostic,
    ModelError,
    Span,
    ValidationReport,
    error,
    warning,
)
from .model import (
    LEGAL_FLOWS_ACROSS,
    LEGAL_FLOWS_WITHIN,
    TRIGGER_TARGET_KINDS,
    BehaviorEdge,
    BehaviorGraph,
    Event,
    EventDecl,
    StageKind,
    TmModel,
    walk,
)

ELEMENTARY = "elementary"
COMPOSITE = "composite"


def check_flow_legality(model: TmModel) -> list[Diagnostic]:
    """One FLOW_ILLEGAL per flow outside the legal table, one
    TRIGGER_ILLEGAL per trigger aimed at anything but a create or process."""
    diags: list[Diagnostic] = []
    stage_by_id = model.stage_by_id
    for flow in model.flows:
        if flow.source == flow.target:
            diags.append(error(
                FLOW_ILLEGAL, "a flow may not loop on a single stage", flow.id))
            continue
        src = stage_by_id[flow.source]
        dst = stage_by_id[flow.target]
        if src.owner == dst.owner:
            table, where = LEGAL_FLOWS_WITHIN, "within one thimac"
        else:
            table, where = LEGAL_FLOWS_ACROSS, "across thimacs"
        if (src.kind, dst.kind) not in table:
            diags.append(error(
                FLOW_ILLEGAL,
                f"{src.kind.value} may not flow to {dst.kind.value} {where}",
                flow.id,
            ))
    for trigger in model.triggers:
        if trigger.source == trigger.target:
            diags.append(error(
                TRIGGER_ILLEGAL, "a trigger may not loop on a single stage", trigger.id))
            continue
        dst = stage_by_id[trigger.target]
        if dst.kind not in TRIGGER_TARGET_KINDS:
            diags.append(error(
                TRIGGER_ILLEGAL,
                f"only create or process stages can be triggered, not {dst.kind.value}",
                trigger.id,
            ))
    return diags


def check_connectivity(model: TmModel) -> list[Diagnostic]:
    """Warnings for stages that do not take part in the machine's wiring.

    A non-create stage must be fed by a flow or a trigger; a release must
    lead to a transfer; a transfer is a boundary port and should touch a
    transfer of another thimac.
    """
    diags: list[Diagnostic] = []
    stage_by_id, index = model.stage_by_id, model.index
    flow_targets, flow_sources = index.flow_targets, index.flow_sources
    for stage in model.stages:
        sid, kind = stage.id, stage.kind
        if kind is not StageKind.CREATE:
            if sid not in flow_sources and sid not in index.trigger_sources:
                diags.append(warning(
                    STAGE_ORPHAN,
                    f"{kind.value} stage has no incoming flow or trigger",
                    sid,
                ))
        if kind is StageKind.RELEASE:
            if not any(stage_by_id[target].kind is StageKind.TRANSFER
                       for target in flow_targets.get(sid, ())):
                diags.append(warning(
                    SINK_RELEASE,
                    "release stage has no outgoing transfer",
                    sid,
                ))
        if kind is StageKind.TRANSFER:
            ends = (stage_by_id[other]
                    for other in (*flow_targets.get(sid, ()), *flow_sources.get(sid, ())))
            if not any(end.kind is StageKind.TRANSFER and end.owner != stage.owner
                       for end in ends):
                diags.append(warning(
                    TRANSFER_UNPAIRED,
                    "transfer stage has no cross-thimac transfer partner",
                    sid,
                ))
    return diags


def validate(model: TmModel) -> ValidationReport:
    """All model checks in fixed order: flow legality, then connectivity."""
    return ValidationReport(tuple(check_flow_legality(model) + check_connectivity(model)))


# -- events -------------------------------------------------------------------

def _touched_stages(model: TmModel, region: Iterable[str]) -> set[str]:
    """Stage ids a region touches: stage elements plus edge endpoints.

    Used for connectivity and path questions, where an edge in the region
    stands for its two ends.
    """
    edge_by_id = model.index.edge_by_id
    out: set[str] = set()
    for element in region:
        if model.has_stage(element):
            out.add(element)
        elif element in edge_by_id:
            edge = edge_by_id[element]
            out.update((edge.source, edge.target))
    return out


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

    Raises :class:`ModelError` for empty regions, unresolved element ids
    and elements named more than once (``DUP_NAME``). A region whose
    elements do not hang together in the flow + trigger graph (ignoring
    arrow direction) earns a REGION_DISCONNECTED warning. When
    ``constituents`` are given the event is composite and its region is
    the union of theirs.
    """
    region = tuple(region)
    if constituents:
        derived = tuple(dict.fromkeys(element for c in constituents for element in c.region))
        if region and set(region) != set(derived):
            raise ValueError(
                f"event '{name}': region does not match the union of its constituents")
        region = derived

    if not region:
        raise ModelError([error(REGION_EMPTY, f"event '{name}' has an empty region", name, span)])

    problems: list[Diagnostic] = []
    seen: set[str] = set()
    for element in region:
        if element in seen:
            problems.append(error(
                DUP_NAME, f"event '{name}' names '{element}' more than once", element, span))
        elif not model.has_element(element):
            problems.append(error(
                REF_UNRESOLVED, f"event '{name}' names unknown element '{element}'", element, span))
        seen.add(element)
    if problems:
        raise ModelError(problems)

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

    stages = tuple(filter(model.has_stage, region))
    if constituents:
        level, parts = COMPOSITE, tuple(c.id for c in constituents)
    elif len(stages) == 1 and touched <= {stages[0], *index.adjacent(stages[0])}:
        level, parts = ELEMENTARY, ()
    else:
        # Implicitly composed of the per-stage elementary events, whose ids
        # are the stage ids themselves.
        level, parts = COMPOSITE, stages
    return Event(id=name, name=name, region=region, level=level, constituents=parts), warnings


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


# -- chronology checks -----------------------------------------------------

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

    # An edge naming a declared event that failed to build is skipped: that
    # event's own diagnostics already report the fault.
    resolved: list[BehaviorEdge] = []
    declared = set(graph.nodes)
    for edge in graph.edges:
        missing = [e for e in (edge.before, edge.after) if e not in by_id]
        for name in missing:
            if name not in declared:
                diags.append(error(
                    REF_UNRESOLVED, f"chronology edge names undeclared event '{name}'", name))
        if not missing:
            resolved.append(edge)

    plain = [e for e in resolved if not e.repeat]
    succ: dict[str, list[str]] = {name: [] for name in by_id}
    order = TopologicalSorter()
    for e in plain:
        succ[e.before].append(e.after)
        order.add(e.after, e.before)

    # Plain edges must form a DAG.
    cyclic = False
    try:
        order.prepare()
    except CycleError:
        cyclic = True
        diags.append(error(
            BEHAVIOR_INCONSISTENT, "chronology edges form a cycle with no repeat mark"))

    def targets(stage: str) -> tuple[str, ...]:
        return (*model.flow_targets(stage), *model.trigger_targets(stage))

    touched = {name: _touched_stages(model, by_id[name].region)
               for name in {n for e in plain for n in (e.before, e.after)}}
    for edge in resolved:
        if edge.repeat:
            if not cyclic and edge.before not in walk(succ.__getitem__, [edge.after]):
                diags.append(error(
                    BEHAVIOR_INCONSISTENT,
                    f"repeat edge {edge.before} -> {edge.after} does not loop back over the chronology",
                    f"{edge.before}->{edge.after}",
                ))
        elif touched[edge.after].isdisjoint(walk(targets, touched[edge.before])):
            diags.append(error(
                BEHAVIOR_INCONSISTENT,
                f"no flow or trigger path from event '{edge.before}' to event '{edge.after}'",
                f"{edge.before}->{edge.after}",
            ))
    return ValidationReport(tuple(diags))


# -- whole documents ----------------------------------------------------------

def validate_document(
    model: TmModel,
    event_decls: Iterable[EventDecl] = (),
    behavior: BehaviorGraph | None = None,
) -> tuple[ValidationReport, tuple[Event, ...]]:
    """Validate a whole lowered document: model checks, event regions, and
    the declared chronology, concatenated in that fixed order.

    Returns the report together with the events that could be built, so
    callers can go straight on to simulation or rendering.
    """
    diags = list(validate(model).diagnostics)
    events, event_diags = build_events(model, event_decls)
    diags.extend(event_diags)
    if behavior is not None:
        diags.extend(check_behavior(model, events, behavior).diagnostics)
    return ValidationReport(tuple(diags)), tuple(events)
