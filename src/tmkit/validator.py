"""Semantic validation of built models.

Structural integrity is already guaranteed by ``build_model``; the checks
here apply the five-stage machine rules on top: which kinds may flow into
which, what triggers may point at, and whether the wiring hangs together.
Wiring gaps are warnings (abbreviated diagrams are tolerated); illegal
flows and triggers are errors.
"""

from __future__ import annotations

from typing import Iterable

from .diagnostics import (
    FLOW_ILLEGAL,
    SINK_RELEASE,
    STAGE_ORPHAN,
    TRANSFER_UNPAIRED,
    TRIGGER_ILLEGAL,
    Diagnostic,
    ValidationReport,
    error,
    warning,
)
from .dynamics import build_events, check_behavior
from .model import (
    LEGAL_FLOWS_ACROSS,
    LEGAL_FLOWS_WITHIN,
    TRIGGER_TARGET_KINDS,
    BehaviorGraph,
    Event,
    EventDecl,
    StageKind,
    TmModel,
)


def check_flow_legality(model: TmModel) -> list[Diagnostic]:
    """One FLOW_ILLEGAL per flow outside the legal table, one
    TRIGGER_ILLEGAL per trigger aimed at anything but a create or process."""
    diags: list[Diagnostic] = []
    for flow in model.flows:
        if flow.source == flow.target:
            diags.append(error(
                FLOW_ILLEGAL, "a flow may not loop on a single stage", flow.id))
            continue
        src = model.stage(flow.source)
        dst = model.stage(flow.target)
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
        dst = model.stage(trigger.target)
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
    for stage in model.stages:
        if stage.kind is not StageKind.CREATE:
            if not model.flows_into(stage.id) and not model.triggers_into(stage.id):
                diags.append(warning(
                    STAGE_ORPHAN,
                    f"{stage.kind.value} stage has no incoming flow or trigger",
                    stage.id,
                ))
        if stage.kind is StageKind.RELEASE:
            targets = (model.stage(f.target).kind for f in model.flows_from(stage.id))
            if StageKind.TRANSFER not in targets:
                diags.append(warning(
                    SINK_RELEASE,
                    "release stage has no outgoing transfer",
                    stage.id,
                ))
        if stage.kind is StageKind.TRANSFER:
            partners = [
                other
                for f in (*model.flows_from(stage.id), *model.flows_into(stage.id))
                for other in (f.source, f.target)
                if other != stage.id
                and model.stage(other).kind is StageKind.TRANSFER
                and model.stage(other).owner != stage.owner
            ]
            if not partners:
                diags.append(warning(
                    TRANSFER_UNPAIRED,
                    "transfer stage has no cross-thimac transfer partner",
                    stage.id,
                ))
    return diags


def validate(model: TmModel) -> ValidationReport:
    """All model checks in fixed order: flow legality, then connectivity."""
    return ValidationReport(tuple(check_flow_legality(model) + check_connectivity(model)))


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
