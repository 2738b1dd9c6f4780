"""Toolchain for thing/machine conceptual models.

Parse ``.tm`` model text into a validated metamodel, enumerate and compose
events over the static model, simulate token flow into event chronologies,
simplify models down to their create/process skeleton, and render diagrams
as dot text or canonical JSON.
"""

from .diagnostics import (
    Diagnostic,
    ModelError,
    NotEnabledError,
    Span,
    TmError,
    ValidationReport,
)
from .dsl import (
    Ast,
    Document,
    ParseError,
    ParseFailure,
    format_model,
    load,
    lower,
    parse,
)
from .dynamics import (
    Candidate,
    Conformance,
    SimOptions,
    SimState,
    Trace,
    TraceRecord,
    conforms,
    enabled,
    init_state,
    run,
    step,
)
from .model import (
    BehaviorEdge,
    BehaviorGraph,
    Event,
    EventDecl,
    FlowEdge,
    Stage,
    StageKind,
    Thimac,
    TmModel,
    TriggerEdge,
    build_model,
    reachable,
    try_build_model,
)
from .render import RenderOptions, from_json, to_dot, to_json
from .transform import SimplifyReport, make_overlay, simplify
from .validator import (
    build_events,
    check_behavior,
    check_connectivity,
    check_flow_legality,
    define_event,
    elementary_events,
    validate,
    validate_document,
)

__version__ = "0.1.0"
