"""Core metamodel construction, queries, and invariants."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from collections import Counter

import pytest

from conftest import (
    arbitrary_model,
    closure_pairs,
    load_shapes,
    random_model,
    undirected_components,
)
from tmkit import dsl, dynamics, model as model_module, render, transform, validator
from tmkit.diagnostics import (
    DUP_NAME,
    NEST_CYCLE,
    REF_UNRESOLVED,
    ModelError,
    Span,
    ValidationReport,
    error,
)
from tmkit.model import (
    LEGAL_FLOWS_WITHIN,
    BehaviorEdge,
    Event,
    EventDecl,
    FlowEdge,
    Stage,
    StageKind,
    Thimac,
    TriggerEdge,
    build_model,
    reachable,
    stage_ref_text,
    try_build_model,
)


def heat_decls():
    thimacs = [Thimac(id="Heat", name="Heat")]
    stages = [
        Stage(id="Heat.create", kind=StageKind.CREATE, owner="Heat"),
        Stage(id="Heat.release", kind=StageKind.RELEASE, owner="Heat"),
        Stage(id="Heat.transfer", kind=StageKind.TRANSFER, owner="Heat"),
    ]
    flows = [
        FlowEdge("Heat.create", "Heat.release"),
        FlowEdge("Heat.release", "Heat.transfer"),
    ]
    return thimacs, stages, flows, []


def test_empty_inputs_build_an_empty_model():
    model = build_model([], [], [], [])
    assert model.thimacs == ()
    assert model.stages == ()
    assert model.flows == ()
    assert model.triggers == ()


def test_single_thimac_chain_builds():
    model = build_model(*heat_decls())
    assert [t.name for t in model.thimacs] == ["Heat"]
    heat = model.thimac("Heat")
    assert heat.stages == ("Heat.create", "Heat.release", "Heat.transfer")
    assert heat.children == ()
    assert model.stage("Heat.create").kind is StageKind.CREATE


def test_dangling_flow_endpoint_is_collected_not_raised_first():
    thimacs, stages, flows, triggers = heat_decls()
    flows.append(FlowEdge("Heat.transfer", "Water.heat.transfer"))
    flows.append(FlowEdge("nowhere", "Heat.create"))
    model, diags = try_build_model(thimacs, stages, flows, triggers)
    assert model is None
    codes = [d.code for d in diags]
    assert codes.count(REF_UNRESOLVED) == 2


def test_containment_cycle_is_reported_once():
    thimacs = [
        Thimac(id="A", name="A", parent="B"),
        Thimac(id="B", name="B", parent="A"),
    ]
    with pytest.raises(ModelError) as exc:
        build_model(thimacs, [], [], [])
    assert exc.value.codes() == (NEST_CYCLE,)


def test_sibling_name_clash():
    thimacs = [
        Thimac(id="X", name="Box"),
        Thimac(id="Y", name="Box"),
    ]
    with pytest.raises(ModelError) as exc:
        build_model(thimacs, [], [], [])
    assert DUP_NAME in exc.value.codes()


def test_duplicate_stage_slot_per_owner_and_label():
    thimacs = [Thimac(id="A", name="A")]
    stages = [
        Stage(id="A.process(x)", kind=StageKind.PROCESS, owner="A", label="x"),
        Stage(id="A.process(x)2", kind=StageKind.PROCESS, owner="A", label="x"),
        Stage(id="A.process(y)", kind=StageKind.PROCESS, owner="A", label="y"),
    ]
    with pytest.raises(ModelError) as exc:
        build_model(thimacs, stages, [], [])
    assert exc.value.codes() == (DUP_NAME,)


def test_unknown_stage_owner():
    stages = [Stage(id="ghost.create", kind=StageKind.CREATE, owner="ghost")]
    with pytest.raises(ModelError) as exc:
        build_model([], stages, [], [])
    assert REF_UNRESOLVED in exc.value.codes()


def test_building_twice_yields_equal_models():
    first = build_model(*heat_decls())
    second = build_model(*heat_decls())
    assert first == second


def test_declaration_order_is_normalized_by_owner():
    child_first = build_model(
        thimacs=[Thimac(id="B", name="B", parent="A"), Thimac(id="A", name="A")],
        stages=[
            Stage(id="A.B.create", kind=StageKind.CREATE, owner="B"),
            Stage(id="A.process", kind=StageKind.PROCESS, owner="A"),
        ],
        flows=[],
        triggers=[],
    )
    parent_first = build_model(
        thimacs=[Thimac(id="A", name="A"), Thimac(id="B", name="B", parent="A")],
        stages=[
            Stage(id="A.process", kind=StageKind.PROCESS, owner="A"),
            Stage(id="A.B.create", kind=StageKind.CREATE, owner="B"),
        ],
        flows=[],
        triggers=[],
    )
    assert child_first == parent_first
    assert [t.id for t in parent_first.thimacs] == ["A", "B"]


def test_thimac_path_and_stage_ref_follow_names():
    model = build_model(
        thimacs=[Thimac(id="w", name="Water"), Thimac(id="h", name="heat", parent="w")],
        stages=[Stage(id="s1", kind=StageKind.RECEIVE, owner="h", label="x")],
        flows=[],
        triggers=[],
    )
    assert model.thimac_path("h") == "Water.heat"
    assert model.stage_ref("s1") == "Water.heat.receive(x)"


def test_stage_kinds_hash_by_identity_without_a_python_call():
    pairs = [(k1, k2) for k1 in StageKind for k2 in StageKind]
    calls, legal = [], []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for k1, k2 in pairs:
            hash(k1)
            legal.append((k1, k2) in LEGAL_FLOWS_WITHIN)
    finally:
        sys.setprofile(previous)
    assert calls == []
    assert sum(legal) == len(LEGAL_FLOWS_WITHIN)
    assert all(hash(kind) == object.__hash__(kind) for kind in StageKind)


# Stage ids that are not references: the reference table is built from
# thimac paths, kinds and labels, never from the ids.
OPAQUE_IDS_JSON = json.dumps({
    "thimacs": [{"id": "w", "name": "Water"}, {"id": "h", "name": "heat", "parent": "w"},
                {"id": "t", "name": "Tank"}],
    "stages": [
        {"id": "s1", "kind": "create", "owner": "h", "label": "x"},
        {"id": "s2", "kind": "release", "owner": "h"},
        {"id": "s3", "kind": "transfer", "owner": "h"},
        {"id": "s4", "kind": "transfer", "owner": "t"},
        {"id": "s5", "kind": "process", "owner": "t", "label": "x"},
    ],
    "flows": [{"source": "s1", "target": "s2"}, {"source": "s2", "target": "s3"},
              {"source": "s3", "target": "s4"}, {"source": "s4", "target": "s5"}],
    "triggers": [{"source": "s5", "target": "s1"}],
    "events": [{"id": "Go", "name": "Go", "region": ["s1", "s2"], "level": "composite",
                "constituents": ["s1", "s2"]}],
})

OPAQUE_IDS_DOT_NODES = {
    True: """\
    subgraph cluster_0 {
        label="Water";
        subgraph cluster_1 {
            label="heat";
            "Water.heat.create(x)" [label="create(x)"];
            "Water.heat.release" [label="release"];
            "Water.heat.transfer" [label="transfer"];
        }
    }
    subgraph cluster_2 {
        label="Tank";
        "Tank.transfer" [label="transfer"];
        "Tank.process(x)" [label="process(x)"];
    }
""",
    False: """\
    "Water.heat.create(x)" [label="create(x)"];
    "Water.heat.release" [label="release"];
    "Water.heat.transfer" [label="transfer"];
    "Tank.transfer" [label="transfer"];
    "Tank.process(x)" [label="process(x)"];
""",
}


def test_reference_table_is_built_from_paths_kinds_and_labels():
    rng = random.Random(23)
    draws = [make(rng) for _ in range(40) for make in (random_model, arbitrary_model)]
    opaque, events, _ = render.from_json(OPAQUE_IDS_JSON)
    for model in (*draws, opaque):
        assert model.refs == {
            s.id: stage_ref_text(model.thimac_path(s.owner), s.kind, s.label)
            for s in model.stages}
    assert list(opaque.refs.values()) == [
        "Water.heat.create(x)", "Water.heat.release", "Water.heat.transfer",
        "Tank.transfer", "Tank.process(x)"]

    edges = """\
    "Water.heat.create(x)" -> "Water.heat.release";
    "Water.heat.release" -> "Water.heat.transfer";
    "Water.heat.transfer" -> "Tank.transfer";
    "Tank.transfer" -> "Tank.process(x)";
    "Tank.process(x)" -> "Water.heat.create(x)" [style=dashed];
}
"""
    for clustered, nodes in OPAQUE_IDS_DOT_NODES.items():
        dot = render.to_dot(opaque, render.RenderOptions(cluster_thimacs=clustered))
        assert dot == "digraph tm {\n    rankdir=LR;\n    node [shape=box];\n" + nodes + edges
    assert dsl.format_model(opaque, events) == """\
thimac Water {
    thimac heat {
        create(x);
        release;
        transfer;
    }
}

thimac Tank {
    transfer;
    process(x);
}

flow Water.heat.create(x) -> Water.heat.release;
flow Water.heat.release -> Water.heat.transfer;
flow Water.heat.transfer -> Tank.transfer;
flow Tank.transfer -> Tank.process(x);

trigger Tank.process(x) ~> Water.heat.create(x);

event Go {
    Water.heat.create(x);
    Water.heat.release;
}
"""


def test_each_stage_reference_is_built_once_per_model(corpus_paths, monkeypatch, tmp_path):
    """``to_dot`` (clustered, flat and with an overlay), ``format_model``
    and ``elementary_events`` share one reference table per model, on the
    corpus and on the three benchmark shapes at their benchmark sizes;
    formatting builds no index."""
    built = []
    monkeypatch.setattr(model_module, "stage_ref_text",
                        lambda *args: built.append(args) or stage_ref_text(*args))
    paths = list(corpus_paths.values())
    for name, n in (("sim-fanout", 40), ("sim-relay", 40), ("authoring", 35)):
        paths.append(tmp_path / f"{name}.tm")
        paths[-1].write_text(load_shapes().GENERATORS[name](n, 1).text, encoding="utf-8")
    for path in paths:
        doc = dsl.load(path)
        model = doc.model
        built.clear()
        dsl.format_model(model, doc.events, doc.behavior)
        assert "index" not in vars(model), path.name
        events, _ = validator.build_events(model, doc.events)
        for options in (render.RenderOptions(), render.RenderOptions(cluster_thimacs=False),
                        render.RenderOptions(overlay=transform.make_overlay(model, events))):
            render.to_dot(model, options)
        validator.elementary_events(model)
        assert built and max(Counter(built).values()) == 1, path.name
        assert len(built) <= len(model.stages), path.name


def test_referential_integrity_of_corpus_models(corpus_docs):
    for doc in corpus_docs.values():
        model = doc.model
        thimac_ids = {t.id for t in model.thimacs}
        stage_ids = {s.id for s in model.stages}
        for t in model.thimacs:
            assert t.parent is None or t.parent in thimac_ids
            assert all(c in thimac_ids for c in t.children)
            assert all(s in stage_ids for s in t.stages)
        for s in model.stages:
            assert s.owner in thimac_ids
        for e in (*model.flows, *model.triggers):
            assert e.source in stage_ids and e.target in stage_ids


# -- reachable ----------------------------------------------------------------

def test_isolated_create_reaches_only_itself():
    model = build_model(
        [Thimac(id="A", name="A")],
        [Stage(id="A.create", kind=StageKind.CREATE, owner="A")],
        [],
        [],
    )
    assert reachable(model, "A.create") == {"A.create"}


def test_heat_create_reaches_water_process(corpus_docs):
    model = corpus_docs["heating_water"].model
    assert "Water.heat.process" in reachable(model, "Heat.create")


def test_reachable_excludes_trigger_edges(corpus_docs):
    model = corpus_docs["heating_water"].model
    assert "Water.temperature.create" not in reachable(model, "Heat.create")


def test_reachable_unknown_stage():
    model = build_model([], [], [], [])
    with pytest.raises(ModelError) as exc:
        reachable(model, "ghost")
    assert exc.value.codes() == (REF_UNRESOLVED,)


def test_reachable_matches_closure_oracle_on_corpus_and_random(corpus_docs):
    rng = random.Random(7)
    models = [doc.model for doc in corpus_docs.values()]
    models += [random_model(rng, max_stages=50) for _ in range(20)]
    for model in models:
        nodes = [s.id for s in model.stages]
        pairs = closure_pairs(nodes, [(f.source, f.target) for f in model.flows])
        for start in nodes:
            expected = {b for a, b in pairs if a == start}
            assert reachable(model, start) == expected


def test_adjacency_lookups_match_a_scan_of_the_edges(corpus_docs):
    """Each id lookup equals a full scan of the edges, in declaration order,
    for every stage, those that no edge touches included."""
    rng = random.Random(13)
    models = [doc.model for doc in corpus_docs.values()]
    models += [random_model(rng) for _ in range(200)]
    untouched = 0
    for model in models:
        flows, triggers = model.flows, model.triggers
        for s in (stage.id for stage in model.stages):
            assert model.flow_targets(s) == tuple(f.target for f in flows if f.source == s)
            assert model.flow_sources(s) == tuple(f.source for f in flows if f.target == s)
            assert model.trigger_targets(s) == tuple(t.target for t in triggers if t.source == s)
            assert model.trigger_sources(s) == tuple(t.source for t in triggers if t.target == s)
            assert model.index.flow_indices_from.get(s, ()) == tuple(
                i for i, f in enumerate(flows) if f.source == s)
            assert model.index.adjacent(s) == (
                *(f.target for f in flows if f.source == s),
                *(f.source for f in flows if f.target == s),
                *(t.target for t in triggers if t.source == s),
                *(t.source for t in triggers if t.target == s))
            untouched += not model.index.adjacent(s)
    assert untouched


def test_component_labels_match_the_undirected_components(corpus_docs):
    """Two stages share a label exactly when the sweep oracle puts them in
    one component, and the label is that component's first stage in
    declaration order."""
    rng = random.Random(17)
    models = [doc.model for doc in corpus_docs.values()]
    models += [make(rng) for _ in range(100) for make in (random_model, arbitrary_model)]
    split = 0
    for model in models:
        order = [s.id for s in model.stages]
        edges = [(e.source, e.target) for e in (*model.flows, *model.triggers)]
        components = undirected_components(set(order), edges)
        label = model.index.component
        assert label.keys() == set(order)
        for component in components:
            first = min(component, key=order.index)
            assert {label[s] for s in component} == {first}
        split += len(components) > 1
    assert split


def test_reachable_always_contains_start(corpus_docs):
    model = corpus_docs["tendering"].model
    for s in model.stages:
        assert s.id in reachable(model, s.id)


# -- record contract ------------------------------------------------------

def _ref(name, start, end):
    return dsl.StageRef(f"{name}.create", start, end)


# One builder per record built once per span, AST node, model element,
# event or trace step: each takes the offsets [start, end) of the text the
# record is read from; an AST node holds them, an event declaration their span.
VALUE_RECORDS = {
    Span: lambda start, end: Span(1, 2, 3, 4),
    dsl.StageRef: lambda start, end: _ref("A", start, end),
    dsl.StageNode: lambda start, end: dsl.StageNode(StageKind.CREATE, "x", start, end),
    dsl.ThimacNode: lambda start, end: dsl.ThimacNode(
        "A", (dsl.StageNode(StageKind.CREATE, None, start, end),), start, end),
    dsl.FlowNode: lambda start, end: dsl.FlowNode(
        _ref("A", start, end), _ref("B", start, end), start, end),
    dsl.TriggerNode: lambda start, end: dsl.TriggerNode(
        _ref("A", start, end), _ref("B", start, end), start, end),
    dsl.EventNode: lambda start, end: dsl.EventNode("E", (_ref("A", start, end),), start, end),
    dsl.BehaviorEdgeNode: lambda start, end: dsl.BehaviorEdgeNode("E1", "E2", True, start, end),
    dsl.BehaviorNode: lambda start, end: dsl.BehaviorNode(
        (dsl.BehaviorEdgeNode("E1", "E2", False, start, end),), start, end),
    Thimac: lambda start, end: Thimac("A.B", "B", "A", ("A.B.C",), ("A.B.create",)),
    Stage: lambda start, end: Stage("A.create", StageKind.CREATE, "A", "x"),
    FlowEdge: lambda start, end: FlowEdge("A.create", "A.process"),
    TriggerEdge: lambda start, end: TriggerEdge("A.release", "B.create"),
    EventDecl: lambda start, end: EventDecl("E", ("A.create",), Span(1, start + 1, start, end)),
    Event: lambda start, end: Event("E", "E", ("A.create",), "elementary"),
    BehaviorEdge: lambda start, end: BehaviorEdge("E1", "E2", True),
    dynamics.TraceRecord: lambda start, end: dynamics.TraceRecord(
        3, "stage-executed", "A.create", (1, 2)),
}


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_records_are_slotted_and_compare_and_hash_by_value(cls):
    build = VALUE_RECORDS[cls]
    record = build(0, 1)
    assert type(record) is cls and cls.__slots__
    assert not hasattr(record, "__dict__")
    twin = build(0, 1)
    assert record == twin and hash(record) == hash(twin)
    fields = dataclasses.fields(record)
    # Where a record was read from never takes part in its value.
    placed = [f.name for f in fields if not f.compare]
    assert placed == (["start", "end"] if cls.__module__ == dsl.__name__ else
                      ["span"] if cls is EventDecl else [])
    if placed:
        moved = build(40, 45)
        assert all(getattr(moved, name) != getattr(record, name) for name in placed)
        assert moved == record and hash(moved) == hash(record)
    shown = ", ".join(f"{f.name}={getattr(record, f.name)!r}" for f in fields)
    assert repr(record) == f"{cls.__name__}({shown})"


def test_span_repr_keeps_the_dataclass_form():
    assert repr(Span(1, 2, 3, 4)) == "Span(line=1, column=2, start=3, end=4)"


def test_records_built_once_per_command_stay_frozen():
    span = Span(1, 1, 0, 1)
    built = build_model(*heat_decls())
    records = [
        built,
        dsl.Document(built, (), None),
        dsl.Ast(()),
        ValidationReport(()),
        error(DUP_NAME, "twice", "A", span),
        dsl.ParseError(1, 1, ("a declaration",), "'}'"),
        dynamics.SimOptions(),
        dynamics.Candidate("create", "Heat.create"),
        dynamics.Trace(()),
        dynamics.Conformance(True),
        render.RenderOptions(),
        transform.SimplifyReport({}, 0, ()),
        transform.DroppedTrigger("A.release", "B.create", "gone"),
    ]
    for record in records:
        first = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, None)
