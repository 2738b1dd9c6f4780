"""Simplification (transport-stage removal) and event overlays."""

from __future__ import annotations

import random

from conftest import arbitrary_model, closure_pairs, random_model
from tmkit.dsl import lower, parse
from tmkit.dynamics import build_events, define_event, elementary_events
from tmkit.model import Event, StageKind
from tmkit.transform import PALETTE, REMOVED_KINDS, make_overlay, simplify


def model_of(text: str):
    return lower(parse(text)).model


def retained_reachability(model):
    """Oracle: reflexive-transitive closure over flows, restricted to
    create/process stages."""
    nodes = [s.id for s in model.stages]
    retained = {s.id for s in model.stages if s.kind not in REMOVED_KINDS}
    pairs = closure_pairs(nodes, [(f.source, f.target) for f in model.flows])
    return {(a, b) for a, b in pairs if a in retained and b in retained}


def test_model_without_transport_stages_is_untouched():
    model = model_of("""
    thimac A { create; process; }
    flow A.create -> A.process;
    trigger A.create ~> A.process;
    """)
    simplified, report = simplify(model)
    assert simplified == model
    assert report.rewired == 0
    assert set(report.removed.values()) == {0}
    assert report.dropped_triggers == ()


def test_heating_water_collapses_to_create_process(corpus_docs):
    model = corpus_docs["heating_water"].model
    simplified, report = simplify(model)
    flow_pairs = {(f.source, f.target) for f in simplified.flows}
    assert ("Heat.create", "Water.heat.process") in flow_pairs
    assert report.removed == {
        "release": 1, "transfer": 2, "receive": 1, "arrive": 0, "accept": 0}
    assert report.rewired == 1
    # the trigger between retained stages is untouched
    assert {(t.source, t.target) for t in simplified.triggers} == {
        ("Water.heat.process", "Water.temperature.create")}


def test_simplified_models_keep_no_transport_stages(corpus_docs):
    for doc in corpus_docs.values():
        simplified, _ = simplify(doc.model)
        assert all(s.kind not in REMOVED_KINDS for s in simplified.stages)


def test_tendering_simplified_stage_inventory_is_the_retained_set(corpus_docs):
    model = corpus_docs["tendering"].model
    simplified, _ = simplify(model)
    expected = [s.id for s in model.stages if s.kind not in REMOVED_KINDS]
    assert [s.id for s in simplified.stages] == expected
    assert {s.kind for s in simplified.stages} == {StageKind.CREATE, StageKind.PROCESS}


def test_reachability_is_preserved_exactly(corpus_docs):
    rng = random.Random(13)
    models = [doc.model for doc in corpus_docs.values()]
    models += [random_model(rng) for _ in range(20)]
    models += [arbitrary_model(rng) for _ in range(300)]
    for model in models:
        simplified, _ = simplify(model)
        assert retained_reachability(model) == retained_reachability(simplified)


def test_simplify_is_idempotent(corpus_docs):
    rng = random.Random(29)
    models = [doc.model for doc in corpus_docs.values()]
    models += [random_model(rng) for _ in range(10)]
    models += [arbitrary_model(rng) for _ in range(300)]
    for model in models:
        once, _ = simplify(model)
        twice, report = simplify(once)
        assert twice == once
        assert report.rewired == 0


def test_triggers_reanchor_to_nearest_retained_stages():
    model = model_of("""
    thimac A { create; release; transfer; }
    thimac B { transfer; receive; process; }
    thimac C { create; }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    flow A.transfer -> B.transfer;
    flow B.transfer -> B.receive;
    flow B.receive -> B.process;
    trigger A.release ~> C.create;
    trigger C.create ~> B.receive;
    """)
    simplified, report = simplify(model)
    assert {(t.source, t.target) for t in simplified.triggers} == {
        ("A.create", "C.create"),
        ("C.create", "B.process"),
    }
    assert report.dropped_triggers == ()


def test_trigger_without_retained_anchor_is_dropped():
    model = model_of("""
    thimac A { receive; release; transfer; }
    thimac B { create; }
    flow A.receive -> A.release;
    flow A.release -> A.transfer;
    trigger A.release ~> B.create;
    """)
    simplified, report = simplify(model)
    assert simplified.triggers == ()
    (dropped,) = report.dropped_triggers
    assert dropped.source == "A.release"
    assert "upstream" in dropped.reason


def test_collapsed_duplicate_flows_are_deduplicated():
    model = model_of("""
    thimac A { create; release; transfer; }
    thimac B { transfer; receive; process; }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    flow A.transfer -> B.transfer;
    flow B.transfer -> B.receive;
    flow B.receive -> B.process;
    flow A.create -> B.process;
    """)
    simplified, _ = simplify(model)
    pairs = [(f.source, f.target) for f in simplified.flows]
    assert pairs.count(("A.create", "B.process")) == 1


# -- overlays -------------------------------------------------------------------

def test_no_events_no_annotations(corpus_docs):
    assert make_overlay(corpus_docs["heating_water"].model, ()) == {}


def test_heating_water_overlay_paints_two_disjoint_regions(corpus_docs):
    doc = corpus_docs["heating_water"]
    events, _ = build_events(doc.model, doc.events)
    colors = make_overlay(doc.model, events)
    used = {c for cs in colors.values() for c in cs}
    assert used == {PALETTE[0], PALETTE[1]}
    painted_by = {}
    for element, cs in colors.items():
        for c in cs:
            painted_by.setdefault(c, set()).add(element)
    assert painted_by[PALETTE[0]] & painted_by[PALETTE[1]] == set()


def test_overlapping_regions_carry_both_colors_in_order(corpus_docs):
    doc = corpus_docs["heating_water"]
    events, _ = build_events(doc.model, doc.events)
    extra, _ = define_event(doc.model, "Shared", ("Heat.create",))
    colors = make_overlay(doc.model, [*events, extra])
    assert colors["Heat.create"] == (PALETTE[0], PALETTE[2])


def test_palette_cycles_past_eight_events(corpus_docs):
    model = corpus_docs["tendering"].model
    events = elementary_events(model)[:10]
    colors = make_overlay(model, events)
    assert [colors[e.id] for e in events] == [(PALETTE[i % 8],) for i in range(10)]


def test_overlay_skips_elements_the_model_lacks(corpus_docs):
    model = corpus_docs["heating_water"].model
    event = Event(id="E", name="E", region=("ghost", "Heat.create"), level="composite")
    assert make_overlay(model, [event]) == {"Heat.create": (PALETTE[0],)}


def test_overlay_leaves_the_model_alone(corpus_docs):
    doc = corpus_docs["heating_water"]
    events, _ = build_events(doc.model, doc.events)
    before = doc.model
    make_overlay(doc.model, events)
    assert doc.model == before
    assert doc.model.flows == before.flows
