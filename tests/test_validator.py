"""Flow legality, trigger discipline, connectivity, and the diagnostic catalog."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES, SHAPES_PY, pipeline_diagnostics, random_model
from tmkit.diagnostics import (
    DUP_NAME,
    ERROR,
    FLOW_ILLEGAL,
    NEST_CYCLE,
    REF_UNRESOLVED,
    REGION_EMPTY,
    SINK_RELEASE,
    STAGE_ORPHAN,
    TRANSFER_UNPAIRED,
    TRIGGER_ILLEGAL,
    WARNING,
    BEHAVIOR_INCONSISTENT,
    ModelError,
)
from tmkit import validator
from tmkit.dsl import lower, parse
from tmkit.model import (
    BehaviorGraph,
    FlowEdge,
    Stage,
    StageKind,
    Thimac,
    TriggerEdge,
    build_model,
)
from tmkit.validator import (
    check_connectivity,
    check_flow_legality,
    validate,
    validate_document,
)

import pytest


def model_of(text: str):
    return lower(parse(text)).model


def test_heating_water_has_no_flow_diagnostics(corpus_docs):
    assert check_flow_legality(corpus_docs["heating_water"].model) == []


def test_release_to_process_is_illegal():
    model = model_of("""
    thimac A { create; process; release; }
    flow A.create -> A.process;
    flow A.process -> A.release;
    flow A.release -> A.process;
    """)
    diags = check_flow_legality(model)
    assert [d.code for d in diags] == [FLOW_ILLEGAL]
    assert diags[0].element == "flow:A.release->A.process"


def test_cross_thimac_flow_must_join_transfers():
    model = model_of("""
    thimac A { create; }
    thimac B { process; }
    flow A.create -> B.process;
    """)
    assert [d.code for d in check_flow_legality(model)] == [FLOW_ILLEGAL]


def test_flow_self_loop_is_illegal():
    model = build_model(
        [Thimac(id="A", name="A")],
        [Stage(id="A.process", kind=StageKind.PROCESS, owner="A")],
        [FlowEdge("A.process", "A.process")],
        [],
    )
    assert [d.code for d in check_flow_legality(model)] == [FLOW_ILLEGAL]


def test_arrive_accept_chain_is_legal():
    model = model_of("""
    thimac A { create; release; transfer; }
    thimac B { transfer; arrive; accept; process; }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    flow A.transfer -> B.transfer;
    flow B.transfer -> B.arrive;
    flow B.arrive -> B.accept;
    flow B.accept -> B.process;
    """)
    assert check_flow_legality(model) == []


def test_trigger_at_release_is_illegal():
    model = model_of("""
    thimac A { create; process; release; }
    flow A.create -> A.process;
    flow A.process -> A.release;
    trigger A.create ~> A.release;
    """)
    assert [d.code for d in check_flow_legality(model)] == [TRIGGER_ILLEGAL]


def test_trigger_self_loop_is_illegal():
    model = build_model(
        [Thimac(id="A", name="A")],
        [Stage(id="A.process", kind=StageKind.PROCESS, owner="A")],
        [],
        [TriggerEdge("A.process", "A.process")],
    )
    assert [d.code for d in check_flow_legality(model)] == [TRIGGER_ILLEGAL]


# -- connectivity --------------------------------------------------------------

def test_lone_receive_is_an_orphan():
    model = model_of("thimac A { receive; }")
    diags = check_connectivity(model)
    assert [d.code for d in diags] == [STAGE_ORPHAN]
    assert diags[0].severity == WARNING


def test_create_only_thimac_is_fine():
    model = model_of("thimac A { create; }")
    assert check_connectivity(model) == []


def test_tendering_has_zero_connectivity_warnings(corpus_docs):
    assert check_connectivity(corpus_docs["tendering"].model) == []


def test_release_without_transfer_warns():
    model = model_of("""
    thimac A { create; release; }
    flow A.create -> A.release;
    """)
    assert [d.code for d in check_connectivity(model)] == [SINK_RELEASE]


def test_unpaired_transfer_warns():
    model = model_of("""
    thimac A { create; release; transfer; }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    """)
    assert [d.code for d in check_connectivity(model)] == [TRANSFER_UNPAIRED]


def test_triggered_process_is_not_an_orphan():
    model = model_of("""
    thimac A { create; process; }
    trigger A.create ~> A.process;
    """)
    assert check_connectivity(model) == []


# -- validate ------------------------------------------------------------------

def test_all_corpus_models_validate_ok(corpus_docs):
    for name, doc in corpus_docs.items():
        report, _ = validate_document(doc.model, doc.events, doc.behavior)
        assert report.ok, (name, report.diagnostics)


def test_single_illegal_flow_gives_exactly_one_error():
    model = model_of("""
    thimac A { create; process; release; }
    flow A.create -> A.process;
    flow A.process -> A.release;
    flow A.release -> A.process;
    """)
    report = validate(model)
    assert not report.ok
    assert len(report.errors()) == 1


def test_report_ordering_is_deterministic(corpus_docs):
    model = corpus_docs["tendering"].model
    assert validate(model) == validate(model)


def test_every_diagnostic_element_resolves():
    model = model_of("""
    thimac A { create; release; }
    thimac B { receive; }
    flow A.create -> B.receive;
    """)
    report = validate(model)
    known = set(model.element_ids())
    for diag in report.diagnostics:
        assert diag.element in known


def test_adding_an_edge_keeps_diagnostics_about_other_elements(corpus_docs):
    rng = random.Random(23)
    models = [random_model(rng) for _ in range(15)]
    models.append(model_of("""
    thimac A { create; release; }
    thimac B { receive; process; }
    flow A.create -> A.release;
    flow B.receive -> B.process;
    """))
    for model in models:
        if len(model.stages) < 2:
            continue
        before = validate(model).diagnostics
        src = rng.choice(model.stages).id
        dst = rng.choice(model.stages).id
        if src == dst:
            continue
        grown = build_model(
            [Thimac(id=t.id, name=t.name, parent=t.parent) for t in model.thimacs],
            model.stages,
            (*model.flows, FlowEdge(src, dst)),
            model.triggers,
        )
        after = validate(grown).diagnostics
        touched = {src, dst}
        for diag in before:
            if diag.element in touched:
                continue
            assert diag in after


# -- the curated malformed fixtures ---------------------------------------------

FIXTURE_CODES = {
    "flow_illegal.tm": (FLOW_ILLEGAL, ERROR),
    "trigger_illegal.tm": (TRIGGER_ILLEGAL, ERROR),
    "ref_unresolved.tm": (REF_UNRESOLVED, ERROR),
    "dup_name.tm": (DUP_NAME, ERROR),
    "stage_orphan.tm": (STAGE_ORPHAN, WARNING),
    "behavior_inconsistent.tm": (BEHAVIOR_INCONSISTENT, ERROR),
}


@pytest.mark.parametrize("fixture", sorted(FIXTURE_CODES))
def test_malformed_fixture_triggers_exactly_its_code(fixture):
    code, severity = FIXTURE_CODES[fixture]
    diags = pipeline_diagnostics(FIXTURES / fixture)
    error_codes = {d.code for d in diags if d.severity == ERROR}
    if severity == ERROR:
        assert error_codes == {code}, diags
    else:
        assert error_codes == set(), diags
        assert code in {d.code for d in diags}


def test_nest_cycle_fixture():
    with pytest.raises(ModelError) as exc:
        build_model(
            [Thimac(id="A", name="A", parent="B"), Thimac(id="B", name="B", parent="A")],
            [], [], [],
        )
    assert set(exc.value.codes()) == {NEST_CYCLE}


def test_region_empty_fixture(corpus_docs):
    from tmkit.dynamics import define_event

    model = corpus_docs["heating_water"].model
    with pytest.raises(ModelError) as exc:
        define_event(model, "E", ())
    assert set(exc.value.codes()) == {REGION_EMPTY}


def test_event_naming_a_stage_twice_is_a_duplicate():
    doc = lower(parse("""
    thimac A { create; process; }
    flow A.create -> A.process;
    event E { A.create; A.create; }
    event F { A.process; }
    """))
    report, events = validate_document(doc.model, doc.events)
    (diag,) = report.diagnostics
    assert (diag.code, diag.element, diag.span) == (DUP_NAME, "A.create", doc.events[0].span)
    assert [e.id for e in events] == ["F"]


class _CountingNodes(tuple):
    """A tuple that counts its membership tests."""

    def __new__(cls, items):
        self = super().__new__(cls, items)
        self.lookups = 0
        return self

    def __contains__(self, item):
        self.lookups += 1
        return super().__contains__(item)


def test_chronology_over_failed_events_makes_no_scan_of_the_nodes():
    """Each chronology end whose event failed to build is looked up among
    the declared nodes; a scan of the node tuple per lookup made this
    O(edges x events). The lookups go to a set built once, so the tuple
    sees none, and the diagnostics are those of a plain tuple."""
    n = 120
    text = "thimac A { create; }\n" + "".join(
        f"event E{i} {{ A.create; A.create; }}\n" for i in range(n))
    text += "behavior {\n" + "".join(f"E{i} -> E{i + 1};\n" for i in range(n - 1)) + "}\n"
    doc = lower(parse(text))
    assert len(doc.behavior.edges) == n - 1
    nodes = _CountingNodes(doc.behavior.nodes)
    counted = BehaviorGraph(nodes, doc.behavior.edges)
    plain = BehaviorGraph(tuple(doc.behavior.nodes), doc.behavior.edges)
    report, events = validate_document(doc.model, doc.events, counted)
    assert events == () and len(report.diagnostics) == n
    assert {d.code for d in report.diagnostics} == {DUP_NAME}
    assert nodes.lookups == 0
    assert report == validate_document(doc.model, doc.events, plain)[0]


# Counts the calls of check_behavior on sim-relay at n = 125, after the
# validation that builds the model's tables, as bench/ladder.py does.
_COUNT_CHECK_BEHAVIOR = """
import cProfile, importlib.util, sys
from tmkit.dsl import lower, parse
from tmkit.validator import build_events, check_behavior, validate
spec = importlib.util.spec_from_file_location("shapes", sys.argv[1])
shapes = importlib.util.module_from_spec(spec)
sys.modules["shapes"] = shapes
spec.loader.exec_module(shapes)
doc = lower(parse(shapes.sim_relay(125, 1).text))
validate(doc.model)
events, _ = build_events(doc.model, doc.events)
profile = cProfile.Profile()
profile.runcall(check_behavior, doc.model, events, doc.behavior)
print(sum(entry.callcount for entry in profile.getstats()))
"""


def test_chronology_checks_make_the_same_calls_under_every_hash_seed():
    """Each path search of ``check_behavior`` starts from its event's
    stages in a fixed order and stops at the first stage it finds, so its
    call count does not depend on the order in which a set of strings
    happens to iterate: two child processes with different hash seeds
    count the same calls."""
    src = str(Path(validator.__file__).resolve().parents[1])
    counts = set()
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _COUNT_CHECK_BEHAVIOR, str(SHAPES_PY)], capture_output=True,
            text=True, check=True, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
        counts.add(int(done.stdout))
    assert len(counts) == 1
