"""Parser, lowering, and formatter behavior, including round-trip stability."""

from __future__ import annotations

import random
import re

import pytest

from conftest import load_shapes, random_model, scanned, token_parse
from tmkit import dsl
from tmkit.diagnostics import DUP_NAME, REF_UNRESOLVED, ModelError, Span
from tmkit.dynamics import BehaviorEdge
from tmkit.dsl import (
    ParseFailure,
    StageNode,
    ThimacNode,
    format_model,
    load,
    lower,
    parse,
)
from tmkit.model import StageKind


MINIMAL_HEAT = "thimac Heat { create; release; transfer; }"


def test_parse_minimal_thimac():
    ast = parse(MINIMAL_HEAT)
    assert len(ast.declarations) == 1
    thimac = ast.declarations[0]
    assert isinstance(thimac, ThimacNode)
    assert thimac.name == "Heat"
    assert [n.kind for n in thimac.body if isinstance(n, StageNode)] == [
        StageKind.CREATE,
        StageKind.RELEASE,
        StageKind.TRANSFER,
    ]


def test_parse_labels_and_nesting():
    ast = parse("""
    thimac Water {
        thimac heat { receive; }
        process(steam);
    }
    """)
    water = ast.declarations[0]
    inner, stage = water.body
    assert isinstance(inner, ThimacNode) and inner.name == "heat"
    assert isinstance(stage, StageNode) and stage.label == "steam"


def test_parse_error_on_bare_arrow():
    with pytest.raises(ParseFailure) as exc:
        parse("flow ->")
    (err,) = exc.value.errors
    assert (err.line, err.column) == (1, 6)
    assert "stage reference" in " ".join(err.expected)
    assert err.found == "'->'"


def test_parse_error_positions_address_the_input():
    text = "thimac A { create }\nflow ->"
    with pytest.raises(ParseFailure) as exc:
        parse(text)
    lines = text.split("\n")
    for err in exc.value.errors:
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1


def test_parse_error_positions_after_crlf_tabs_and_comments():
    text = ("thimac A { create; }\r\n# B comes next\r\nthimac B {\tprocess; }\r\n"
            "\tflow A.create ~> B.process; @\r\n")
    with pytest.raises(ParseFailure) as exc:
        parse(text)
    assert [(e.line, e.column, e.found) for e in exc.value.errors] == [
        (4, 30, "'@'"), (4, 16, "'~>'")]
    with pytest.raises(ParseFailure) as exc:
        parse("thimac A {\r\n\t# open\r\n\tcreate;\r\n\tprocess # unfinished")
    assert [(e.line, e.column, e.found) for e in exc.value.errors] == [(4, 10, "end of input")]


def test_parser_recovers_at_declaration_boundaries():
    text = "thimac A { create }\nthimac B { process; }\nflow B.process -> ;"
    with pytest.raises(ParseFailure) as exc:
        parse(text)
    first, second = exc.value.errors
    assert first.line == 1
    assert second.line == 3


def test_comments_and_whitespace_are_free():
    ast = parse("# heading\nthimac A {\n    create;  # birth\n}\n")
    assert len(ast.declarations) == 1


def test_parse_is_pure():
    text = "thimac A { create; }\nflow A.create -> A.create;"
    assert parse(text) == parse(text)


def test_keywords_are_reserved():
    with pytest.raises(ParseFailure):
        parse("thimac flow { create; }")


def test_lower_minimal_heat():
    doc = lower(parse(MINIMAL_HEAT))
    assert len(doc.model.stages) == 3
    assert doc.model.flows == ()
    assert doc.events == () and doc.behavior is None


def test_lower_heating_water_structure(corpus_docs):
    model = corpus_docs["heating_water"].model
    thimac_by_id = {t.id: t for t in model.thimacs}
    assert [t.name for t in model.thimacs if t.parent is None] == ["Heat", "Water"]
    assert [thimac_by_id[c].name for c in thimac_by_id["Water"].children] == ["heat", "temperature"]


def test_lower_dough_trigger_runs_cutter_to_cookie(corpus_docs):
    model = corpus_docs["dough_cookie"].model
    (trigger,) = model.triggers
    assert trigger.source == "Cutter.dough.process"
    assert trigger.target == "Cookies.create"


def test_event_with_unknown_stage_is_unresolved():
    text = MINIMAL_HEAT + "\nevent E { Heat.process; }"
    with pytest.raises(ModelError) as exc:
        lower(parse(text))
    assert exc.value.codes() == (REF_UNRESOLVED,)
    (diag,) = exc.value.diagnostics
    assert diag.span is not None


def test_behavior_with_unknown_event_is_unresolved():
    text = MINIMAL_HEAT + "\nbehavior { E1 -> E2; }"
    with pytest.raises(ModelError) as exc:
        lower(parse(text))
    assert set(exc.value.codes()) == {REF_UNRESOLVED}


def test_behavior_may_precede_its_events():
    doc = lower(parse(
        MINIMAL_HEAT
        + "\nbehavior { Born -> Gone; }"
        + "\nevent Born { Heat.create; }"
        + "\nevent Gone { Heat.transfer; }"
    ))
    assert doc.behavior.edges == (BehaviorEdge("Born", "Gone"),)


def test_duplicate_sibling_thimacs_flagged():
    with pytest.raises(ModelError) as exc:
        lower(parse("thimac A { create; }\nthimac A { process; }"))
    assert DUP_NAME in exc.value.codes()


def test_repeated_edge_declarations_flagged_once_per_repeat():
    text = MINIMAL_HEAT + """
    thimac Pot { create; process; }
    flow Heat.create -> Heat.release;
    flow Heat.create -> Heat.release;
    trigger Heat.transfer ~> Pot.create;
    flow Heat.create -> Heat.release;
    trigger Heat.transfer ~> Pot.create;
    flow Pot.create -> Pot.process;
    """
    with pytest.raises(ModelError) as exc:
        lower(parse(text))
    diags = exc.value.diagnostics
    assert [(d.code, d.element, d.span.line) for d in diags] == [
        (DUP_NAME, "flow:Heat.create->Heat.release", 4),
        (DUP_NAME, "flow:Heat.create->Heat.release", 6),
        (DUP_NAME, "trigger:Heat.transfer~>Pot.create", 7),
    ]


def test_lowering_collects_every_unresolved_reference():
    text = MINIMAL_HEAT + "\nflow Heat.create -> Heat.process;\nflow Heat.receive -> Heat.release;"
    with pytest.raises(ModelError) as exc:
        lower(parse(text))
    assert exc.value.codes() == (REF_UNRESOLVED, REF_UNRESOLVED)


def test_a_clean_load_builds_a_span_per_event_only(corpus_paths, monkeypatch, tmp_path):
    """AST nodes hold offsets; a clean load builds a ``Span`` for each
    declared event and for nothing else, on the corpus and on the three
    benchmark shapes at their benchmark sizes."""
    built = []

    class CountedSpan(Span):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dsl, "Span", CountedSpan)
    paths = list(corpus_paths.values())
    for name, n in (("sim-fanout", 40), ("sim-relay", 40), ("authoring", 35)):
        paths.append(tmp_path / f"{name}.tm")
        paths[-1].write_text(load_shapes().GENERATORS[name](n, 1).text, encoding="utf-8")
    for path in paths:
        built.clear()
        doc = load(path)
        assert len(built) <= len(doc.events), path.name
        assert all(type(event.span) is CountedSpan for event in doc.events)


def test_lowered_references_share_the_stage_id_strings(corpus_paths):
    """Every flow and trigger endpoint and every event-region element is
    the declared ``Stage.id`` object itself, not an equal copy, from the
    scanner and from the token parser, also where the references are
    written with whitespace."""
    labelled = "thimac A { create(job); process; }\nflow A.create( job ) -> A.process;\n"
    assert scanned(labelled).declarations[1].source.text == "A.create(job)"
    texts = [labelled, *(path.read_text(encoding="utf-8") for path in corpus_paths.values())]
    texts += [make(n, 0).text for make in load_shapes().GENERATORS.values() for n in (3, 12)]
    for text in texts:
        # CRLF line ends and spaces around '.', '(' and ')'.
        spaced = re.sub(r"[.()]", r" \g<0> ", text).replace("\n", "\r\n")
        assert scanned(text) is not None and scanned(spaced) is not None
        parsed, errors = token_parse(spaced)
        assert errors == []
        for doc in (lower(parse(text)), lower(parse(spaced)), lower(parsed)):
            ids = {s.id: s.id for s in doc.model.stages}
            edges = (*doc.model.flows, *doc.model.triggers)
            refs = [sid for e in edges for sid in (e.source, e.target)]
            refs += [sid for event in doc.events for sid in event.region]
            assert refs and all(sid is ids[sid] for sid in refs)


# -- formatter ----------------------------------------------------------------

def test_format_empty_model():
    doc = lower(parse(""))
    assert format_model(doc.model) == ""


def test_format_round_trip_on_corpus(corpus_docs):
    for name, doc in corpus_docs.items():
        text = format_model(doc.model, doc.events, doc.behavior)
        again = lower(parse(text))
        assert again.model == doc.model, name
        assert again.events == doc.events, name
        assert again.behavior == doc.behavior, name


def test_format_is_idempotent_on_corpus(corpus_docs):
    for doc in corpus_docs.values():
        text = format_model(doc.model, doc.events, doc.behavior)
        again = lower(parse(text))
        assert format_model(again.model, again.events, again.behavior) == text


def test_format_round_trip_on_random_models():
    rng = random.Random(11)
    for _ in range(25):
        model = random_model(rng)
        assert lower(parse(format_model(model))).model == model


def test_repeat_mark_round_trips(corpus_docs):
    doc = corpus_docs["heating_water"]
    assert doc.behavior is not None
    repeats = [e for e in doc.behavior.edges if e.repeat]
    assert len(repeats) == 1
    text = format_model(doc.model, doc.events, doc.behavior)
    assert "E2 -> E1 repeat;" in text
