"""Dot and JSON exporters: structure, determinism, and syntax conformance."""

from __future__ import annotations

import json
import re

import pytest

from tmkit.diagnostics import DUP_NAME, REF_UNRESOLVED, ModelError
from tmkit.dsl import lower, parse
from tmkit.dynamics import build_events
from tmkit.model import build_model
from tmkit.render import RenderOptions, from_json, to_dot, to_json
from tmkit.transform import make_overlay


# -- a minimal dot syntax checker -------------------------------------------
# Just enough grammar to demand well-formed digraph text: quoted ids,
# attribute lists, nested subgraphs, and edge statements.

_DOT_TOKEN = re.compile(
    r'\s*(?:(?P<str>"(?:[^"\\]|\\.)*")|(?P<id>[A-Za-z_][A-Za-z0-9_]*)'
    r"|(?P<punct>->|[{}\[\];=,]))"
)


def _dot_tokens(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _DOT_TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            assert not rest, f"unparseable dot text at: {rest[:40]!r}"
            break
        tokens.append(match.group(match.lastgroup))
        pos = match.end()
    return tokens


def assert_valid_dot(text: str) -> None:
    tokens = _dot_tokens(text)

    def take(expected: str) -> None:
        assert tokens and tokens[0] == expected, f"expected {expected}, got {tokens[:3]}"
        tokens.pop(0)

    def is_id() -> bool:
        return bool(tokens) and (tokens[0].startswith('"') or tokens[0].isidentifier())

    def attr_list() -> None:
        take("[")
        while tokens[0] != "]":
            assert is_id()
            tokens.pop(0)
            take("=")
            assert is_id()
            tokens.pop(0)
            if tokens[0] == ",":
                tokens.pop(0)
        take("]")

    def statements() -> None:
        while tokens and tokens[0] != "}":
            if tokens[0] == "subgraph":
                tokens.pop(0)
                assert is_id()
                tokens.pop(0)
                take("{")
                statements()
                take("}")
                continue
            assert is_id(), f"expected a statement, got {tokens[:3]}"
            tokens.pop(0)
            if tokens and tokens[0] == "=":  # graph attribute
                tokens.pop(0)
                assert is_id()
                tokens.pop(0)
            elif tokens and tokens[0] == "->":
                tokens.pop(0)
                assert is_id()
                tokens.pop(0)
                if tokens and tokens[0] == "[":
                    attr_list()
            elif tokens and tokens[0] == "[":
                attr_list()
            take(";")

    take("digraph")
    assert is_id()
    tokens.pop(0)
    take("{")
    statements()
    take("}")
    assert not tokens, f"trailing tokens: {tokens[:5]}"


def model_of(text: str):
    return lower(parse(text)).model


def events_of(doc):
    events, diags = build_events(doc.model, doc.events)
    assert not diags
    return events


# -- dot ----------------------------------------------------------------------

def test_empty_model_renders_header_and_footer_only():
    text = to_dot(build_model([], [], [], []))
    assert text.startswith("digraph tm {")
    assert text.rstrip().endswith("}")
    assert "label=" not in text


def test_heating_water_dot_counts(corpus_docs):
    model = corpus_docs["heating_water"].model
    text = to_dot(model)
    assert text.count("[label=") == len(model.stages) == 8
    assert text.count("[style=dashed]") == len(model.triggers) == 1
    solid = [line for line in text.splitlines()
             if "->" in line and "style=dashed" not in line]
    assert len(solid) == len(model.flows) == 6


def test_structural_fidelity_for_all_corpus(corpus_docs):
    for doc in corpus_docs.values():
        model = doc.model
        text = to_dot(model)
        assert text.count("[label=") == len(model.stages)
        assert text.count("style=dashed") == len(model.triggers)
        arrows = text.count(" -> ")
        assert arrows == len(model.flows) + len(model.triggers)


def test_overlay_renders_exactly_two_fill_colors(corpus_docs):
    doc = corpus_docs["heating_water"]
    events = events_of(doc)
    text = to_dot(doc.model, RenderOptions(overlay=make_overlay(doc.model, events)))
    fills = set(re.findall(r'fillcolor="([^"]+)"', text))
    assert fills == {"yellow", "orange"}


def test_clusters_follow_thimac_nesting(corpus_docs):
    text = to_dot(corpus_docs["heating_water"].model)
    assert text.count("subgraph cluster_") == 4  # Heat, Water, heat, temperature
    flat = to_dot(corpus_docs["heating_water"].model, RenderOptions(cluster_thimacs=False))
    assert "subgraph" not in flat


def test_labels_show_the_thing_handled(corpus_docs):
    model = corpus_docs["tendering"].model
    text = to_dot(model)
    assert 'label="create(request)"' in text


def test_dot_output_is_deterministic(corpus_docs):
    for doc in corpus_docs.values():
        assert to_dot(doc.model) == to_dot(doc.model)


def test_all_corpus_dot_output_is_well_formed(corpus_docs):
    for doc in corpus_docs.values():
        events = events_of(doc)
        assert_valid_dot(to_dot(doc.model))
        assert_valid_dot(to_dot(doc.model, RenderOptions(overlay=make_overlay(doc.model, events))))
        assert_valid_dot(to_dot(doc.model, RenderOptions(cluster_thimacs=False)))


# -- json ----------------------------------------------------------------------

def test_empty_model_json_has_empty_collections():
    data = json.loads(to_json(build_model([], [], [], [])))
    assert data == {
        "thimacs": [], "stages": [], "flows": [], "triggers": [],
        "events": [], "behavior": [],
    }


def test_json_round_trip_is_byte_identical(corpus_docs):
    for doc in corpus_docs.values():
        events = events_of(doc)
        first = to_json(doc.model, events, doc.behavior)
        model, ev, behavior = from_json(first)
        assert to_json(model, ev, behavior) == first


def test_dough_json_lists_one_trigger(corpus_docs):
    data = json.loads(to_json(corpus_docs["dough_cookie"].model))
    assert len(data["triggers"]) == 1
    assert data["triggers"][0] == {
        "source": "Cutter.dough.process", "target": "Cookies.create"}


def test_json_output_is_deterministic(corpus_docs):
    doc = corpus_docs["tendering"]
    events = events_of(doc)
    assert to_json(doc.model, events, doc.behavior) == to_json(doc.model, events, doc.behavior)


@pytest.mark.parametrize("text", [
    "[]",
    "3",
    '{"thimacs": 3}',
    '{"thimacs": [3]}',
    '{"thimacs": [{"name": "A"}]}',
    '{"thimacs": [{"id": "A", "name": "A", "parent": 7}]}',
    '{"stages": [{"id": "A.create", "kind": "explode", "owner": "A"}]}',
    '{"flows": [{"source": ["A.create"], "target": "A.process"}]}',
    '{"events": [{"id": "E", "name": "E", "level": "elementary", "region": "A.create"}]}',
    '{"behavior": [{"before": "E", "after": "F", "repeat": "yes"}]}',
])
def test_wrong_shaped_json_is_unresolved(text):
    with pytest.raises(ModelError) as info:
        from_json(text)
    assert set(info.value.codes()) == {REF_UNRESOLVED}


@pytest.mark.parametrize("text", ["[" * 100000, "[" * 5000 + "]" * 5000],
                         ids=["unbalanced", "balanced"])
def test_deeply_nested_json_is_unresolved(text):
    with pytest.raises(ModelError) as info:
        from_json(text)
    assert set(info.value.codes()) == {REF_UNRESOLVED}


def test_json_with_any_value_replaced_or_removed_loads_or_is_a_model_error(corpus_docs):
    """Every key of every first entry, dropped or given a number: the
    reader either builds a model or raises ModelError, nothing else."""
    doc = corpus_docs["dough_cookie"]
    data = json.loads(to_json(doc.model, events_of(doc), doc.behavior))
    failures = 0
    for section, entries in data.items():
        for key in entries[0]:
            for mutate in (lambda e, k: e.pop(k), lambda e, k: e.__setitem__(k, 3)):
                broken = json.loads(json.dumps(data))
                mutate(broken[section][0], key)
                try:
                    from_json(json.dumps(broken))
                except ModelError:
                    failures += 1
    assert failures > 0


@pytest.mark.parametrize("section", ["flows", "triggers"])
def test_repeated_edge_in_json_is_a_duplicate(corpus_docs, section):
    doc = corpus_docs["dough_cookie"]
    data = json.loads(to_json(doc.model))
    edge = data[section][0]
    data[section].append(dict(edge))
    with pytest.raises(ModelError) as info:
        from_json(json.dumps(data))
    kind, arrow = ("flow", "->") if section == "flows" else ("trigger", "~>")
    assert [(d.code, d.element) for d in info.value.diagnostics] == [
        (DUP_NAME, f"{kind}:{edge['source']}{arrow}{edge['target']}")]


def test_json_stages_labelled_null_and_empty_share_a_slot():
    """``"label": null`` and ``"label": ""`` both give the reference
    ``T.create``, so the second stage is a duplicate."""
    data = {
        "thimacs": [{"id": "T", "name": "T", "parent": None}],
        "stages": [{"id": "a", "kind": "create", "owner": "T", "label": None},
                   {"id": "b", "kind": "create", "owner": "T", "label": ""}],
        "flows": [], "triggers": [], "events": [], "behavior": [],
    }
    with pytest.raises(ModelError) as info:
        from_json(json.dumps(data))
    assert [(d.code, d.message, d.element) for d in info.value.diagnostics] == [
        (DUP_NAME, "thimac 'T' already has a create stage", "b")]


def test_json_stage_ids_with_an_edge_arrow_are_unresolved():
    """Flows ``a->b -> c`` and ``a -> b->c`` would both get the id
    ``flow:a->b->c``, so a stage id may hold neither ``->`` nor ``~>``
    (the trigger arrow, for the same reason)."""
    data = {
        "thimacs": [{"id": "T", "name": "T", "parent": None}],
        "stages": [{"id": sid, "kind": kind, "owner": "T", "label": None} for sid, kind in (
            ("a", "create"), ("a->b", "process"), ("c", "release"), ("b->c", "transfer"),
            ("d~>e", "receive"))],
        "flows": [{"source": "a->b", "target": "c"}, {"source": "a", "target": "b->c"}],
        "triggers": [], "events": [], "behavior": [],
    }
    with pytest.raises(ModelError) as info:
        from_json(json.dumps(data))
    assert [(d.code, d.message, d.element) for d in info.value.diagnostics] == [
        (REF_UNRESOLVED, f"JSON stages[{i}].id: expected a stage id without '->' or '~>'",
         f"stages[{i}].id") for i in (1, 3, 4)]
