"""Property tests of the text front end and the command line, with Hypothesis.

Any text built from token fragments, well formed or not, parses to an
``Ast`` or fails with ``ParseFailure``, and an ``Ast`` lowers to a
``Document`` or fails with ``ModelError``; nothing else escapes. The
canonical text is a fixed point: formatting, re-parsing and formatting
again gives the same text, and the re-parsed document equals the first.
Every AST span gives the line and column that counting newlines before
its start gives.
``tm`` under fuzzed arguments and file contents ends with exit code 0, 1
or 2 and never raises. Each line of a trace's NDJSON is what ``json.dumps``
makes of the record's JSON dict, whatever strings and integers the record
holds. The settings are derandomized and bounded so
every run draws the same examples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_NAMES, load_shapes
from tmkit.cli import corpus, main
from tmkit.diagnostics import ModelError, Span
from tmkit.dsl import KEYWORDS, Ast, Document, ParseFailure, format_model, lower, parse
from tmkit.dynamics import Trace, TraceRecord
from tmkit.model import KIND_BY_NAME


def fixed(examples: int) -> settings:
    return settings(derandomize=True, max_examples=examples, deadline=None, database=None)


FRAGMENTS = (
    *sorted(KEYWORDS), *KIND_BY_NAME, "A", "b", "x1", "_", "{", "}", "(", ")", ";",
    ".", "->", "~>", "-", "~", ">", "#", "# note\n", "\t", "\r", "é", "²", "½", "9", "@",
)
SEPARATORS = ("", " ", "\n", "\r\n", "\t", " # c\n")

fragment_texts = st.lists(
    st.tuples(st.sampled_from(FRAGMENTS), st.sampled_from(SEPARATORS)), max_size=80,
).map(lambda pieces: "".join(fragment + sep for fragment, sep in pieces))


@fixed(300)
@given(fragment_texts)
def test_fragment_text_parses_or_fails_cleanly(text):
    try:
        ast = parse(text)
    except ParseFailure as exc:
        assert exc.errors
        return
    assert isinstance(ast, Ast)
    try:
        assert isinstance(lower(ast), Document)
    except ModelError as exc:
        assert exc.diagnostics


stages = st.lists(
    st.tuples(st.sampled_from(sorted(KIND_BY_NAME)), st.sampled_from((None, "x", "y"))),
    unique=True, max_size=4,
)
trees = st.recursive(
    st.tuples(stages, st.just([])),
    lambda children: st.tuples(stages, st.lists(children, max_size=3)),
    max_leaves=8,
)


@st.composite
def documents(draw) -> str:
    """Model text with unique thimac names, stage slots and edges, so that
    it always lowers; layout and comments vary."""
    sep = draw(st.sampled_from(SEPARATORS[1:]))
    lines: list[str] = []
    refs: list[str] = []
    pending = [(tree, f"T{i}", 0) for i, tree in
               reversed(list(enumerate(draw(st.lists(trees, min_size=1, max_size=3)))))]
    closes: list[int] = []
    while pending:
        (body, children), path, depth = pending.pop()
        while closes and closes[-1] >= depth:
            lines.append("}")
            closes.pop()
        lines.append(f"thimac {path.rsplit('.', 1)[-1]} {{")
        for kind, label in body:
            lines.append(f"{kind}({label});" if label else f"{kind};")
            refs.append(f"{path}.{kind}({label})" if label else f"{path}.{kind}")
        closes.append(depth)
        pending.extend((child, f"{path}.C{i}", depth + 1)
                       for i, child in reversed(list(enumerate(children))))
    lines.extend("}" for _ in closes)
    if refs:
        pairs = st.lists(st.tuples(st.sampled_from(refs), st.sampled_from(refs)),
                         unique=True, max_size=5)
        lines.extend(f"flow {a} -> {b};" for a, b in draw(pairs))
        lines.extend(f"trigger {a} ~> {b};" for a, b in draw(pairs))
        regions = draw(st.lists(st.lists(st.sampled_from(refs), min_size=1, max_size=3),
                                max_size=3))
        for i, region in enumerate(regions):
            lines.append(f"event E{i} {{ {' '.join(ref + ';' for ref in region)} }}")
        if regions:
            names = st.sampled_from([f"E{i}" for i in range(len(regions))])
            edges = draw(st.lists(st.tuples(names, names, st.booleans()), max_size=4))
            lines.append("behavior {")
            lines.extend(f"{a} -> {b}{' repeat' if repeat else ''};" for a, b, repeat in edges)
            lines.append("}")
    return sep.join(lines) + "\n"


@fixed(100)
@given(documents())
def test_format_parse_format_is_stable(text):
    doc = lower(parse(text))
    first = format_model(doc.model, doc.events, doc.behavior)
    again = lower(parse(first))
    assert format_model(again.model, again.events, again.behavior) == first
    assert (again.model, again.events, again.behavior) == (doc.model, doc.events, doc.behavior)


def spanned_nodes(ast: Ast):
    """Every AST node that carries a span."""
    pending = list(ast.declarations)
    while pending:
        node = pending.pop()
        if isinstance(node, tuple):
            pending.extend(node)
        elif dataclasses.is_dataclass(node) and not isinstance(node, Span):
            yield node
            pending.extend(getattr(node, f.name) for f in dataclasses.fields(node))


def assert_spans_count_newlines(text: str) -> None:
    for node in spanned_nodes(parse(text)):
        span = node.span
        assert 0 <= span.start < span.end <= len(text)
        assert span.line == text.count("\n", 0, span.start) + 1
        assert span.column == span.start - text.rfind("\n", 0, span.start)


@fixed(300)
@given(st.one_of(fragment_texts, documents()))
def test_spans_agree_with_counted_newlines(text):
    try:
        assert_spans_count_newlines(text)
    except ParseFailure:
        pass


def test_spans_agree_with_counted_newlines_on_corpus_and_shapes():
    texts = [corpus()[name].read_text(encoding="utf-8") for name in CORPUS_NAMES]
    texts += [make(12, seed).text for make in load_shapes().GENERATORS.values() for seed in (0, 1)]
    for text in texts:
        assert_spans_count_newlines(text)


COMMANDS = (
    ("validate",), ("events",), ("simulate",), ("simplify",),
    ("render", "--format", "dot"), ("render", "--format", "json"), ("fmt",),
)
# Small enough that a model looping to the step bound stays cheap.
NUMBERS = ("0", "1", "2", "7", "-1", "+3", "007", "1_0", "\u0663", "1.5", "1e3", "0x10", "", "x")
OUTPUTS = ("{tmp}/out.txt", "{tmp}/missing/out.txt", "{tmp}", "")
flags = st.one_of(
    st.tuples(st.sampled_from(("--steps", "--cap")), st.sampled_from(NUMBERS)),
    st.tuples(st.just("--seed"), st.sampled_from((*NUMBERS, "99999999999999999999"))),
    st.tuples(st.just("--policy"), st.sampled_from(("fifo", "random", "lifo", ""))),
    st.tuples(st.just("--format"), st.sampled_from(("dot", "json", "svg"))),
    st.tuples(st.just("--output"), st.sampled_from(OUTPUTS)),
    st.tuples(st.sampled_from(("--overlay", "--flat", "--help", "--bogus", "extra", "--"))),
)


@fixed(150)
@given(
    command=st.sampled_from(COMMANDS),
    options=st.lists(flags, max_size=2),
    text=st.one_of(fragment_texts, documents(), documents()),  # most get past the parser
    source=st.sampled_from(("file",) * 5 + ("bad utf-8", "missing", "directory")),
)
def test_cli_ends_with_an_exit_code_on_fuzzed_input(command, options, text, source):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tm"
        if source != "missing":
            path.write_bytes(text.encode() + (b"\xff" if source == "bad utf-8" else b""))
        argv = [*command, tmp if source == "directory" else str(path)]
        argv += [part.format(tmp=tmp) for option in options for part in option]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)


# Characters json.dumps escapes (quote, backslash, controls, a lone
# surrogate) or writes as \u escapes (non-ASCII, astral), mixed into
# arbitrary text.
texts = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\u2028\ud800\udfff\ufeffé\U0001f600'),
    st.characters(),
))
integers = st.one_of(st.integers(), st.integers(min_value=2**63), st.integers(max_value=-2**63))
records = st.builds(TraceRecord, integers, texts, texts, st.lists(integers, max_size=3).map(tuple))


@fixed(100)
@given(st.lists(records, max_size=8), st.booleans())
@example([], False)
@example([], True)
def test_ndjson_lines_are_json_dumps_of_each_record(records, truncated):
    expected = [json.dumps(r.to_json_dict()) for r in records]
    expected.append(json.dumps({"kind": "run-ended", "truncated": truncated, "records": len(records)}))
    assert Trace(tuple(records), truncated).to_ndjson() == "\n".join(expected) + "\n"
