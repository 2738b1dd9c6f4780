"""Property tests of the text front end and the command line, with Hypothesis.

Any text built from token fragments, well formed or not, parses to an
``Ast`` or fails with ``ParseFailure``, and an ``Ast`` lowers to a
``Document`` or fails with ``ModelError``; nothing else escapes. The
canonical text is a fixed point: formatting, re-parsing and formatting
again gives the same text, and the re-parsed document equals the first.
The span that the ``Ast`` builds from each node's offsets gives the line
and column that counting newlines before its start gives, and so does
every diagnostic span from ``lower`` and ``validate_document``, which
covers the stage reference, chronology edge, flow, trigger or event
declaration that the diagnostic names. The tokenizer's tokens are
pieces of the text in order, typed by their words, and every other character that is neither
whitespace nor in a comment is reported as starting no token, on drawn
texts, on every bundled text and on those texts with a stray character
after every token. Where the declaration scanner alone reads a text, it
returns the AST, offsets included, that the token parser builds from the
start without errors; it declines no bundled text and no benchmark
shape, and neither it nor the token parser recurses or backtracks
without bound. Where the scanner hands declarations to the token parser
and takes them back, the result is the token parser's from the start:
the same AST or the same errors, and the text is tokenized once, from
the first declined declaration.
``tm`` under fuzzed arguments and file contents ends with exit code 0, 1
or 2 and never raises. Each line of a trace's NDJSON is what ``json.dumps``
makes of the record's JSON dict, whatever strings and integers the record
holds. The indented-JSON writer of Python 3.10-3.12 writes what
``json.dumps(value, indent=2)`` writes for any JSON value; it is called
directly, so it is checked on every Python. The settings are
derandomized and bounded so every run draws the same examples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_NAMES, FIXTURES, ReadSpy, load_shapes, scanned, token_parse
from test_golden_parse import BASES, _variants
from tmkit import dsl, render
from tmkit.cli import corpus, main
from tmkit.diagnostics import Diagnostic, ModelError, Span
from tmkit.dsl import (KEYWORDS, Ast, Document, ParseError, ParseFailure, ThimacNode, format_model,
                       lower, parse)
from tmkit.dynamics import Trace, TraceRecord
from tmkit.model import KIND_BY_NAME
from tmkit.validator import validate_document


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


# Characters that exercise every branch of the tokenizer: names, decimal
# digits, numerals that are not decimal digits ('²', '½', 'Ⅻ'), a letter
# outside ASCII, the four whitespace characters and the two that are not
# ('\f', '\v'), comments, punctuation, arrow halves and stray characters.
TOKEN_ALPHABET = (
    *"abc_XY019²½Ⅻ一 \t\r\n\f\v#{}();.->~$é", "->", "~>", *sorted(KEYWORDS), *KIND_BY_NAME,
    "# c\n", "²a", "a²",
)


def bundled_texts() -> list[str]:
    """The corpus, the fixtures and the three benchmark shapes at n = 12."""
    texts = [corpus()[name].read_text(encoding="utf-8") for name in CORPUS_NAMES]
    texts += [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]
    texts += [make(12, 1).text for make in load_shapes().GENERATORS.values()]
    return texts


def with_stray_characters(text: str) -> list[str]:
    """``text`` with a '$', a '²' or a '\\f' after every token."""
    ends = sorted({end for _, _, _, end in dsl._tokens(text, 0, [])})
    pieces = [text[a:b] for a, b in zip([0, *ends], [*ends, len(text)])]
    return [bad.join(pieces) for bad in ("$", "²", "\f")]


def assert_tokens_cover_the_text(text: str) -> None:
    """The tokens are pieces of ``text`` in order, typed by their words,
    and every character outside the tokens and the comments is either
    whitespace or reported, in order, as starting no token."""
    bad: list[int] = []
    tokens = list(dsl._tokens(text, 0, bad))
    assert tokens[-1][0] == "eof"
    covered = [False] * len(text)
    for ttype, word, start, end in tokens[:-1]:
        assert word and text[start:end] == word
        assert ttype == dsl._TYPES.get(word, "name")
        assert not any(covered[start:end])
        covered[start:end] = [True] * len(word)
    starts = [start for _, _, start, _ in tokens]
    assert all(a < b for a, b in zip(starts, starts[1:]))
    for m in re.finditer(r"#[^\n]*", text):
        assert not any(covered[m.start():m.end()])
        covered[m.start():m.end()] = [True] * len(m[0])
    assert bad == [at for at, c in enumerate(text) if not covered[at] and c not in " \t\r\n"]


@fixed(1000)
@given(st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=60).map("".join))
@example("²x ½½ a²b Ⅻ_1 一二")
@example("a\fb\vc")
@example("thimac A { process; } # ends here")
def test_tokenize_is_the_per_match_scan(text):
    assert_tokens_cover_the_text(text)


def test_tokenize_is_the_per_match_scan_on_corpus_fixtures_and_shapes():
    for text in bundled_texts():
        assert_tokens_cover_the_text(text)


def test_tokenize_is_the_per_match_scan_with_a_bad_character_after_every_token():
    """The worst case for the tokens and gaps looked at one by one."""
    for text in bundled_texts():
        for broken in with_stray_characters(text):
            assert_tokens_cover_the_text(broken)


def layouts(text: str) -> list[str]:
    """The text and four layouts of it: CRLF line ends; whitespace or a
    comment after each ';', '{' and '}'; spaces around '(', ')', '->' and
    '~>'; spaces around '.'."""
    fillers = itertools.cycle(("\t", " # c\n", "\n  "))
    return [
        text,
        text.replace("\n", "\r\n"),
        re.sub(r"[;{}]", lambda m: m[0] + next(fillers), text),
        re.sub(r"[()]|->|~>", r" \g<0> ", text),
        text.replace(".", " . "),
    ]


# Well-formed but for one thing that the scanner must not read past: a
# keyword or kind where a name belongs, '\f' or '\v' between tokens.
MISPLACED = (
    "thimac flow { create; }",
    "thimac A { thimac event { create; } }",
    "thimac A { create(behavior); }",
    "thimac A { create(process); }",
    "thimac A { create; }\fthimac B { create; }",
    "thimac A {\vcreate; }",
    "thimac A { create; }\nflow A.thimac.create -> A.create;",
    "thimac A { create; }\nflow A.create.process -> A.create;",
    "thimac A { create; }\ntrigger A.create(repeat) ~> A.create;",
    "thimac A { create; }\nevent trigger { A.create; }",
    "behavior { E1 -> repeat; }",
    "behavior { flow -> E1; }",
)


def assert_scan_is_the_token_parse(text: str) -> None:
    """``parse``, the scanner resuming after each declaration that the
    token parser reads, gives what the token parser gives from the start:
    the same AST, offsets included, or the same errors. Where the scanner
    alone reads ``text``, the token parser thus finds no error in it."""
    parsed, errors = token_parse(text)
    try:
        ast = parse(text)
    except ParseFailure as exc:
        assert exc.errors == tuple(errors)
    else:
        assert errors == [] and repr(ast) == repr(parsed)


@pytest.mark.parametrize("base", BASES)
def test_scan_is_the_token_parse_on_golden_inputs_and_their_layouts(base):
    for text in _variants(base).values():
        for layout in layouts(text):
            assert_scan_is_the_token_parse(layout)


def test_scan_declines_a_misplaced_keyword_or_whitespace():
    for text in MISPLACED:
        assert token_parse(text)[1], text
        assert scanned(text) is None, text


def test_scan_reads_every_bundled_text_and_shape():
    """Without this, a scanner that declined everything would pass every
    other test through the token parser."""
    texts = [corpus()[name].read_text(encoding="utf-8") for name in CORPUS_NAMES]
    texts += [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]
    texts += [make(n, 1).text for make in load_shapes().GENERATORS.values() for n in (3, 12, 40)]
    for text in texts:
        try:
            doc = lower(parse(text))
        except ModelError:
            formatted = []
        else:
            formatted = [format_model(doc.model, doc.events, doc.behavior)]
        for each in (text, *formatted):
            assert scanned(each) is not None
            assert_scan_is_the_token_parse(each)


def preorder(ast: Ast) -> list:
    """Each node of the AST, a thimac as its name, body length and offsets,
    read without recursion, so that ASTs nested thousands deep compare."""
    nodes, pending = [], list(reversed(ast.declarations))
    while pending:
        node = pending.pop()
        if isinstance(node, ThimacNode):
            nodes.append((node.name, len(node.body), node.start, node.end))
            pending.extend(reversed(node.body))
        else:
            nodes.append(repr(node))
    return nodes


def without_last_semicolon(text: str) -> str:
    last = text.rindex(";")
    return text[:last] + text[last + 1:]


def without_first_semicolon(text: str) -> str:
    first = text.index(";")
    return text[:first] + text[first + 1:]


def test_scan_and_fallback_neither_recurse_nor_blow_up():
    """A 20,000-name stage path and thimacs nested 20,000 deep are
    scanned and read by the token parser alike; the authoring shape
    without its last ';' is scanned up to its chronology, which the token
    parser reads."""
    n = 20_000
    path = "thimac A { create; }\nflow " + ".".join(["A"] * n) + ".create -> A.create;\n"
    nested = "".join(f"thimac T{i} {{ " for i in range(n)) + "create; " + "} " * n
    for text in (path, nested):
        ast = scanned(text)
        assert ast is not None
        assert preorder(ast) == preorder(token_parse(text)[0])
    text = without_last_semicolon(load_shapes().authoring(200, 0).text)
    assert scanned(text) is None
    _, errors = token_parse(text)
    with pytest.raises(ParseFailure) as exc:
        parse(text)
    assert exc.value.errors == tuple(errors) and len(errors) == 1


def spliced(text: str) -> list[str]:
    """``text`` with its middle declaration broken in each of three ways,
    so that the scanner reads the declarations before it, declines it, and
    takes back the ones after it from the token parser: spaces around
    each '.', one ';' dropped, a '\f' after its first word."""
    starts = [m.start() for m in re.finditer(r"^(?:thimac|flow|trigger|event|behavior)\b",
                                             text, re.MULTILINE)] + [len(text)]
    at, end = starts[len(starts) // 2 - 1], starts[len(starts) // 2]
    semicolon, word = text.index(";", at), text.index(" ", at)
    broken = [
        text[:at] + text[at:end].replace(".", " . ") + text[end:],
        text[:semicolon] + text[semicolon + 1:],
        text[:word] + "\f" + text[word:],
    ]
    return [each for each in broken if each != text]


def test_parse_is_the_token_parse_on_stray_characters_and_spliced_texts():
    for text in bundled_texts():
        for each in spliced(text):
            assert scanned(each) is None
            assert_scan_is_the_token_parse(each)
        for broken in with_stray_characters(text):
            assert_scan_is_the_token_parse(broken)


def test_parse_tokenizes_once_from_the_first_declined_declaration(monkeypatch):
    """One missing ';' at the end of a large model costs the scanner plus
    the tokens of the chronology, not a second parse of the whole text."""
    text = without_last_semicolon(load_shapes().authoring(200, 0).text)
    spy = ReadSpy(monkeypatch)
    spy.failures(text)
    at = text.rindex("behavior")
    assert [start for start, _ in spy.streams] == [at]
    assert spy.streams[0][1] == list(dsl._tokens(text, at, []))


def test_parse_reads_a_declined_run_once_and_the_rest_with_the_scanner(monkeypatch):
    """One missing ';' at the start of a large model costs the tokens of
    the declarations the scanner declines, one token ahead, not a
    tokenization of the rest of the text: each token stream starts where
    the scanner declined, no token is yielded twice, and the streams yield
    as many tokens at n = 200 as at n = 400."""
    texts = {n: without_first_semicolon(load_shapes().authoring(n, 0).text) for n in (200, 400)}
    spy, read = ReadSpy(monkeypatch), {}
    for n, text in texts.items():
        assert [str(e) for e in spy.failures(text)] == [
            "2:17: expected ';', found 'process'",
            "2:31: expected a declaration, found 'release'",
            "2:45: expected a declaration, found 'transfer'",
            "9:1: expected a declaration, found '}'",
        ]
        assert spy.streams and all(start in spy.declined for start, _ in spy.streams)
        starts = [token[2] for _, tokens in spy.streams for token in tokens]
        assert len(starts) == len(set(starts))
        read[n] = len(starts)
    assert read[200] == read[400]


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


@fixed(300)
@given(st.one_of(fragment_texts, documents()))
def test_scan_is_the_token_parse_on_drawn_texts(text):
    assert_scan_is_the_token_parse(text)


def spanned_nodes(ast: Ast):
    """Every AST node; each carries the offsets of its text."""
    pending = list(ast.declarations)
    while pending:
        node = pending.pop()
        if isinstance(node, tuple):
            pending.extend(node)
        elif dataclasses.is_dataclass(node):
            yield node
            pending.extend(getattr(node, f.name) for f in dataclasses.fields(node))


def assert_counts_newlines(text: str, span: Span) -> None:
    assert span.line == text.count("\n", 0, span.start) + 1
    assert span.column == span.start - text.rfind("\n", 0, span.start)


def assert_spans_count_newlines(text: str) -> None:
    ast = parse(text)
    for node in spanned_nodes(ast):
        span = ast.span(node.start, node.end)
        assert 0 <= span.start < span.end <= len(text)
        assert_counts_newlines(text, span)


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


def spanned_diagnostics(text: str) -> list[Diagnostic]:
    """The diagnostics with a span that ``lower`` gives for ``text``, or,
    if it lowers, that ``validate_document`` gives; none if it does not parse."""
    try:
        doc = lower(parse(text))
    except ParseFailure:
        return []
    except ModelError as exc:
        diags = exc.diagnostics
    else:
        diags = validate_document(doc.model, doc.events, doc.behavior)[0].diagnostics
    return [diag for diag in diags if diag.span is not None]


_BLANK = re.compile(r"[ \t\r\n]+")
_CHRONOLOGY_EDGE = re.compile(r"(\w+)->(\w+)(?: repeat)?;")


def spanned_construct(text: str, diag: Diagnostic) -> str:
    """What the span of ``diag`` holds, checked against the construct the
    diagnostic names: a stage reference, a chronology edge, a flow or
    trigger, or an event declaration."""
    span = diag.span
    assert 0 <= span.start < span.end <= len(text)
    assert_counts_newlines(text, span)
    written = text[span.start:span.end]
    words = _BLANK.sub(" ", re.sub(r"#[^\n]*", "", written)).strip()
    if diag.message.startswith("unknown stage reference"):
        assert words.replace(" ", "") == diag.element
        return "stage reference"
    if diag.message.startswith("chronology names"):
        edge = _CHRONOLOGY_EDGE.fullmatch(re.sub(r" ?(->|;) ?", r"\1", words))
        assert edge is not None and diag.element in edge.group(1, 2), words
        return "chronology edge"
    if diag.message.startswith("edge "):
        assert written.startswith(diag.element.split(":")[0]), written
        return "edge"
    name = re.match(r"event (\w+) \{", words)
    assert name is not None and diag.message.startswith(f"event '{name[1]}'"), written
    return "event"


# Repeated flows and triggers, an event declared twice, an event naming a
# stage twice and an event over two unconnected stages.
SPANNED = (
    "thimac A { create; process; }\nflow A.create -> A.process;\nflow A.create -> A.process;\n",
    "thimac A { create; release; }\nthimac B { create; }\n"
    "trigger A.release ~> B.create;\ntrigger A.release ~> B.create;\n",
    "thimac A { create; process; }\nevent E { A.create; }\nevent E { A.process; }\n",
    "thimac A { create(job); }\nevent E { A.create(job); A.create(job); }\n",
    "thimac A { create; }\nthimac B { create; }\nevent E { A.create; B.create; }\n",
)


def test_diagnostic_spans_hold_the_construct_they_name():
    """The golden front end's inputs, and the fixture files and the texts
    above in every layout, the spaced one read by the token parser: each
    spanned diagnostic is placed at the newlines counted before its start
    and covers the construct it names; every kind of construct occurs."""
    texts = [text for base in BASES for text in _variants(base).values()]
    fixtures = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]
    texts += [layout for text in (*fixtures, *SPANNED) for layout in layouts(text)]
    kinds = [spanned_construct(text, diag) for text in texts for diag in spanned_diagnostics(text)]
    assert set(kinds) == {"stage reference", "chronology edge", "edge", "event"}


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


# Every JSON value: the texts and integers above, booleans (which must not
# print as 1 and 0), None, floats with NaN, the infinities and -0.0, and
# lists, tuples and string-keyed dicts, empty or nested.
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), integers, st.floats(), texts),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=24,
)


@fixed(400)
@given(json_values)
@example([True, False, 1, 0, None])
@example({"": {}, "a": [], "b": (), "c": [[{}]], "d": {"e": {"f": ()}}})
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
@example({"\ud800 \"\\\x00\u2028\U0001f600": "\udfff\x1f\x7f\u00e9"})
def test_indented_writer_is_json_dumps_indent_2(value):
    assert render._indented(value) == json.dumps(value, indent=2)


def test_indented_writer_rejects_what_json_dumps_rejects():
    for value in ({1, 2}, {"a": [frozenset()]}, b"bytes", object()):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            render._indented(value)


def test_indented_writer_leaves_no_cyclic_garbage():
    """tm pauses the cyclic collector, so garbage in a cycle would hold
    every piece of the output until the command ends."""
    gc.collect()
    gc.disable()
    try:
        render._indented({"a": [1, {"b": ("c", None)}], "d": {}})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tm_indents_through_the_stdlib_from_python_3_13(monkeypatch, capsys):
    expected = render._stdlib_indented if sys.version_info >= (3, 13) else render._indented
    assert render.indented_json is expected
    written = []
    monkeypatch.setattr(render, "indented_json", lambda value: written.append(value) or "{}")
    path = str(corpus()["dough_cookie"])
    for command in (["validate"], ["events"], ["simplify"], ["render", "--format", "json"]):
        assert main([*command, path]) == 0
    assert capsys.readouterr().out == "{}\n" * 4 and len(written) == 4
