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
start without errors; it reads every text that the token parser reads
without errors, names written with characters outside ASCII included,
and neither it nor the token parser recurses or backtracks without
bound. Where the scanner hands declarations to the token parser
and takes them back, the result is the token parser's from the start:
the same AST or the same errors, and the text is tokenized once, from
the first declined declaration, in streams that start where the scanner
declined. ``load`` of a file gives what ``lower(parse(text))`` gives of
the text it reads: the same document and event spans, or the same parse
errors or diagnostics in order, also where declarations name what is
declared after them; it builds no AST node, whether the scanner reads
the whole text or declines some of it.
``tm`` under fuzzed arguments and file contents ends with exit code 0, 1
or 2 and never raises. Each line of a trace's NDJSON is what ``json.dumps``
makes of the record's JSON dict, whatever strings and integers the record
holds. Each JSON document writer writes what ``json.dumps(payload,
indent=2)`` writes of the payload that the dict builders make, on drawn
models and on models whose every string is drawn text, parse errors
included, and a value dumped apart and nested by re-indenting is the
value dumped in place. ``simplify`` builds the model that
``build_model`` builds from the same parts.
The settings are derandomized and bounded so every run draws the same
examples.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (CORPUS_NAMES, FIXTURES, ReadSpy, arbitrary_model, load_shapes, load_text, random_model,
                      scanned, token_parse)
from test_golden_parse import BASES, _variants
from tmkit import dsl, render
from tmkit.cli import corpus, main
from tmkit.diagnostics import Diagnostic, ModelError, Span, ValidationReport
from tmkit.dsl import (KEYWORDS, Ast, Document, ParseError, ParseFailure, ThimacNode, format_model,
                       lower, parse)
from tmkit.dynamics import Trace, TraceRecord
from tmkit.model import KIND_BY_NAME, BehaviorEdge, BehaviorGraph, build_model, model_to_dict
from tmkit.transform import simplify
from tmkit.validator import elementary_events, validate_document


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


def written_texts() -> list[str]:
    """The corpus and the fixtures."""
    texts = [corpus()[name].read_text(encoding="utf-8") for name in CORPUS_NAMES]
    return texts + [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tm"))]


def bundled_texts() -> list[str]:
    """The corpus, the fixtures and the three benchmark shapes at n = 12."""
    return written_texts() + [make(12, 1).text for make in load_shapes().GENERATORS.values()]


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
    takes back the ones after it from the token parser: a '²' leading its
    first name, one ';' dropped, a '\f' after its first word."""
    starts = [m.start() for m in re.finditer(r"^(?:thimac|flow|trigger|event|behavior)\b",
                                             text, re.MULTILINE)] + [len(text)]
    at = starts[len(starts) // 2 - 1]
    semicolon, word = text.index(";", at), text.index(" ", at)
    name = re.compile(r"\w").search(text, word).start()
    broken = [
        text[:name] + "²" + text[name:],
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


# Each reader of a text: ``parse``, and ``load`` of a file that holds it.
READERS = (parse, load_text)


def test_parse_tokenizes_once_from_the_first_declined_declaration(monkeypatch):
    """One missing ';' at the end of a large model costs the scanner plus
    the tokens of the chronology, not a second parse of the whole text,
    whether it is parsed or loaded."""
    text = without_last_semicolon(load_shapes().authoring(200, 0).text)
    spy = ReadSpy(monkeypatch)
    at = text.rindex("behavior")
    for read in READERS:
        spy.failures(text, read)
        assert spy.declined == [at]
        assert [start for start, _ in spy.streams] == [at]
        assert spy.streams[0][1] == list(dsl._tokens(text, at, []))


def test_parse_reads_a_declined_run_once_and_the_rest_with_the_scanner(monkeypatch):
    """One missing ';' at the start of a large model costs the tokens of
    the declarations the scanner declines, one token ahead, not a
    tokenization of the rest of the text: each token stream starts where
    the scanner declined, no token is yielded twice, and the streams yield
    as many tokens at n = 200 as at n = 400, whether it is parsed or
    loaded; the scanner declines no offset twice."""
    texts = {n: without_first_semicolon(load_shapes().authoring(n, 0).text) for n in (200, 400)}
    spy = ReadSpy(monkeypatch)
    for read in READERS:
        tokens_read = {}
        for n, text in texts.items():
            assert [str(e) for e in spy.failures(text, read)] == [
                "2:17: expected ';', found 'process'",
                "2:31: expected a declaration, found 'release'",
                "2:45: expected a declaration, found 'transfer'",
                "9:1: expected a declaration, found '}'",
            ]
            assert spy.streams and all(start in spy.declined for start, _ in spy.streams)
            assert len(spy.declined) == len(set(spy.declined))
            starts = [token[2] for _, tokens in spy.streams for token in tokens]
            assert len(starts) == len(set(starts))
            tokens_read[n] = len(starts)
        assert tokens_read[200] == tokens_read[400]


def test_token_streams_start_where_the_scanner_declined_on_spliced_texts(monkeypatch):
    """Each token stream of a bundled text with its middle declaration
    broken starts at an offset where the scanner declined, and no token
    is yielded twice and no offset declined twice, whether the text is
    parsed or loaded."""
    spy = ReadSpy(monkeypatch)
    for read in READERS:
        for text in bundled_texts():
            for each in spliced(text):
                spy.failures(each, read)
                assert spy.streams and all(start in spy.declined for start, _ in spy.streams)
                assert len(spy.declined) == len(set(spy.declined))
                starts = [token[2] for _, tokens in spy.streams for token in tokens]
                assert len(starts) == len(set(starts))


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


def assert_scan_reads_what_the_token_parser_reads(text: str) -> None:
    """Where the token parser reads ``text`` from the start without an
    error, the scanner alone reads it: the converse of
    :func:`assert_scan_is_the_token_parse`, so that the token parser reads
    only declarations that hold an error."""
    if not token_parse(text)[1]:
        assert scanned(text) is not None


@pytest.mark.parametrize("base", BASES)
def test_scan_reads_what_the_token_parser_reads_on_golden_inputs_and_their_layouts(base):
    for text in _variants(base).values():
        for layout in layouts(text):
            assert_scan_reads_what_the_token_parser_reads(layout)


@fixed(1000)
@given(st.one_of(fragment_texts, documents()))
def test_scan_reads_what_the_token_parser_reads_on_drawn_texts_and_their_layouts(text):
    for layout in layouts(text):
        assert_scan_reads_what_the_token_parser_reads(layout)


# Characters outside ASCII for names: letters ('é', '一', 'ª'), numerals
# that are not decimal digits ('²', '½', 'Ⅻ'), a decimal digit ('٣') and a
# combining mark. Only a letter may lead a name, and only a word
# character may follow its first.
NAME_CHARACTERS = ("é", "一", "ª", "²", "½", "Ⅻ", "٣", "\u0301")
_ASCII_NAME = re.compile(r"[A-Za-z_]\w*")
renamable = st.one_of(st.deferred(lambda: st.sampled_from(written_texts())), documents())


@st.composite
def renamed_texts(draw) -> str:
    """A corpus, fixture or drawn text in which some of the names are renamed
    alike, each with one of ``NAME_CHARACTERS`` at its start or after its
    first character."""
    text = draw(renamable)
    words = set(_ASCII_NAME.findall(dsl._COMMENT.sub("", text))) - KEYWORDS - set(KIND_BY_NAME)
    names = draw(st.sets(st.sampled_from(sorted(words)), min_size=1))
    character, at = draw(st.sampled_from(NAME_CHARACTERS)), draw(st.sampled_from((0, 1)))
    return _ASCII_NAME.sub(
        lambda m: m[0][:at] + character + m[0][at:] if m[0] in names else m[0], text)


@fixed(400)
@given(renamed_texts())
def test_scan_is_the_token_parse_on_names_outside_ascii(text):
    for layout in layouts(text):
        assert_scan_is_the_token_parse(layout)
        assert_scan_reads_what_the_token_parser_reads(layout)


def test_scan_reads_a_name_with_a_numeral_inside():
    """A numeral outside ASCII after a name's first character turns
    nothing off: the renamed benchmark shape is scanned whole."""
    text = re.sub(r"\bG0\b", "G0²", load_shapes().authoring(200, 1).text)
    assert "G0²." in text
    ast = scanned(text)
    assert ast is not None and preorder(ast) == preorder(token_parse(text)[0])


def test_parse_tokenizes_only_the_declaration_whose_name_a_numeral_leads(monkeypatch):
    text = load_shapes().authoring(200, 1).text
    at = text.index("thimac G7 {")
    text = text[:at] + "thimac ²" + text[at + len("thimac "):]
    spy = ReadSpy(monkeypatch)
    (error,) = spy.failures(text)
    assert (error.expected, error.found) == (("a declaration",), "'²'")
    assert [start for start, _ in spy.streams] == [at]


def loaded(call) -> tuple:
    """What ``call`` gives: the document with every event's span, or the
    class of what it raised with the parse errors or the diagnostics, in
    order."""
    try:
        doc = call()
    except ParseFailure as exc:
        return ParseFailure, exc.errors
    except ModelError as exc:
        return ModelError, exc.diagnostics
    return doc, [event.span for event in doc.events]


def assert_load_is_lower_of_parse(text: str) -> None:
    """``load`` of a file holding ``text`` gives what ``lower(parse(...))``
    gives of the text it reads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tm"
        path.write_text(text, encoding="utf-8")
        read = path.read_text(encoding="utf-8-sig")
        assert loaded(lambda: dsl.load(path)) == loaded(lambda: lower(parse(read)))


# Each thing that load resolves or refuses, with its declarations out of
# order: edges, events and a chronology before the thimacs they name;
# whitespace and comments inside references; an unresolved reference and
# a repeated edge; a chronology naming an undeclared event; duplicate
# sibling thimacs; a parse error after good declarations; a word led by
# a numeral outside ASCII.
LOAD_CASES = (
    "flow A.create -> A.process;\nevent E { A.process; }\nbehavior { E -> E repeat; }\n"
    "trigger A.process ~> A.create;\nthimac A { create; process; }\n",
    "thimac A { thimac b { create(x); process(x); } }\n"
    "flow A . b . create ( x ) -> A # c\n . b\t.process(  x  );\nevent E { A . b . process ( x ) ; }\n",
    "thimac A { create; process; }\nflow A.create -> A.nope;\nflow A.create -> A.process;\n"
    "event E { Nope.create; A.create; }\nflow A.create -> A.process;\ntrigger A.process ~> Z.create;\n",
    "behavior { E -> F; G -> E repeat; }\nthimac A { create; }\nevent E { A.create; }\n",
    "thimac A { create; }\nthimac A { process; }\nthimac B { thimac C { } thimac C { create; } }\n",
    "thimac A { create; process; }\nflow A.create -> A.process;\nevent E { A.create; }\nflow -> ;\n",
    "thimac ²x { create; }\nthimac A { create; }\nflow A.create -> ²x.create;\n",
)
EXTRA_DECLARATIONS = (
    "flow T0.nope -> T0.create;", "event Lost { Nope.process; }", "behavior { E0 -> Missing; }",
    "thimac T0 { process; }", "thimac ²x { create; }", "flow ->;", "event E0 { }",
)


@st.composite
def reordered_texts(draw) -> str:
    """The declarations of a drawn document in any order, with some of
    :data:`EXTRA_DECLARATIONS` and repeated edges among them, and maybe
    spaces and comments inside every reference."""
    doc = lower(parse(draw(documents())))
    decls = [decl for section in format_model(doc.model, doc.events, doc.behavior).split("\n\n")
             for decl in (section.splitlines() if section.startswith(("flow", "trigger")) else [section])]
    edges = [decl for decl in decls if decl.startswith(("flow", "trigger"))]
    decls += draw(st.lists(st.sampled_from(edges), max_size=2)) if edges else []
    decls += draw(st.lists(st.sampled_from(EXTRA_DECLARATIONS), max_size=2))
    text = "\n".join(draw(st.permutations(decls))) + "\n"
    if draw(st.booleans()):
        text = re.sub(r"[.()]", lambda m: f" # c\n {m[0]} " if m[0] == "." else f" {m[0]} ", text)
    return text


def test_load_is_lower_of_parse_on_bundled_and_golden_texts():
    texts = [text for base in BASES for text in _variants(base).values()] + written_texts()
    texts += [make(n, seed).text for make, n in zip(load_shapes().GENERATORS.values(), (40, 40, 35))
              for seed in (0, 1)]
    texts += [layout for text in LOAD_CASES for layout in layouts(text)]
    for text in texts:
        assert_load_is_lower_of_parse(text)


@fixed(300)
@given(st.one_of(reordered_texts(), fragment_texts, documents()))
def test_load_is_lower_of_parse_on_drawn_texts(text):
    assert_load_is_lower_of_parse(text)


def test_a_clean_load_builds_no_ast(tmp_path):
    """Where the scanner reads the whole text, ``load`` neither parses nor
    lowers an AST, and builds no AST node."""
    def refuse(*args):
        raise AssertionError("an AST was built")

    names = ("parse", "lower", "_Parser", "_AstBuilder", "StageRef", "StageNode", "ThimacNode",
             "FlowNode", "TriggerNode", "EventNode", "BehaviorEdgeNode", "BehaviorNode")
    texts = written_texts() + [make(n, 1).text for make, n in
                               zip(load_shapes().GENERATORS.values(), (40, 40, 35))]
    texts += [LOAD_CASES[0], LOAD_CASES[1]]
    path = tmp_path / "model.tm"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        expected = loaded(lambda: lower(parse(text)))
        with contextlib.ExitStack() as patches:
            for name in names:
                patches.enter_context(mock.patch.object(dsl, name, refuse))
            assert loaded(lambda: dsl.load(path)) == expected


def test_a_declined_load_builds_no_ast():
    """Where the scanner declines a declaration, ``load`` hands it to the
    token parser, which reports to the lowering: it neither parses nor
    lowers an AST, builds no AST node, and raises the ``ParseFailure``
    that ``lower(parse(text))`` raises."""
    def refuse(*args):
        raise AssertionError("an AST was built")

    names = ("parse", "lower", "_AstBuilder", "StageRef", "StageNode", "ThimacNode",
             "FlowNode", "TriggerNode", "EventNode", "BehaviorEdgeNode", "BehaviorNode")
    texts = [each for text in bundled_texts() for each in spliced(text)]
    failing = [text for text in LOAD_CASES if loaded(lambda: lower(parse(text)))[0] is ParseFailure]
    assert len(failing) == 3
    for text in texts + failing:
        expected = loaded(lambda: lower(parse(text)))
        assert expected[0] is ParseFailure
        with contextlib.ExitStack() as patches:
            for name in names:
                patches.enter_context(mock.patch.object(dsl, name, refuse))
            assert loaded(lambda: load_text(text)) == expected


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
    above in every layout: each spanned diagnostic is placed at the
    newlines counted before its start and covers the construct it names;
    every kind of construct occurs."""
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


def under_keys(text: str, depth: int) -> str:
    """``text`` as the value of ``depth`` nested one-key objects, written
    as ``json.dumps(indent=2)`` writes the keys and braces around it."""
    for level in reversed(range(depth)):
        pad = "  " * level
        text = "{\n" + pad + '  "k": ' + text + "\n" + pad + "}"
    return text


def written(value: list | dict, pad: str) -> str:
    """A list or object as the writers write one at ``pad``: each item
    dumped apart and nested by re-indenting its newlines, joined by
    ``render._list``."""
    def nested(item) -> str:
        return json.dumps(item, indent=2).replace("\n", "\n" + pad + "  ")

    if isinstance(value, dict):
        return render._list([f"{json.dumps(key)}: {nested(item)}" for key, item in value.items()], pad, "{}")
    return render._list([nested(item) for item in value], pad)


@fixed(200)
@given(st.one_of(st.lists(json_values, max_size=4), st.dictionaries(texts, json_values, max_size=4)),
       st.integers(0, 4))
@example([True, False, 1, 0, None], 1)
@example({"": {}, "a": [], "b": (), "c": [[{}]], "d": {"e": {"f": ()}}}, 3)
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324], 2)
@example({"\ud800 \"\\\x00\u2028\U0001f600": "\udfff\x1f\x7f\u00e9\n"}, 4)
@example([], 0)
@example({}, 2)
def test_indented_writer_is_json_dumps_indent_2(value, depth):
    """Nesting ``json.dumps(item, indent=2)`` under a key or in a list at
    any depth is exact when its newlines are re-indented, because an
    indented dump has a newline only between tokens; ``render._list`` puts
    the brackets and separators where ``json.dumps`` puts them."""
    nested = value
    for _ in range(depth):
        nested = {"k": nested}
    assert under_keys(written(value, "  " * depth), depth) == json.dumps(nested, indent=2)


def dumped(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def assert_writers_are_json_dumps(model, events, behavior, diagnostics, parse_errors=()) -> None:
    """Each document writer against ``json.dumps`` of the payload that the
    dict builders, the writers' oracle, make of the same records."""
    events = list(events)
    assert render.to_json(model, events, behavior) == dumped({
        **model_to_dict(model),
        "events": [e.to_json_dict() for e in events],
        "behavior": behavior.to_json_list() if behavior is not None else [],
    })
    assert render.events_json(events, events[::-1]) == dumped({
        "elementary": [e.to_json_dict() for e in events],
        "declared": [e.to_json_dict() for e in events[::-1]],
    })
    simplified, report = simplify(model)
    assert render.simplified_json(simplified, report) == dumped(
        {"model": model_to_dict(simplified), "report": report.to_json_dict()})
    report = ValidationReport(tuple(diagnostics))
    assert render.report_json(report) == dumped(report.to_json_dict())
    assert render.parse_errors_json(parse_errors) == dumped(
        {"ok": False, "parse_errors": [e.to_json_dict() for e in parse_errors]})


@fixed(200)
@given(st.integers(0, 2**32), st.sampled_from((random_model, arbitrary_model)))
def test_json_writers_are_json_dumps_on_drawn_models(seed, make):
    rng = random.Random(seed)
    model = make(rng)
    events = elementary_events(model)
    names = [e.name for e in events]
    behavior = rng.choice((None, BehaviorGraph(tuple(names), tuple(
        BehaviorEdge(rng.choice(names), rng.choice(names), rng.random() < 0.3)
        for _ in range(rng.randint(0, 4)) if names))))
    assert_writers_are_json_dumps(model, events, behavior, validate_document(model, (), None)[0].diagnostics)


spans = st.builds(Span, integers, integers, integers, integers)
diagnostics = st.builds(Diagnostic, texts, texts, texts, st.none() | texts, st.none() | spans)
parse_errors = st.builds(ParseError, integers, integers, st.lists(texts, max_size=3).map(tuple), texts)


@st.composite
def texts_documents(draw) -> str:
    """A canonical JSON document whose ids, names, labels and event texts
    are drawn from ``texts``, and that ``from_json`` reads."""
    ids = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    names = draw(st.lists(texts, min_size=len(ids), max_size=len(ids), unique=True))
    thimacs = [{"id": tid, "name": name, "parent": draw(st.none() | st.sampled_from(ids[:i] or [None]))}
               for i, (tid, name) in enumerate(zip(ids, names))]
    stage_ids = texts.filter(lambda sid: "->" not in sid and "~>" not in sid)
    stages = draw(st.lists(
        st.fixed_dictionaries({"id": stage_ids, "kind": st.sampled_from(sorted(KIND_BY_NAME)),
                               "owner": st.sampled_from(ids), "label": st.none() | texts}),
        max_size=6, unique_by=(lambda s: s["id"], lambda s: (s["owner"], s["kind"], s["label"] or None))))
    ends = st.sampled_from([s["id"] for s in stages]) if stages else st.nothing()
    edges = st.lists(st.fixed_dictionaries({"source": ends, "target": ends}), max_size=6,
                     unique_by=lambda e: (e["source"], e["target"])) if stages else st.just([])
    events = draw(st.lists(st.fixed_dictionaries({
        "id": texts, "name": texts, "level": texts,
        "region": st.lists(texts, max_size=3), "constituents": st.lists(texts, max_size=3)}), max_size=3))
    behavior = draw(st.lists(st.fixed_dictionaries(
        {"before": texts, "after": texts, "repeat": st.booleans()}), max_size=3))
    return json.dumps({"thimacs": thimacs, "stages": stages, "flows": draw(edges),
                       "triggers": draw(edges), "events": events, "behavior": behavior})


@fixed(100)
@given(texts_documents(), st.lists(diagnostics, max_size=4), st.lists(parse_errors, max_size=3))
@example('{"thimacs": [{"id": "\\ud800\\"", "name": "\\u00e9\\\\", "parent": null}]}', [], [])
def test_json_writers_are_json_dumps_on_any_text(document, diagnostics, parse_errors):
    """Quotes, backslashes, control characters, lone surrogates and text
    outside ASCII in every string field, read back through ``from_json``."""
    model, events, behavior = render.from_json(document)
    assert_writers_are_json_dumps(model, events, behavior, diagnostics, parse_errors)


drawn_models = st.builds(lambda seed, make: make(random.Random(seed)),
                         st.integers(0, 2**32), st.sampled_from((random_model, arbitrary_model)))


@fixed(200)
@given(st.one_of(drawn_models, texts_documents().map(lambda document: render.from_json(document)[0])))
def test_simplify_builds_what_build_model_builds_from_the_same_parts(model):
    """``simplify`` builds its skeleton directly; ``build_model`` builds the
    same model from the input's thimacs and the skeleton's stages and
    edges, on drawn models and on JSON documents of any text, whose
    thimacs need not be declared in containment pre-order."""
    simplified, _ = simplify(model)
    assert simplified == build_model(model.thimacs, simplified.stages, simplified.flows,
                                     simplified.triggers)


# Found texts as the token parser writes them: the repr of a character
# outside ASCII, or of one that starts no token; end of input; a word.
found_texts = st.one_of(st.characters().map(repr), st.just("end of input"),
                        texts.map(lambda word: f"'{word}'"), texts)


@fixed(200)
@given(st.lists(st.builds(ParseError, integers, integers, st.lists(texts, max_size=3).map(tuple),
                          found_texts), max_size=6))
@example([ParseError(1, 1, ("a declaration",), "'²'"), ParseError(2, 3, (), "'\\u2028'")])
@example([])
def test_parse_errors_writer_is_json_dumps(errors):
    assert render.parse_errors_json(errors) == dumped(
        {"ok": False, "parse_errors": [e.to_json_dict() for e in errors]})


def test_indented_writer_leaves_no_cyclic_garbage(corpus_docs):
    """tm pauses the cyclic collector, so garbage in a cycle would hold
    every piece of the output until the command ends. No writer makes
    any, that of parse errors included."""
    doc = corpus_docs["heating_water"]
    report, events = validate_document(doc.model, doc.events, doc.behavior)
    diagnostic = Diagnostic("CODE", "error", "message", "element", Span(1, 2, 3, 4))
    simplified = simplify(doc.model)
    gc.collect()
    gc.disable()
    try:
        render.to_json(doc.model, events, doc.behavior)
        render.events_json(events, events)
        render.simplified_json(*simplified)
        render.report_json(ValidationReport((*report.diagnostics, diagnostic)))
        render.parse_errors_json([ParseError(1, 2, ("a declaration", "'}'"), "'²'")])
        assert gc.collect() == 0
    finally:
        gc.enable()
