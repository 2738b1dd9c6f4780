"""Textual syntax for models, events, and chronologies.

Grammar (whitespace is free; comments run from '#' to end of line):

    model     := decl*
    decl      := thimac | edge | event | behavior
    thimac    := "thimac" NAME "{" (stage | thimac)* "}"
    stage     := KIND ("(" NAME ")")? ";"
    edge      := "flow" stageRef "->" stageRef ";"
               | "trigger" stageRef "~>" stageRef ";"
    event     := "event" NAME "{" (stageRef ";")+ "}"
    behavior  := "behavior" "{" (NAME "->" NAME ("repeat")? ";")* "}"
    stageRef  := NAME ("." NAME)* "." KIND ("(" NAME ")")?
    KIND      := "create" | "process" | "release" | "transfer"
               | "receive" | "arrive" | "accept"

Solid arrows ("->") declare flows and dashed arrows ("~>") declare
triggers, matching the two arrow styles of the diagrams. The two differ
only in keyword and arrow, so they share one grammar rule and one table
(``EDGES``) that both readers, the lowering and the formatter read; the
arrows are the model edges' own. The optional "repeat" mark on a
chronology edge declares a permitted loop back to an earlier event rather
than a precedence constraint. Files use the ".tm" extension and hold one
model each; a UTF-8 byte-order mark at the start of a file is ignored.

A scanner matches whole declarations, stages and references with a few
regexes, without making a token list, and reads every well-formed
declaration. It declines only a declaration that holds an error: a
character other than space, tab, CR or LF between tokens (form feed and
vertical tab included), a keyword or stage kind where a name belongs, or
a word led by a character outside ASCII that is not a letter. The token
parser reads each declaration that the scanner declines, one token
ahead, and it alone reports syntax errors; only the declined
declarations are tokenized, a run of them as one stream of tokens. One
read loop drives both readers, and each declaration is read once and
reported to one builder: for :func:`parse` the builder of the AST, for
:func:`load` the lowering itself, so a text becomes a :class:`Document`
or a :class:`ParseFailure` with no AST and no fallback. :func:`lower`
feeds the same lowering from AST nodes. Offsets become a :class:`Span`
only where a diagnostic or an event needs one.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .diagnostics import REF_UNRESOLVED, Diagnostic, ModelError, Span, TmError, error
from .model import (
    KIND_BY_NAME,
    NAME_BY_KIND,
    BehaviorEdge,
    BehaviorGraph,
    EdgeSet,
    Event,
    EventDecl,
    FlowEdge,
    Stage,
    StageKind,
    Thimac,
    TmModel,
    TriggerEdge,
    declared_twice,
    stage_ref_text,
    try_build_model,
)

KEYWORDS = frozenset({"thimac", "flow", "trigger", "event", "behavior", "repeat"})


@dataclass(frozen=True)
class ParseError:
    """A syntax problem at a precise point of the input."""

    line: int
    column: int
    expected: tuple[str, ...]
    found: str

    def __str__(self) -> str:
        wanted = " or ".join(self.expected)
        return f"{self.line}:{self.column}: expected {wanted}, found {self.found}"

    def to_json_dict(self) -> dict:
        return {
            "line": self.line,
            "column": self.column,
            "expected": list(self.expected),
            "found": self.found,
        }


class ParseFailure(TmError):
    """Raised after a full parse pass that hit one or more syntax errors."""

    def __init__(self, errors: Iterable[ParseError]):
        self.errors = tuple(errors)
        super().__init__("; ".join(str(e) for e in self.errors) or "parse failed")


# -- AST --------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class StageRef:
    """A stage reference as written, by its canonical text."""

    text: str  # the canonical stage id, such as "A.B.process(job)"
    start: int = field(compare=False)
    end: int = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class StageNode:
    """A stage declared in a thimac body: its kind and optional label."""

    kind: StageKind
    label: str | None
    start: int = field(compare=False)
    end: int = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class ThimacNode:
    """A thimac declaration: its name and its stages and nested thimacs, in order."""

    name: str
    body: tuple[Union["ThimacNode", StageNode], ...]
    start: int = field(compare=False)
    end: int = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class FlowNode:
    """A ``flow`` declaration: the references of its two ends."""

    source: StageRef
    target: StageRef
    start: int = field(compare=False)
    end: int = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class TriggerNode:
    """A ``trigger`` declaration: the references of its two ends."""

    source: StageRef
    target: StageRef
    start: int = field(compare=False)
    end: int = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class EventNode:
    """An ``event`` declaration: its name and the references of its region."""

    name: str
    refs: tuple[StageRef, ...]
    start: int = field(compare=False)
    end: int = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class BehaviorEdgeNode:
    """One ``before -> after`` edge of a ``behavior`` block, maybe marked ``repeat``."""

    before: str
    after: str
    repeat: bool
    start: int = field(compare=False)
    end: int = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class BehaviorNode:
    """A ``behavior`` block: its chronology edges, in order."""

    edges: tuple[BehaviorEdgeNode, ...]
    start: int = field(compare=False)
    end: int = field(compare=False)


Declaration = Union[ThimacNode, FlowNode, TriggerNode, EventNode, BehaviorNode]

# Edge keyword -> the AST node it declares and the model edge it lowers
# to, whose ``arrow`` it is written with.
EDGES = {"flow": (FlowNode, FlowEdge), "trigger": (TriggerNode, TriggerEdge)}


@dataclass(frozen=True)
class Ast:
    """The declarations of one text, in order, as :func:`parse` reads them."""

    declarations: tuple[Declaration, ...]
    # The text's _newlines, which turn node offsets into lines and columns;
    # the default is that of a text of one line.
    newlines: Sequence[int] = field(default=(-1,), compare=False, repr=False)

    def span(self, start: int, end: int) -> Span:
        """The span of the text from offset ``start`` to ``end``."""
        return Span(*_position(self.newlines, start), start, end)


# -- lexical rules and tokenizer ------------------------------------------------

# Each lexical rule is stated once; both readers build their patterns from it.
_S = r"[ \t\r\n]"  # whitespace; '\f' and '\v' are characters that start no token
_COMMENT = re.compile(r"#[^\n]*")
# A word is a name unless it is a keyword or a stage kind. ``[^\W\d]``
# also admits numerals that are not decimal digits (such as '²'), so each
# reader refuses a word led by one.
_WORD = r"[^\W\d]\w*"
_ARROWS = tuple(edge.arrow for _, edge in EDGES.values())
# The tokens that are their own type, a chronology edge's '->' among them.
_MARKS = {mark: mark for mark in (*_ARROWS, "->", *"{}();.")}
# Only the declarations that the scanner declines are tokenized, one match
# per token: the whitespace and comments before a token, then the token,
# a single character that starts none, or the end of the input.
_TOKEN = re.compile(
    rf"(?:{_S}+|{_COMMENT.pattern})*({'|'.join(map(re.escape, _MARKS))}|{_WORD}|.|\Z)", re.DOTALL)
_TYPES = {**_MARKS, **{word: word for word in KEYWORDS}, **dict.fromkeys(KIND_BY_NAME, "kind")}

# A token: its type, its text, and its start and end offsets.
_Token = tuple[str, str, int, int]


def _blank(comment: re.Match) -> str:
    return " " * len(comment[0])


def _tokens(text: str, start: int, bad: list[int]) -> Iterator[_Token]:
    """The tokens of ``text`` from offset ``start`` on, then "eof" (at the '#'
    of a comment ending the input); ``bad`` gets the offset of each character
    that starts no token or is a numeral leading a word, whose rest is kept."""
    for m in _TOKEN.finditer(text, start):
        word = m[1]
        ttype = _TYPES.get(word)
        if ttype is None:
            if not word:
                break
            at, ttype = m.start(1), "name"
            if not (word[0].isalpha() or word[0] == "_"):
                lead = next((i for i, c in enumerate(word) if c.isalpha() or c == "_"), len(word))
                bad.extend(range(at, at + lead))
                if lead == len(word):
                    continue
                word, at = word[lead:], at + lead
                ttype = _TYPES.get(word, "name")
            yield ttype, word, at, m.end(1)
        else:
            yield ttype, word, m.start(1), m.end(1)
    comment = text.find("#", text.rfind("\n") + 1)
    end = comment if comment >= 0 else len(text)
    yield "eof", "", end, end


def _newlines(text: str) -> list[int]:
    """Every '\\n' offset of ``text`` after a -1 for the start of the text,
    so that bisect_left gives the 1-based line of an offset. Each offset is
    a running sum of the line lengths, each line counted with its '\\n'."""
    newlines = list(accumulate(map(add, map(len, text.split("\n")), repeat(1)), initial=-1))
    newlines.pop()  # the end of the last line, which has no '\n'
    return newlines


def _position(newlines: Sequence[int], offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    line = bisect_left(newlines, offset)
    return line, offset - newlines[line - 1]


# -- parser -------------------------------------------------------------------

class _Syntax(Exception):
    """A syntax error, raised at the token where recovery starts."""


class _Parser:
    """Reads a stream of tokens one token ahead and reports each declaration
    to ``out`` through the calls that :func:`_scan` makes, a stage reference
    as ``(stage id, start, end)``. A declaration with an error may have been
    reported in part, as by the scanner; :func:`_read` then raises."""

    def __init__(self, text: str, newlines: list[int], out: _AstBuilder | _Lowering):
        self.text, self.newlines, self.out = text, newlines, out
        self.bad: list[int] = []
        self.syntax: list[ParseError] = []
        self.stop = -1  # where the last declaration() stopped: the current token

    def errors(self) -> list[ParseError]:
        """Every character that starts no token, in text order, then every
        syntax error."""
        text, newlines = self.text, self.newlines
        return [ParseError(*_position(newlines, at), ("a declaration",), repr(text[at]))
                for at in self.bad] + self.syntax

    def take(self, ttype: str, *expected: str) -> _Token:
        """The current token, which must be of type ``ttype``; the next one
        becomes current."""
        token = self.token
        if token[0] != ttype:
            raise self.fail(*expected)
        self.token = next(self.tokens)
        return token

    def fail(self, *expected: str) -> _Syntax:
        """The error at the current token, where recovery then starts."""
        ttype, word, start, _ = self.token
        found = "end of input" if ttype == "eof" else f"'{word}'"
        return _Syntax(ParseError(*_position(self.newlines, start), expected, found))

    def recover(self) -> None:
        """Take tokens up to the next declaration boundary: past a top-level
        ';' or the '}' closing the declaration the error occurred in."""
        tokens, token, depth = self.tokens, self.token, 0
        while True:
            ttype = token[0]
            if ttype == "eof" or (depth == 0 and ttype in self.RULES):
                break
            token = next(tokens)
            if ttype == "{":
                depth += 1
            elif ttype == "}":
                if depth <= 1:
                    break
                depth -= 1
            elif ttype == ";" and depth == 0:
                break
        self.token = token

    def declaration(self, offset: int) -> int:
        """Read the declaration at character ``offset``, or record its error
        and recover; the offset of the next token, or the length of the text
        at the end of the input. Tokens are read on from the last call's
        stop, or afresh where ``offset`` is elsewhere."""
        if offset != self.stop:
            self.tokens = _tokens(self.text, offset, self.bad)
            self.token = next(self.tokens)
        ttype = self.token[0]
        if ttype != "eof":
            try:
                rule = self.RULES.get(ttype)
                if rule is None:
                    raise self.fail("a declaration")
                rule(self)
            except _Syntax as exc:
                self.syntax.append(exc.args[0])
                self.recover()
        ttype, _, self.stop, _ = self.token
        return len(self.text) if ttype == "eof" else self.stop

    def thimac(self) -> None:
        take, out = self.take, self.out
        open_: list = []  # the builder's frames of the open thimacs, innermost last
        while True:
            ttype, word, start, end = self.token
            if ttype == "kind":
                take("kind")
                label, _ = self.optional_label(end)
                out.stage(open_[-1], KIND_BY_NAME[word], label, start, take(";", "';'")[3])
            elif ttype == "thimac":
                take("thimac")
                name = take("name", "a thimac name")[1]
                take("{", "'{'")
                open_.append(out.thimac(open_[-1] if open_ else None, name, start))
            elif ttype == "}":
                take("}")
                frame = open_.pop()
                out.close(frame, open_[-1] if open_ else None, end)
                if not open_:
                    return
            else:
                raise self.fail("a stage", "'thimac'", "'}'")

    def optional_label(self, end: int) -> tuple[str | None, int]:
        """An optional '(' NAME ')' after a token ending at ``end``, and the
        end of the last token read."""
        if self.token[0] != "(":
            return None, end
        self.take("(")
        label = self.take("name", "a label")[1]
        return label, self.take(")", "')'")[3]

    def stage_ref(self) -> tuple[str, int, int]:
        take = self.take
        _, word, start, _ = take("name", "a stage reference")
        path = [word]
        while True:
            take(".", "'.'")
            ttype, word, _, end = self.token
            if ttype == "kind":
                take("kind")
                break
            path.append(take("name", "a thimac name", "a stage kind")[1])
        label, end = self.optional_label(end)
        return stage_ref_text(".".join(path), KIND_BY_NAME[word], label), start, end

    def edge(self) -> None:
        ttype, _, start, _ = self.take(self.token[0])
        classes = EDGES[ttype]
        source = self.stage_ref()
        self.take(classes[1].arrow, f"'{classes[1].arrow}'")
        target = self.stage_ref()
        self.out.edge(classes, source, target, start, self.take(";", "';'")[3])

    def event(self) -> None:
        take = self.take
        start = take("event")[2]
        name = take("name", "an event name")[1]
        take("{", "'{'")
        refs: list[tuple[str, int, int]] = []
        while not refs or self.token[0] != "}":
            refs.append(self.stage_ref())
            take(";", "';'")
        self.out.event(name, refs, start, take("}")[3])

    def behavior(self) -> None:
        take = self.take
        start = take("behavior")[2]
        take("{", "'{'")
        edges: list[tuple[str, str, bool, int, int]] = []
        while self.token[0] != "}":
            _, before, first, _ = take("name", "an event name")
            take("->", "'->'")
            after = take("name", "an event name")[1]
            repeat = self.token[0] == "repeat"
            if repeat:
                take("repeat")
            edges.append((before, after, repeat, first, take(";", "';'")[3]))
        self.out.behavior(edges, start, take("}")[3])

    # Declaration keyword -> rule; recover() also stops at each keyword.
    # Plain functions, not bound methods: a table of bound methods on the
    # instance would keep the parser and its tokens alive in a cycle.
    RULES = {"thimac": thimac, **dict.fromkeys(EDGES, edge), "event": event, "behavior": behavior}


# -- scanner ------------------------------------------------------------------

# Well-formed text is read a whole declaration at a time, over the
# comment-blanked text: each match below is a flow or trigger, a
# declaration head, a stage, an event's stage reference, a chronology
# edge or a closing brace, with the whitespace after it. A name is never
# a keyword or a stage kind, and no match ends where a word character
# follows, so each match holds exactly the tokens that the tokenizer
# finds there. A stage reference without its whitespace is its stage id.
# Only an error, as the module docstring lists them, matches nothing (a
# character outside ASCII that is not a letter, because ``_scannable``
# puts '\0' in its place); the token parser then reads that declaration.
_NAME = rf"(?!(?:{'|'.join((*KEYWORDS, *KIND_BY_NAME))})\b){_WORD}"
_KINDS = "|".join(KIND_BY_NAME)
_LABEL = rf"(?:{_S}*\({_S}*({_NAME}){_S}*\))?"
# Group: a stage reference, with whitespace allowed around each '.' and
# around its label.
_REF = rf"({_NAME}(?:{_S}*\.{_S}*{_NAME})*{_S}*\.{_S}*(?:{_KINDS})(?:{_S}*\({_S}*{_NAME}{_S}*\))?)"
_SPACES = re.compile(f"{_S}*")
# Groups: 1 the keyword, 2 the source, 3 the arrow, 4 the target, 5 the end.
_EDGE = re.compile(rf"({'|'.join(EDGES)}){_S}+{_REF}{_S}*({'|'.join(map(re.escape, _ARROWS))})"
                   rf"{_S}*{_REF}{_S}*;(){_S}*")
# Groups: 1 a thimac name, 2 an event name, 3 "behavior".
_DECLARATION = re.compile(
    rf"(?:thimac{_S}+({_NAME}){_S}*\{{|event{_S}+({_NAME}){_S}*\{{|(behavior){_S}*\{{){_S}*")
# Group: 1 a stage reference; none for '}'.
_REF_ITEM = re.compile(rf"(?:{_REF}{_S}*;|\}}){_S}*")
# Groups: 1 a stage kind, 2 its label, 3 its end, 4 a thimac name; none for '}'.
_THIMAC_ITEM = re.compile(
    rf"(?:({_KINDS}){_LABEL}{_S}*;()|thimac{_S}+({_NAME}){_S}*\{{|\}}){_S}*")
# Groups: 1 and 2 the events, 3 "repeat", 4 the end; none for '}'.
_CHRONOLOGY_ITEM = re.compile(
    rf"(?:({_NAME}){_S}*->{_S}*({_NAME})(?:{_S}+(repeat))?{_S}*;()|\}}){_S}*")
# A character outside ASCII that leads a word or stands between tokens;
# unless it is a letter, the token parser reports it.
_LEAD = re.compile(r"[^\x00-\x7f](?<!\w.)")


def _scannable(text: str) -> str:
    """``text`` as the scanner reads it: comments blanked, and a '\\0',
    which no scanner pattern matches, for each character that ``_LEAD``
    finds and that is not a letter."""
    scan = _COMMENT.sub(_blank, text) if "#" in text else text
    if not scan.isascii() and not all(map(str.isalpha, _LEAD.findall(scan))):
        scan = _LEAD.sub(lambda lead: lead[0] if lead[0].isalpha() else "\0", scan)
    return scan


def _scan(scan: str, pos: int, out: _AstBuilder | _Lowering) -> int:
    """Report the declarations of the comment-blanked ``scan`` from the
    token at ``pos`` on to ``out``; the offset of the first one the
    patterns above do not match, or ``len(scan)``. A thimac is reported as
    it opens, each of its stages and as it closes; a stage reference as
    ``(text as written, start, end)``."""
    thimac, stage = out.thimac, out.stage
    stop = len(scan)
    while pos < stop:
        first = pos
        if (m := _EDGE.match(scan, pos)) is not None:
            classes = EDGES[m[1]]
            if m[3] != classes[1].arrow:
                return first
            out.edge(classes, (m[2], m.start(2), m.end(2)), (m[4], m.start(4), m.end(4)),
                     first, m.start(5))
            pos = m.end()
            continue
        m = _DECLARATION.match(scan, pos)
        if m is None:
            return first
        at, pos = m.lastindex, m.end()
        if at == 1:
            open_ = [thimac(None, m[1], first)]  # the open thimacs, innermost last
            while open_:
                m = _THIMAC_ITEM.match(scan, pos)
                if m is None:
                    return first
                at = m.lastindex
                if at == 3:
                    stage(open_[-1], KIND_BY_NAME[m[1]], m[2], pos, m.start(3))
                elif at == 4:
                    open_.append(thimac(open_[-1], m[4], pos))
                else:
                    frame = open_.pop()
                    out.close(frame, open_[-1] if open_ else None, pos + 1)
                pos = m.end()
        elif at == 2:
            name, refs = m[2], []
            while (m := _REF_ITEM.match(scan, pos)) is not None and m.lastindex:
                refs.append((m[1], m.start(1), m.end(1)))
                pos = m.end()
            if m is None or not refs:
                return first
            out.event(name, refs, first, pos + 1)
            pos = m.end()
        else:
            edges = []
            while (m := _CHRONOLOGY_ITEM.match(scan, pos)) is not None and m.lastindex:
                before, after, repeat = m.group(1, 2, 3)
                edges.append((before, after, repeat is not None, pos, m.start(4)))
                pos = m.end()
            if m is None:
                return first
            out.behavior(edges, first, pos + 1)
            pos = m.end()
    return stop


class _AstBuilder(list):
    """The declarations read so far, to which the reports of both readers
    append AST nodes, a thimac once it closes: the one place that builds
    AST nodes."""

    @staticmethod
    def refs(refs: Iterable[tuple[str, int, int]]) -> tuple[StageRef, ...]:
        """The nodes of references as written: a stage id is a text without its whitespace."""
        return tuple([StageRef("".join(text.split()), start, end) for text, start, end in refs])

    def thimac(self, parent: tuple | None, name: str, start: int) -> tuple[int, str, list]:
        return start, name, []

    def stage(self, owner: tuple, kind: StageKind, label: str | None, start: int, end: int) -> None:
        owner[2].append(StageNode(kind, label, start, end))

    def close(self, frame: tuple, parent: tuple | None, end: int) -> None:
        start, name, body = frame
        (self if parent is None else parent[2]).append(ThimacNode(name, tuple(body), start, end))

    def edge(self, classes: tuple, source: tuple, target: tuple, start: int, end: int) -> None:
        self.append(classes[0](*self.refs((source, target)), start, end))

    def event(self, name: str, refs: list, start: int, end: int) -> None:
        self.append(EventNode(name, self.refs(refs), start, end))

    def behavior(self, edges: list, start: int, end: int) -> None:
        self.append(BehaviorNode(tuple([BehaviorEdgeNode(*e) for e in edges]), start, end))


def _read(text: str, newlines: list[int], out: _AstBuilder | _Lowering) -> None:
    """Report each declaration of ``text`` to ``out`` once: the scanner
    reads it or, where it declines one that holds an error, the token
    parser, which hands the next declaration back. Reading recovers at
    declaration boundaries so one bad declaration does not hide later
    ones; a :class:`ParseFailure` with every error is raised at the end."""
    scan = _scannable(text)
    pos, parser = _SPACES.match(scan).end(), None
    while True:
        pos = _scan(scan, pos, out)
        if pos >= len(text):
            break
        parser = parser or _Parser(text, newlines, out)
        pos = parser.declaration(pos)
    if parser is not None and (errors := parser.errors()):
        raise ParseFailure(errors)


def parse(text: str) -> Ast:
    """Parse model text into an AST, or raise :class:`ParseFailure` with every syntax error."""
    newlines, decls = _newlines(text), _AstBuilder()
    _read(text, newlines, decls)
    return Ast(tuple(decls), newlines)


# -- lowering -----------------------------------------------------------------

@dataclass(frozen=True)
class Document:
    """A lowered source file: the model plus its event and chronology declarations."""

    model: TmModel
    events: tuple[EventDecl, ...]
    behavior: BehaviorGraph | None


class _Lowering:
    """The one lowering to a :class:`Document`, fed the calls of
    :class:`_AstBuilder` by the readers (:func:`load`) or from an AST
    (:func:`lower`). Thimacs and stages become records as they are read;
    edge, event and chronology declarations wait as plain values, and
    :meth:`document` resolves them in declaration order."""

    def __init__(self, newlines: Sequence[int]):
        self.newlines = newlines
        self.thimacs: list[Thimac] = []
        self.stages: list[Stage] = []
        self.pending: list[tuple] = []

    span = Ast.span  # a Span from offsets, by the text's newlines

    def thimac(self, parent: str | None, name: str, start: int) -> str:
        path = name if parent is None else f"{parent}.{name}"
        self.thimacs.append(Thimac(path, name, parent))
        return path

    def stage(self, owner: str, kind: StageKind, label: str | None, start: int, end: int) -> None:
        self.stages.append(Stage(stage_ref_text(owner, kind, label), kind, owner, label))

    def close(self, frame: str, parent: str | None, end: int) -> None:
        pass

    def edge(self, classes: tuple, source: tuple, target: tuple, start: int, end: int) -> None:
        self.pending.append((classes[1], source, target, start, end))

    def event(self, name: str, refs: list, start: int, end: int) -> None:
        self.pending.append((EventDecl, name, refs, start, end))

    def behavior(self, edges: list, start: int, end: int) -> None:
        self.pending.append((BehaviorEdge, edges))

    def document(self) -> Document:
        # Each reference resolves to its stage's own id string, so the model
        # and the events hold one string per stage, not one per reference.
        stage_ids = {s.id: s.id for s in self.stages}
        diags: list[Diagnostic] = []

        def resolved(ref: tuple[str, int, int]) -> str | None:
            """The stage id of a reference not written as one, or None and a REF_UNRESOLVED."""
            text, start, end = ref
            sid = stage_ids.get(text := "".join(text.split()))
            if sid is None:
                diags.append(error(REF_UNRESOLVED, f"unknown stage reference '{text}'", text,
                                   self.span(start, end)))
            return sid

        edges, events, chronology = EdgeSet(), [], None
        declared = {decl[1] for decl in self.pending if decl[0] is EventDecl}
        for decl in self.pending:
            made = decl[0]
            if made is EventDecl:
                _, name, refs, start, end = decl
                region = tuple([sid for ref in refs
                                if (sid := stage_ids.get(ref[0]) or resolved(ref)) is not None])
                events.append(EventDecl(name, region, self.span(start, end)))
            elif made is BehaviorEdge:
                chronology = chronology or []
                for before, after, repeat, start, end in decl[1]:
                    if before in declared and after in declared:
                        chronology.append(BehaviorEdge(before, after, repeat))
                        continue
                    diags += (error(REF_UNRESOLVED, f"chronology names undeclared event '{name}'",
                                    name, self.span(start, end))
                              for name in (before, after) if name not in declared)
            else:
                _, source, target, start, end = decl
                src = stage_ids.get(source[0]) or resolved(source)
                dst = stage_ids.get(target[0]) or resolved(target)
                if src is not None and dst is not None and not edges.add(edge := made(src, dst)):
                    diags.append(declared_twice(edge.id, self.span(start, end)))

        model, build_diags = try_build_model(self.thimacs, self.stages, edges.flows, edges.triggers)
        if build_diags or diags:
            raise ModelError(build_diags + diags)
        behavior = (None if chronology is None
                    else BehaviorGraph(tuple(e.name for e in events), tuple(chronology)))
        return Document(model, tuple(events), behavior)


def lower(ast: Ast) -> Document:
    """Resolve references and build the model; carries event and chronology
    declarations through for the dynamics layer.

    Raises :class:`ModelError` with the full diagnostic list when any
    reference fails to resolve or the declarations are structurally bad.
    """
    out = _Lowering(ast.newlines)
    edge_classes = {classes[0]: classes for classes in EDGES.values()}
    # Depth first: the path of each open thimac, innermost last, with the
    # rest of its body; the declarations are the body of none.
    open_: list[tuple[str | None, Iterator]] = [(None, iter(ast.declarations))]
    while open_:
        parent, body = open_[-1]
        for node in body:
            if isinstance(node, ThimacNode):
                open_.append((out.thimac(parent, node.name, node.start), iter(node.body)))
                break
            if isinstance(node, StageNode):
                out.stage(parent, node.kind, node.label, node.start, node.end)
            elif isinstance(node, EventNode):
                out.event(node.name, [(r.text, r.start, r.end) for r in node.refs], node.start, node.end)
            elif isinstance(node, BehaviorNode):
                out.behavior([(e.before, e.after, e.repeat, e.start, e.end) for e in node.edges],
                             node.start, node.end)
            else:
                source, target = node.source, node.target
                out.edge(edge_classes[type(node)], (source.text, source.start, source.end),
                         (target.text, target.start, target.end), node.start, node.end)
        else:
            open_.pop()
    return out.document()


def load(path: str | Path) -> Document:
    """Read and lower one ``.tm`` file, as ``lower(parse(text))`` does, but
    with no AST: both readers report to the lowering (see :func:`_read`)."""
    text = Path(path).read_text(encoding="utf-8-sig")
    out = _Lowering(_newlines(text))
    _read(text, out.newlines, out)
    return out.document()


# -- formatter ----------------------------------------------------------------

_INDENT = "    "


def format_model(
    model: TmModel,
    events: Iterable[EventDecl | Event] = (),
    behavior: BehaviorGraph | None = None,
) -> str:
    """Canonical text for a model: declaration order, nested thimacs
    indented, one declaration per line. Formatting is idempotent; re-parsing
    the text of a document that :func:`lower` built yields a structurally
    equal document. Other models need not: ``build_model`` accepts a
    repeated edge, written twice and refused as DUP_NAME on re-parsing, and
    ``from_json`` any string as a name or label (an empty label reloads as
    none) and opaque stage ids, which reload under their references.
    """
    stage_by_id, refs = model.stage_by_id, model.refs
    sections: list[list[str]] = []
    for depth, thimac in model.nesting():
        pad = _INDENT * depth
        if thimac is None:
            sections[-1].append(f"{pad}}}")
            continue
        if depth == 0:
            sections.append([])
        block = sections[-1]
        block.append(f"{pad}thimac {thimac.name} {{")
        for sid in thimac.stages:
            stage = stage_by_id[sid]
            label = f"({stage.label})" if stage.label else ""
            block.append(f"{pad}{_INDENT}{NAME_BY_KIND[stage.kind]}{label};")

    for keyword, edges in (("flow", model.flows), ("trigger", model.triggers)):
        arrow = EDGES[keyword][1].arrow
        if edges:
            sections.append([
                f"{keyword} {refs[e.source]} {arrow} {refs[e.target]};"
                for e in edges
            ])

    for event in events:
        body = [f"event {event.name} {{"]
        for element in event.region:
            if element in stage_by_id:
                body.append(f"{_INDENT}{refs[element]};")
        body.append("}")
        sections.append(body)

    if behavior is not None:
        body = ["behavior {"]
        for edge in behavior.edges:
            mark = " repeat" if edge.repeat else ""
            body.append(f"{_INDENT}{edge.before} -> {edge.after}{mark};")
        body.append("}")
        sections.append(body)

    if not sections:
        return ""
    return "\n\n".join("\n".join(section) for section in sections) + "\n"
