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

Text is read in one of two ways, to the same AST. A scanner
matches whole declarations, stages and references with a few regexes,
without making a token list, and reads every well-formed declaration.
It declines only a declaration that holds an error: a character other
than space, tab, CR or LF between tokens (form feed and vertical tab
included), a keyword or stage kind where a name belongs, or a word led
by a character outside ASCII that is not a letter. The token parser
reads each declaration that the scanner declines, one token ahead, and
it alone reports syntax errors. Each declaration is read once, and only
the declarations the scanner declines are tokenized: a run of them is
one stream of tokens. AST nodes carry offsets, which become a
:class:`Span` only where a diagnostic or an event needs one.
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
    """Reads a stream of tokens one token ahead. Each rule starts at its
    first token and returns its node, having taken every token of it; line
    and column are derived only for errors."""

    def __init__(self, text: str, newlines: list[int]):
        self.text, self.newlines = text, newlines
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

    def declaration(self, offset: int, decls: list[Declaration]) -> int:
        """Read the declaration at character ``offset`` into ``decls``, or
        record its error and recover; the offset of the next token, or the
        length of the text at the end of the input. Tokens are read on from
        the last call's stop, or afresh where ``offset`` is elsewhere."""
        if offset != self.stop:
            self.tokens = _tokens(self.text, offset, self.bad)
            self.token = next(self.tokens)
        ttype = self.token[0]
        if ttype != "eof":
            try:
                rule = self.RULES.get(ttype)
                if rule is None:
                    raise self.fail("a declaration")
                decls.append(rule(self))
            except _Syntax as exc:
                self.syntax.append(exc.args[0])
                self.recover()
        ttype, _, self.stop, _ = self.token
        return len(self.text) if ttype == "eof" else self.stop

    def thimac(self) -> ThimacNode:
        take = self.take
        # The open thimacs, innermost last: start, name, body so far.
        open_: list[tuple[int, str, list[ThimacNode | StageNode]]] = []
        while True:
            ttype, word, start, end = self.token
            if ttype == "kind":
                take("kind")
                label, _ = self.optional_label(end)
                end = take(";", "';'")[3]
                open_[-1][2].append(StageNode(KIND_BY_NAME[word], label, start, end))
            elif ttype == "thimac":
                take("thimac")
                name = take("name", "a thimac name")[1]
                take("{", "'{'")
                open_.append((start, name, []))
            elif ttype == "}":
                take("}")
                first, name, body = open_.pop()
                node = ThimacNode(name, tuple(body), first, end)
                if not open_:
                    return node
                open_[-1][2].append(node)
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

    def stage_ref(self) -> StageRef:
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
        return StageRef(stage_ref_text(".".join(path), KIND_BY_NAME[word], label), start, end)

    def edge(self) -> FlowNode | TriggerNode:
        ttype, _, start, _ = self.take(self.token[0])
        node, made = EDGES[ttype]
        source = self.stage_ref()
        self.take(made.arrow, f"'{made.arrow}'")
        target = self.stage_ref()
        return node(source, target, start, self.take(";", "';'")[3])

    def event(self) -> EventNode:
        take = self.take
        start = take("event")[2]
        name = take("name", "an event name")[1]
        take("{", "'{'")
        refs: list[StageRef] = []
        while not refs or self.token[0] != "}":
            refs.append(self.stage_ref())
            take(";", "';'")
        return EventNode(name, tuple(refs), start, take("}")[3])

    def behavior(self) -> BehaviorNode:
        take = self.take
        start = take("behavior")[2]
        take("{", "'{'")
        edges: list[BehaviorEdgeNode] = []
        while self.token[0] != "}":
            _, before, first, _ = take("name", "an event name")
            take("->", "'->'")
            after = take("name", "an event name")[1]
            repeat = self.token[0] == "repeat"
            if repeat:
                take("repeat")
            edges.append(BehaviorEdgeNode(before, after, repeat, first, take(";", "';'")[3]))
        return BehaviorNode(tuple(edges), start, take("}")[3])

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
# character outside ASCII that is not a letter, because ``parse`` puts
# '\0' in its place); the token parser then reads that declaration.
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


def _may_lead_with_numerals(scan: str) -> bool:
    """Whether a word of ``scan`` may start with a numeral outside ASCII:
    whether a character that ``_LEAD`` finds is not a letter."""
    return not scan.isascii() and not all(map(str.isalpha, _LEAD.findall(scan)))


def _scan(scan: str, pos: int, decls: list[Declaration]) -> int:
    """Append the declarations of the comment-blanked ``scan`` from the
    token at ``pos`` on to ``decls``, as :class:`_Parser` builds them; the
    offset of the first one the patterns above do not match, or ``len(scan)``."""

    def ref(m: re.Match, group: int) -> StageRef:
        """The reference of ``_REF``'s group ``group``."""
        return StageRef("".join(m[group].split()), *m.span(group))

    stop = len(scan)
    while pos < stop:
        first = pos
        if (m := _EDGE.match(scan, pos)) is not None:
            node, edge = EDGES[m[1]]
            if m[3] != edge.arrow:
                return first
            decls.append(node(ref(m, 2), ref(m, 4), first, m.start(5)))
            pos = m.end()
            continue
        m = _DECLARATION.match(scan, pos)
        if m is None:
            return first
        at, pos = m.lastindex, m.end()
        if at == 1:
            # The open thimacs, innermost last: first offset, name, body so far.
            open_: list[tuple[int, str, list[ThimacNode | StageNode]]] = [(first, m[1], [])]
            while open_:
                m = _THIMAC_ITEM.match(scan, pos)
                if m is None:
                    return first
                at = m.lastindex
                if at == 3:
                    kind, label = m.group(1, 2)
                    open_[-1][2].append(StageNode(KIND_BY_NAME[kind], label, pos, m.start(3)))
                elif at == 4:
                    open_.append((pos, m[4], []))
                else:
                    start, name, body = open_.pop()
                    node = ThimacNode(name, tuple(body), start, pos + 1)
                    (open_[-1][2] if open_ else decls).append(node)
                pos = m.end()
        elif at == 2:
            name, refs = m[2], []
            while (m := _REF_ITEM.match(scan, pos)) is not None and m.lastindex:
                refs.append(ref(m, 1))
                pos = m.end()
            if m is None or not refs:
                return first
            decls.append(EventNode(name, tuple(refs), first, pos + 1))
            pos = m.end()
        else:
            edges: list[BehaviorEdgeNode] = []
            while (m := _CHRONOLOGY_ITEM.match(scan, pos)) is not None and m.lastindex:
                before, after, repeat = m.group(1, 2, 3)
                edges.append(BehaviorEdgeNode(before, after, repeat is not None, pos, m.start(4)))
                pos = m.end()
            if m is None:
                return first
            decls.append(BehaviorNode(tuple(edges), first, pos + 1))
            pos = m.end()
    return stop


def parse(text: str) -> Ast:
    """Parse model text into an AST.

    Each declaration is read once, by the scanner (:func:`_scan`) or, where
    it declines one that holds an error, by the token parser, which hands
    the next declaration back. Parsing recovers at declaration boundaries
    so one bad declaration does not hide later ones; if anything failed, a
    :class:`ParseFailure` carrying every error is raised at the end.
    """
    scan = _COMMENT.sub(_blank, text) if "#" in text else text
    if _may_lead_with_numerals(scan):
        # '\0', which no scanner pattern matches, for each non-letter.
        scan = _LEAD.sub(lambda lead: lead[0] if lead[0].isalpha() else "\0", scan)
    newlines = _newlines(text)
    decls: list[Declaration] = []
    pos, parser = _SPACES.match(scan).end(), None
    while True:
        pos = _scan(scan, pos, decls)
        if pos >= len(text):
            break
        parser = parser or _Parser(text, newlines)
        pos = parser.declaration(pos, decls)
    if parser is not None and (errors := parser.errors()):
        raise ParseFailure(errors)
    return Ast(tuple(decls), newlines)


# -- lowering -----------------------------------------------------------------

@dataclass(frozen=True)
class Document:
    """A lowered source file: the model plus its event and chronology declarations."""

    model: TmModel
    events: tuple[EventDecl, ...]
    behavior: BehaviorGraph | None


def lower(ast: Ast) -> Document:
    """Resolve references and build the model; carries event and chronology
    declarations through for the dynamics layer.

    Raises :class:`ModelError` with the full diagnostic list when any
    reference fails to resolve or the declarations are structurally bad.
    """
    thimacs: list[Thimac] = []
    stages: list[Stage] = []

    # Depth first in document order: the path of each open thimac, innermost
    # last, with the rest of its body.
    open_: list[tuple[str | None, Iterator[ThimacNode | StageNode]]] = [
        (None, (decl for decl in ast.declarations if isinstance(decl, ThimacNode)))]
    while open_:
        parent, body = open_[-1]
        for node in body:
            if isinstance(node, StageNode):
                kind, label = node.kind, node.label
                stages.append(Stage(stage_ref_text(parent, kind, label), kind, parent, label))
            else:
                path = node.name if parent is None else f"{parent}.{node.name}"
                thimacs.append(Thimac(path, node.name, parent))
                open_.append((path, iter(node.body)))
                break
        else:
            open_.pop()

    # Each reference resolves to its stage's own id string, so the model
    # and the events hold one string per stage, not one per reference.
    stage_ids = {s.id: s.id for s in stages}
    diags: list[Diagnostic] = []

    def unresolved(ref: StageRef) -> None:
        diags.append(error(REF_UNRESOLVED, f"unknown stage reference '{ref.text}'", ref.text,
                           ast.span(ref.start, ref.end)))

    edges = EdgeSet()
    event_decls: list[EventDecl] = []
    behavior_edges: list[BehaviorEdge] = []
    saw_behavior = False
    declared_events = {d.name for d in ast.declarations if isinstance(d, EventNode)}

    lowered_edge = dict(EDGES.values())
    for decl in ast.declarations:
        make = lowered_edge.get(type(decl))
        if make is not None:
            src = stage_ids.get(decl.source.text) or unresolved(decl.source)
            dst = stage_ids.get(decl.target.text) or unresolved(decl.target)
            if src is not None and dst is not None and not edges.add(made := make(src, dst)):
                diags.append(declared_twice(made.id, ast.span(decl.start, decl.end)))
        elif isinstance(decl, EventNode):
            region = tuple([sid for ref in decl.refs
                            if (sid := stage_ids.get(ref.text) or unresolved(ref)) is not None])
            event_decls.append(EventDecl(decl.name, region, ast.span(decl.start, decl.end)))
        elif isinstance(decl, BehaviorNode):
            saw_behavior = True
            for edge in decl.edges:
                before, after = edge.before, edge.after
                if before in declared_events and after in declared_events:
                    behavior_edges.append(BehaviorEdge(before, after, edge.repeat))
                    continue
                diags += (error(REF_UNRESOLVED, f"chronology names undeclared event '{name}'",
                                name, ast.span(edge.start, edge.end))
                          for name in (before, after) if name not in declared_events)

    model, build_diags = try_build_model(thimacs, stages, edges.flows, edges.triggers)
    if build_diags or diags:
        raise ModelError(build_diags + diags)
    assert model is not None
    behavior = (BehaviorGraph(nodes=tuple(e.name for e in event_decls), edges=tuple(behavior_edges))
                if saw_behavior else None)
    return Document(model, tuple(event_decls), behavior)


def load(path: str | Path) -> Document:
    """Read, parse, and lower one ``.tm`` file."""
    return lower(parse(Path(path).read_text(encoding="utf-8-sig")))


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
