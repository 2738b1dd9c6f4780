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
(``EDGES``) that the parser, the lowering and the formatter read. The
optional "repeat" mark on a chronology edge declares a permitted loop
back to an earlier event rather than a precedence constraint. Files use
the ".tm" extension and hold one model each; a UTF-8 byte-order mark at
the start of a file is ignored.

Text is read in one of two ways, to the same AST and spans. A scanner
matches whole declarations, stages and references with a few regexes,
without making a token list. It declines, at the first place it is
reached, a character other than space, tab, CR or LF between tokens
(form feed and vertical tab included), a keyword or stage kind where a
name belongs, whitespace inside a stage path such as "A . create", and
any text in which a numeral outside ASCII may lead a word. The token
parser then reads the whole text again, and it alone reports syntax
errors. Malformed text thus costs the scanned prefix plus one full
token parse.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add
from pathlib import Path
from typing import Iterable, Union

from .diagnostics import REF_UNRESOLVED, Diagnostic, ModelError, Span, TmError, error
from .model import (
    KIND_BY_NAME,
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
    text: str  # the canonical stage id, such as "A.B.process(job)"
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class StageNode:
    kind: StageKind
    label: str | None
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class ThimacNode:
    name: str
    body: tuple[Union["ThimacNode", StageNode], ...]
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class FlowNode:
    source: StageRef
    target: StageRef
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class TriggerNode:
    source: StageRef
    target: StageRef
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class EventNode:
    name: str
    refs: tuple[StageRef, ...]
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class BehaviorEdgeNode:
    before: str
    after: str
    repeat: bool
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class BehaviorNode:
    edges: tuple[BehaviorEdgeNode, ...]
    span: Span = field(compare=False)


Declaration = Union[ThimacNode, FlowNode, TriggerNode, EventNode, BehaviorNode]

# Edge keyword -> the AST node it declares, the arrow it is written with
# and the model edge it lowers to.
EDGES = {"flow": (FlowNode, "->", FlowEdge), "trigger": (TriggerNode, "~>", TriggerEdge)}


@dataclass(frozen=True)
class Ast:
    declarations: tuple[Declaration, ...]


# -- tokenizer ----------------------------------------------------------------

# Only text that the scanner declines is tokenized, one regex match per
# token: each match is the whitespace and comments before a token, then
# the token, a single character that starts none, or the end of the
# input. '\f' and '\v' are not whitespace, so each is such a character.
# A name starts with a letter or '_': ``[^\W\d]`` also admits numerals
# that are not decimal digits (such as '²'), so each leading character
# of a word that cannot start a name is reported and the rest of the
# word kept, as a scan starting there would find. A comment ending the
# input leaves the end-of-input position at its '#'.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|\#[^\n]*)*(->|~>|[{}();.]|[^\W\d]\w*|.|\Z)", re.DOTALL)
_COMMENT = re.compile(r"#[^\n]*")
_WHITESPACE = " \t\r\n"
_NOT_ASCII = re.compile(r"[^\x00-\x7f]")
_TYPES = {**{p: p for p in ("->", "~>", "{", "}", "(", ")", ";", ".")},
          **{word: word for word in KEYWORDS}, **dict.fromkeys(KIND_BY_NAME, "kind")}


def _blank(comment: re.Match) -> str:
    return " " * len(comment[0])


def _tokenize(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """Token types, texts and start offsets, ending in "eof", and the
    offsets of the characters that start no token."""
    types: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    bad: list[int] = []
    for m in _TOKEN.finditer(text):
        word, start = m[1], m.start(1)
        ttype = _TYPES.get(word)
        if ttype is None:
            if not word:
                break
            ttype = "name"
            if not (word[0].isalpha() or word[0] == "_"):
                lead = next((i for i, c in enumerate(word) if c.isalpha() or c == "_"), len(word))
                bad.extend(range(start, start + lead))
                if lead == len(word):
                    continue
                word, start = word[lead:], start + lead
                ttype = _TYPES.get(word, "name")
        types.append(ttype)
        texts.append(word)
        starts.append(start)
    comment = text.find("#", text.rfind("\n") + 1)
    types.append("eof")
    texts.append("")
    starts.append(comment if comment >= 0 else len(text))
    return types, texts, starts, bad


def _may_lead_with_numerals(scan: str) -> bool:
    """Whether a token of ``scan`` may start with a numeral outside ASCII:
    only such a numeral leads a token without starting a name, and it is
    neither ASCII nor a letter."""
    return not scan.isascii() and not "".join(_NOT_ASCII.findall(scan)).isalpha()


def _newlines(text: str) -> list[int]:
    """Every '\\n' offset of ``text`` after a -1 for the start of the text,
    so that bisect_left gives the 1-based line of an offset. Each offset is
    a running sum of the line lengths, each line counted with its '\\n'."""
    newlines = list(accumulate(map(add, map(len, text.split("\n")), repeat(1)), initial=-1))
    newlines.pop()  # the end of the last line, which has no '\n'
    return newlines


# -- parser -------------------------------------------------------------------

class _Syntax(Exception):
    def __init__(self, err: ParseError):
        self.err = err


class _Parser:
    """Reads the flat token lists by index. Each rule takes the position of
    its first token and returns its node and the position after it; line
    and column are derived only for spans and errors."""

    def __init__(self, text: str):
        self.types, self.texts, self.starts, bad = _tokenize(text)
        self.newlines = _newlines(text)
        self.pos = 0
        self.errors = [ParseError(*self.position(at), ("a declaration",), repr(text[at]))
                       for at in bad]

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of a character offset."""
        line = bisect_left(self.newlines, offset)
        return line, offset - self.newlines[line - 1]

    def span(self, first: int, last: int) -> Span:
        start, newlines = self.starts[first], self.newlines
        line = bisect_left(newlines, start)  # position(), inlined
        end = self.starts[last] + len(self.texts[last])
        return Span(line, start - newlines[line - 1], start, end)

    def fail(self, pos: int, *expected: str) -> _Syntax:
        """The error at token ``pos``, where recovery then starts."""
        self.pos = pos
        found = "end of input" if self.types[pos] == "eof" else f"'{self.texts[pos]}'"
        return _Syntax(ParseError(*self.position(self.starts[pos]), expected, found))

    def recover(self) -> None:
        """Skip to the next declaration boundary: past a top-level ';' or
        the '}' closing the declaration the error occurred in."""
        types, pos, depth = self.types, self.pos, 0
        while True:
            ttype = types[pos]
            if ttype == "eof" or (depth == 0 and ttype in self.RULES):
                break
            pos += 1
            if ttype == "{":
                depth += 1
            elif ttype == "}":
                if depth <= 1:
                    break
                depth -= 1
            elif ttype == ";" and depth == 0:
                break
        self.pos = pos

    def parse_model(self) -> Ast:
        decls: list[Declaration] = []
        while self.types[self.pos] != "eof":
            try:
                rule = self.RULES.get(self.types[self.pos])
                if rule is None:
                    raise self.fail(self.pos, "a declaration")
                decl, self.pos = rule(self, self.pos)
                decls.append(decl)
            except _Syntax as exc:
                self.errors.append(exc.err)
                self.recover()
        return Ast(tuple(decls))

    def thimac(self, pos: int) -> tuple[ThimacNode, int]:
        types, texts = self.types, self.texts
        # The open thimacs, innermost last: first token, name, body so far.
        open_: list[tuple[int, str, list[ThimacNode | StageNode]]] = []
        while True:
            ttype = types[pos]
            if ttype == "kind":
                label, end = self.optional_label(pos + 1)
                if types[end] != ";":
                    raise self.fail(end, "';'")
                open_[-1][2].append(StageNode(KIND_BY_NAME[texts[pos]], label, self.span(pos, end)))
                pos = end + 1
            elif ttype == "thimac":
                if types[pos + 1] != "name":
                    raise self.fail(pos + 1, "a thimac name")
                if types[pos + 2] != "{":
                    raise self.fail(pos + 2, "'{'")
                open_.append((pos, texts[pos + 1], []))
                pos += 3
            elif ttype == "}":
                first, name, body = open_.pop()
                node = ThimacNode(name, tuple(body), self.span(first, pos))
                pos += 1
                if not open_:
                    return node, pos
                open_[-1][2].append(node)
            else:
                raise self.fail(pos, "a stage", "'thimac'", "'}'")

    def optional_label(self, pos: int) -> tuple[str | None, int]:
        """An optional '(' NAME ')' at ``pos``."""
        types = self.types
        if types[pos] != "(":
            return None, pos
        if types[pos + 1] != "name":
            raise self.fail(pos + 1, "a label")
        if types[pos + 2] != ")":
            raise self.fail(pos + 2, "')'")
        return self.texts[pos + 1], pos + 3

    def stage_ref(self, pos: int) -> tuple[StageRef, int]:
        types, texts, first = self.types, self.texts, pos
        if types[pos] != "name":
            raise self.fail(pos, "a stage reference")
        path = [texts[pos]]
        while True:
            if types[pos + 1] != ".":
                raise self.fail(pos + 1, "'.'")
            pos += 2
            ttype = types[pos]
            if ttype == "kind":
                break
            if ttype != "name":
                raise self.fail(pos, "a thimac name", "a stage kind")
            path.append(texts[pos])
        label, end = self.optional_label(pos + 1)
        sid = stage_ref_text(".".join(path), KIND_BY_NAME[texts[pos]], label)
        return StageRef(sid, self.span(first, end - 1)), end

    def edge(self, pos: int) -> tuple[FlowNode | TriggerNode, int]:
        types, first = self.types, pos
        node, arrow, _ = EDGES[types[pos]]
        source, pos = self.stage_ref(pos + 1)
        if types[pos] != arrow:
            raise self.fail(pos, f"'{arrow}'")
        target, pos = self.stage_ref(pos + 1)
        if types[pos] != ";":
            raise self.fail(pos, "';'")
        return node(source, target, self.span(first, pos)), pos + 1

    def event(self, pos: int) -> tuple[EventNode, int]:
        types, first = self.types, pos
        if types[pos + 1] != "name":
            raise self.fail(pos + 1, "an event name")
        if types[pos + 2] != "{":
            raise self.fail(pos + 2, "'{'")
        refs: list[StageRef] = []
        pos += 3
        while not refs or types[pos] != "}":
            ref, pos = self.stage_ref(pos)
            if types[pos] != ";":
                raise self.fail(pos, "';'")
            refs.append(ref)
            pos += 1
        return EventNode(self.texts[first + 1], tuple(refs), self.span(first, pos)), pos + 1

    def behavior(self, pos: int) -> tuple[BehaviorNode, int]:
        types, texts, first = self.types, self.texts, pos
        if types[pos + 1] != "{":
            raise self.fail(pos + 1, "'{'")
        pos += 2
        edges: list[BehaviorEdgeNode] = []
        while types[pos] != "}":
            if types[pos] != "name":
                raise self.fail(pos, "an event name")
            if types[pos + 1] != "->":
                raise self.fail(pos + 1, "'->'")
            if types[pos + 2] != "name":
                raise self.fail(pos + 2, "an event name")
            repeat = types[pos + 3] == "repeat"
            end = pos + 4 if repeat else pos + 3
            if types[end] != ";":
                raise self.fail(end, "';'")
            edges.append(BehaviorEdgeNode(texts[pos], texts[pos + 2], repeat, self.span(pos, end)))
            pos = end + 1
        return BehaviorNode(tuple(edges), self.span(first, pos)), pos + 1

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
# finds there. A stage path is matched without whitespace, so a
# reference with no whitespace in its label is its stage id as written.
# Anything else, such as a character other than ' \t\r\n' between
# tokens, a keyword where a name belongs or a space inside a stage path,
# matches nothing, and then the token parser reads the text again.
_S = f"[{_WHITESPACE}]"
_NAME = rf"(?!(?:{'|'.join((*KEYWORDS, *KIND_BY_NAME))})\b)[^\W\d]\w*"
_KINDS = "|".join(KIND_BY_NAME)
_LABEL = rf"(?:{_S}*\({_S}*({_NAME}){_S}*\))?"
# Groups: a stage reference, its path and kind, and its label.
_REF = rf"(({_NAME}(?:\.{_NAME})*\.(?:{_KINDS})){_LABEL})"
_SPACES = re.compile(f"{_S}*")
# Groups: 1 the keyword, 2-4 the source, 5 the arrow, 6-8 the target, 9 the end.
_EDGE = re.compile(rf"(flow|trigger){_S}+{_REF}{_S}*(->|~>){_S}*{_REF}{_S}*;(){_S}*")
# Groups: 1 a thimac name, 2 an event name, 3 "behavior".
_DECLARATION = re.compile(
    rf"(?:thimac{_S}+({_NAME}){_S}*\{{|event{_S}+({_NAME}){_S}*\{{|(behavior){_S}*\{{){_S}*")
# Groups: 1-3 a stage reference; none for '}'.
_REF_ITEM = re.compile(rf"(?:{_REF}{_S}*;|\}}){_S}*")
# Groups: 1 a stage kind, 2 its label, 3 its end, 4 a thimac name; none for '}'.
_THIMAC_ITEM = re.compile(
    rf"(?:({_KINDS}){_LABEL}{_S}*;()|thimac{_S}+({_NAME}){_S}*\{{|\}}){_S}*")
# Groups: 1 and 2 the events, 3 "repeat", 4 the end; none for '}'.
_CHRONOLOGY_ITEM = re.compile(
    rf"(?:({_NAME}){_S}*->{_S}*({_NAME})(?:{_S}+(repeat))?{_S}*;()|\}}){_S}*")


def _scan(text: str) -> Ast | None:
    """The AST of ``text``, with the nodes and spans that :class:`_Parser`
    builds, or None at the first point that the patterns above do not
    match, and for text in which a numeral outside ASCII may lead a token."""
    scan = _COMMENT.sub(_blank, text) if "#" in text else text
    if _may_lead_with_numerals(scan):
        return None
    newlines = _newlines(text)

    def span(start: int, end: int) -> Span:
        line = bisect_left(newlines, start)
        return Span(line, start - newlines[line - 1], start, end)

    def ref(m: re.Match, group: int) -> StageRef:
        """The reference of ``_REF``'s groups from ``group`` on."""
        sid, head, label = m.group(group, group + 1, group + 2)
        if label is not None and len(sid) != len(head) + len(label) + 2:
            sid = f"{head}({label})"  # written with whitespace around the label
        start, end = m.span(group)
        line = bisect_left(newlines, start)
        return StageRef(sid, Span(line, start - newlines[line - 1], start, end))

    decls: list[Declaration] = []
    pos, stop = _SPACES.match(scan).end(), len(scan)
    while pos < stop:
        first = pos
        if (m := _EDGE.match(scan, pos)) is not None:
            node, arrow, _ = EDGES[m[1]]
            if m[5] != arrow:
                return None
            decls.append(node(ref(m, 2), ref(m, 6), span(first, m.start(9))))
            pos = m.end()
            continue
        m = _DECLARATION.match(scan, pos)
        if m is None:
            return None
        at, pos = m.lastindex, m.end()
        if at == 1:
            # The open thimacs, innermost last: first offset, name, body so far.
            open_: list[tuple[int, str, list[ThimacNode | StageNode]]] = [(first, m[1], [])]
            while open_:
                m = _THIMAC_ITEM.match(scan, pos)
                if m is None:
                    return None
                at = m.lastindex
                if at == 3:
                    kind, label = m.group(1, 2)
                    open_[-1][2].append(StageNode(KIND_BY_NAME[kind], label, span(pos, m.start(3))))
                elif at == 4:
                    open_.append((pos, m[4], []))
                else:
                    start, name, body = open_.pop()
                    node = ThimacNode(name, tuple(body), span(start, pos + 1))
                    (open_[-1][2] if open_ else decls).append(node)
                pos = m.end()
        elif at == 2:
            name, refs = m[2], []
            while (m := _REF_ITEM.match(scan, pos)) is not None and m.lastindex:
                refs.append(ref(m, 1))
                pos = m.end()
            if m is None or not refs:
                return None
            decls.append(EventNode(name, tuple(refs), span(first, pos + 1)))
            pos = m.end()
        else:
            edges: list[BehaviorEdgeNode] = []
            while (m := _CHRONOLOGY_ITEM.match(scan, pos)) is not None and m.lastindex:
                before, after, repeat = m.group(1, 2, 3)
                edges.append(BehaviorEdgeNode(before, after, repeat is not None,
                                              span(pos, m.start(4))))
                pos = m.end()
            if m is None:
                return None
            decls.append(BehaviorNode(tuple(edges), span(first, pos + 1)))
            pos = m.end()
    return Ast(tuple(decls))


def parse(text: str) -> Ast:
    """Parse model text into an AST.

    Well-formed text is read a declaration at a time (:func:`_scan`);
    text that the scanner does not read, well-formed or not, goes through
    the token parser. Parsing recovers at declaration boundaries so one
    bad declaration does not hide later ones; if anything failed, a
    :class:`ParseFailure` carrying every error is raised at the end.
    """
    ast = _scan(text)
    if ast is not None:
        return ast
    parser = _Parser(text)
    ast = parser.parse_model()
    if parser.errors:
        raise ParseFailure(parser.errors)
    return ast


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

    # Depth first in document order; a stage is paired with its owner's path.
    pending: list[tuple[ThimacNode | StageNode, str | None]] = [
        (decl, None) for decl in reversed(ast.declarations) if isinstance(decl, ThimacNode)]
    while pending:
        node, parent = pending.pop()
        if isinstance(node, StageNode):
            sid = stage_ref_text(parent, node.kind, node.label)
            stages.append(Stage(id=sid, kind=node.kind, owner=parent, label=node.label))
            continue
        path = node.name if parent is None else f"{parent}.{node.name}"
        thimacs.append(Thimac(id=path, name=node.name, parent=parent))
        pending.extend((item, path) for item in reversed(node.body))

    # Each reference resolves to its stage's own id string, so the model
    # and the events hold one string per stage, not one per reference.
    stage_ids = {s.id: s.id for s in stages}
    diags: list[Diagnostic] = []

    def resolve(ref: StageRef) -> str | None:
        sid = stage_ids.get(ref.text)
        if sid is None:
            diags.append(error(
                REF_UNRESOLVED, f"unknown stage reference '{ref.text}'", ref.text, ref.span))
        return sid

    edges = EdgeSet()
    event_decls: list[EventDecl] = []
    behavior_edges: list[BehaviorEdge] = []
    saw_behavior = False
    declared_events = {d.name for d in ast.declarations if isinstance(d, EventNode)}

    lowered_edge = {node: model_edge for node, _, model_edge in EDGES.values()}
    for decl in ast.declarations:
        make = lowered_edge.get(type(decl))
        if make is not None:
            src, dst = resolve(decl.source), resolve(decl.target)
            if src is not None and dst is not None:
                diags += edges.add(make(src, dst), decl.span)
        elif isinstance(decl, EventNode):
            region = tuple(sid for sid in (resolve(ref) for ref in decl.refs) if sid is not None)
            event_decls.append(EventDecl(decl.name, region, decl.span))
        elif isinstance(decl, BehaviorNode):
            saw_behavior = True
            for edge in decl.edges:
                missing = [n for n in (edge.before, edge.after) if n not in declared_events]
                for name in missing:
                    diags.append(error(
                        REF_UNRESOLVED,
                        f"chronology names undeclared event '{name}'",
                        name,
                        edge.span,
                    ))
                if not missing:
                    behavior_edges.append(BehaviorEdge(edge.before, edge.after, edge.repeat))

    model, build_diags = try_build_model(thimacs, stages, edges.flows, edges.triggers)
    all_diags = build_diags + diags
    if all_diags:
        raise ModelError(all_diags)
    assert model is not None
    behavior = None
    if saw_behavior:
        behavior = BehaviorGraph(
            nodes=tuple(e.name for e in event_decls),
            edges=tuple(behavior_edges),
        )
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
    indented, one declaration per line. Formatting then re-parsing yields a
    structurally equal document, and formatting is idempotent.
    """
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
            stage = model.stage(sid)
            label = f"({stage.label})" if stage.label else ""
            block.append(f"{pad}{_INDENT}{stage.kind.value}{label};")

    for keyword, edges in (("flow", model.flows), ("trigger", model.triggers)):
        arrow = EDGES[keyword][1]
        if edges:
            sections.append([
                f"{keyword} {model.stage_ref(e.source)} {arrow} {model.stage_ref(e.target)};"
                for e in edges
            ])

    for event in events:
        body = [f"event {event.name} {{"]
        for element in event.region:
            if model.has_stage(element):
                body.append(f"{_INDENT}{model.stage_ref(element)};")
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
