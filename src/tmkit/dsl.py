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
only in keyword and arrow, so they share one grammar rule, one table
(``EDGES``) that the parser and the formatter read, and one branch of
lowering. The optional
"repeat" mark on a chronology edge declares a permitted loop back to an
earlier event rather than a precedence constraint. Files use the ".tm"
extension and hold one model each.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Union

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

@dataclass(frozen=True)
class StageRef:
    path: tuple[str, ...]
    kind: StageKind
    label: str | None
    span: Span = field(compare=False)

    @property
    def text(self) -> str:
        return stage_ref_text(".".join(self.path), self.kind, self.label)


@dataclass(frozen=True)
class StageNode:
    kind: StageKind
    label: str | None
    span: Span = field(compare=False)


@dataclass(frozen=True)
class ThimacNode:
    name: str
    body: tuple[Union["ThimacNode", StageNode], ...]
    span: Span = field(compare=False)


@dataclass(frozen=True)
class FlowNode:
    source: StageRef
    target: StageRef
    span: Span = field(compare=False)


@dataclass(frozen=True)
class TriggerNode:
    source: StageRef
    target: StageRef
    span: Span = field(compare=False)


@dataclass(frozen=True)
class EventNode:
    name: str
    refs: tuple[StageRef, ...]
    span: Span = field(compare=False)


@dataclass(frozen=True)
class BehaviorEdgeNode:
    before: str
    after: str
    repeat: bool
    span: Span = field(compare=False)


@dataclass(frozen=True)
class BehaviorNode:
    edges: tuple[BehaviorEdgeNode, ...]
    span: Span = field(compare=False)


Declaration = Union[ThimacNode, FlowNode, TriggerNode, EventNode, BehaviorNode]

# Edge keyword -> the AST node it declares and the arrow it is written with.
EDGES = {"flow": (FlowNode, "->"), "trigger": (TriggerNode, "~>")}


@dataclass(frozen=True)
class Ast:
    declarations: tuple[Declaration, ...]


# -- tokenizer ----------------------------------------------------------------

class _Token(NamedTuple):
    type: str
    text: str
    line: int
    column: int
    start: int
    end: int


# One alternative per lexical class; the first that matches wins. A word
# starts with a letter or '_': ``[^\W\d]`` also admits numerals that are
# not decimal digits (such as '²'), which _tokenize reports one by one.
_SCAN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<punct>->|~>|[{}();.])
  | (?P<word>[^\W\d]\w*)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)
_WORD_TYPES = {**{word: word for word in KEYWORDS}, **{word: "kind" for word in KIND_BY_NAME}}


def _tokenize(text: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, line_start, pos, n = 1, 0, 0, len(text)
    m = None
    while pos < n:
        m = _SCAN.match(text, pos)
        start, pos = m.span()
        kind, word = m.lastgroup, m[0]
        column = start - line_start + 1
        if kind == "newline":
            line += 1
            line_start = pos
        elif kind == "punct":
            tokens.append(_Token(word, word, line, column, start, pos))
        elif kind == "word" and (word[0].isalpha() or word[0] == "_"):
            tokens.append(_Token(_WORD_TYPES.get(word, "name"), word, line, column, start, pos))
        elif kind in ("word", "other"):
            errors.append(ParseError(line, column, ("a declaration",), repr(text[start])))
            pos = start + 1
    # A comment ending the input leaves the end-of-input column at its '#'.
    end = m.start() if m is not None and m.lastgroup == "comment" else pos
    tokens.append(_Token("eof", "", line, end - line_start + 1, pos, pos))
    return tokens, errors


# -- parser -------------------------------------------------------------------

class _Syntax(Exception):
    def __init__(self, err: ParseError):
        self.err = err


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def expect(self, ttype: str, description: str | None = None) -> _Token:
        tok = self.peek()
        if tok.type != ttype:
            raise self.unexpected((description or f"'{ttype}'",))
        return self.advance()

    def unexpected(self, expected: tuple[str, ...]) -> _Syntax:
        tok = self.peek()
        found = "end of input" if tok.type == "eof" else f"'{tok.text}'"
        return _Syntax(ParseError(tok.line, tok.column, expected, found))

    def recover(self) -> None:
        """Skip to the next declaration boundary: past a top-level ';' or
        the '}' closing the declaration the error occurred in."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.type == "eof":
                return
            if depth == 0 and tok.type in self.RULES:
                return
            self.advance()
            if tok.type == "{":
                depth += 1
            elif tok.type == "}":
                if depth <= 1:
                    return
                depth -= 1
            elif tok.type == ";" and depth == 0:
                return

    def parse_model(self) -> Ast:
        decls: list[Declaration] = []
        while self.peek().type != "eof":
            try:
                rule = self.RULES.get(self.peek().type)
                if rule is None:
                    raise self.unexpected(("a declaration",))
                decls.append(rule(self))
            except _Syntax as exc:
                self.errors.append(exc.err)
                self.recover()
        return Ast(tuple(decls))

    def thimac(self) -> ThimacNode:
        # The open thimacs, innermost last: first token, name, body so far.
        open_: list[tuple[_Token, str, list[ThimacNode | StageNode]]] = []
        while True:
            tok = self.peek()
            if tok.type == "thimac" or not open_:
                first = self.expect("thimac")
                name = self.expect("name", "a thimac name")
                self.expect("{")
                open_.append((first, name.text, []))
            elif tok.type == "kind":
                open_[-1][2].append(self.stage())
            elif tok.type == "}":
                first, name, body = open_.pop()
                node = ThimacNode(name, tuple(body), _span(first, self.advance()))
                if not open_:
                    return node
                open_[-1][2].append(node)
            else:
                raise self.unexpected(("a stage", "'thimac'", "'}'"))

    def stage(self) -> StageNode:
        kind_tok = self.expect("kind")
        label = self.optional_label()
        last = self.expect(";")
        return StageNode(KIND_BY_NAME[kind_tok.text], label, _span(kind_tok, last))

    def optional_label(self) -> str | None:
        if self.peek().type != "(":
            return None
        self.advance()
        name = self.expect("name", "a label")
        self.expect(")")
        return name.text

    def stage_ref(self) -> StageRef:
        first = self.expect("name", "a stage reference")
        path = [first.text]
        kind: StageKind | None = None
        last = first
        while kind is None:
            self.expect(".")
            tok = self.peek()
            if tok.type == "kind":
                kind = KIND_BY_NAME[tok.text]
                last = self.advance()
            elif tok.type == "name":
                path.append(tok.text)
                last = self.advance()
            else:
                raise self.unexpected(("a thimac name", "a stage kind"))
        label = self.optional_label()
        if label is not None:
            last = self.tokens[self.pos - 1]
        return StageRef(tuple(path), kind, label, _span(first, last))

    def edge(self) -> FlowNode | TriggerNode:
        first = self.advance()
        node, arrow = EDGES[first.type]
        source = self.stage_ref()
        self.expect(arrow, f"'{arrow}'")
        target = self.stage_ref()
        last = self.expect(";")
        return node(source, target, _span(first, last))

    def event(self) -> EventNode:
        first = self.expect("event")
        name = self.expect("name", "an event name")
        self.expect("{")
        refs = [self.stage_ref()]
        self.expect(";")
        while self.peek().type != "}":
            refs.append(self.stage_ref())
            self.expect(";")
        last = self.advance()
        return EventNode(name.text, tuple(refs), _span(first, last))

    def behavior(self) -> BehaviorNode:
        first = self.expect("behavior")
        self.expect("{")
        edges: list[BehaviorEdgeNode] = []
        while self.peek().type != "}":
            before = self.expect("name", "an event name")
            self.expect("->", "'->'")
            after = self.expect("name", "an event name")
            repeat = False
            if self.peek().type == "repeat":
                self.advance()
                repeat = True
            semi = self.expect(";")
            edges.append(BehaviorEdgeNode(before.text, after.text, repeat, _span(before, semi)))
        last = self.advance()
        return BehaviorNode(tuple(edges), _span(first, last))

    # Declaration keyword -> rule; recover() also stops at each keyword.
    # Plain functions, not bound methods: a table of bound methods on the
    # instance would keep the parser and its tokens alive in a cycle.
    RULES = {"thimac": thimac, **dict.fromkeys(EDGES, edge), "event": event, "behavior": behavior}


def _span(first: _Token, last: _Token) -> Span:
    return Span(first.line, first.column, first.start, last.end)


def parse(text: str) -> Ast:
    """Parse model text into an AST.

    Parsing recovers at declaration boundaries so one bad declaration does
    not hide later ones; if anything failed, a :class:`ParseFailure`
    carrying every error is raised at the end.
    """
    tokens, errors = _tokenize(text)
    parser = _Parser(tokens)
    ast = parser.parse_model()
    errors.extend(parser.errors)
    if errors:
        raise ParseFailure(errors)
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

    stage_ids = {s.id for s in stages}
    diags: list[Diagnostic] = []

    def resolve(ref: StageRef) -> str | None:
        sid = ref.text
        if sid not in stage_ids:
            diags.append(error(
                REF_UNRESOLVED, f"unknown stage reference '{sid}'", sid, ref.span))
            return None
        return sid

    edges = EdgeSet()
    event_decls: list[EventDecl] = []
    behavior_edges: list[BehaviorEdge] = []
    saw_behavior = False
    declared_events = {d.name for d in ast.declarations if isinstance(d, EventNode)}

    for decl in ast.declarations:
        if isinstance(decl, (FlowNode, TriggerNode)):
            src, dst = resolve(decl.source), resolve(decl.target)
            if src is not None and dst is not None:
                make = FlowEdge if isinstance(decl, FlowNode) else TriggerEdge
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
    return lower(parse(Path(path).read_text(encoding="utf-8")))


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
