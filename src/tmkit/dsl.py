"""Textual syntax for models, events, and chronologies.

Grammar (whitespace is free; comments run from '#' to end of line):

    model     := decl*
    decl      := thimac | flow | trigger | event | behavior
    thimac    := "thimac" NAME "{" (stage | thimac)* "}"
    stage     := KIND ("(" NAME ")")? ";"
    flow      := "flow" stageRef "->" stageRef ";"
    trigger   := "trigger" stageRef "~>" stageRef ";"
    event     := "event" NAME "{" (stageRef ";")+ "}"
    behavior  := "behavior" "{" (NAME "->" NAME ("repeat")? ";")* "}"
    stageRef  := NAME ("." NAME)* "." KIND ("(" NAME ")")?
    KIND      := "create" | "process" | "release" | "transfer"
               | "receive" | "arrive" | "accept"

Solid arrows ("->") declare flows and dashed arrows ("~>") declare
triggers, matching the two arrow styles of the diagrams. The optional
"repeat" mark on a chronology edge declares a permitted loop back to an
earlier event rather than a precedence constraint. Files use the ".tm"
extension and hold one model each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from .diagnostics import (
    DUP_NAME,
    REF_UNRESOLVED,
    Diagnostic,
    ModelError,
    Span,
    TmError,
    error,
)
from .model import (
    KIND_BY_NAME,
    BehaviorEdge,
    BehaviorGraph,
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
_PUNCT = {"{", "}", "(", ")", ";", "."}


@dataclass(frozen=True)
class SourceFile:
    path: str
    text: str

    @classmethod
    def read(cls, path: str | Path) -> "SourceFile":
        return cls(str(path), Path(path).read_text(encoding="utf-8"))


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


@dataclass(frozen=True)
class Ast:
    declarations: tuple[Declaration, ...]


# -- tokenizer ----------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    type: str
    text: str
    line: int
    column: int
    start: int
    end: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.column, self.start, self.end)


def _tokenize(text: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("->", "->", line, col, i, i + 2))
            i += 2
            col += 2
            continue
        if c == "~" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("~>", "~>", line, col, i, i + 2))
            i += 2
            col += 2
            continue
        if c in _PUNCT:
            tokens.append(_Token(c, c, line, col, i, i + 1))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            word = text[start:i]
            if word in KIND_BY_NAME:
                ttype = "kind"
            elif word in KEYWORDS:
                ttype = word
            else:
                ttype = "name"
            tokens.append(_Token(ttype, word, line, start_col, start, i))
            continue
        errors.append(ParseError(line, col, ("a declaration",), repr(c)))
        i += 1
        col += 1
    tokens.append(_Token("eof", "", line, col, i, i))
    return tokens, errors


# -- parser -------------------------------------------------------------------

class _Syntax(Exception):
    def __init__(self, err: ParseError):
        self.err = err


_TOP_KEYWORDS = ("thimac", "flow", "trigger", "event", "behavior")


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
            if depth == 0 and tok.type in _TOP_KEYWORDS:
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
                tok = self.peek()
                if tok.type == "thimac":
                    decls.append(self.thimac())
                elif tok.type == "flow":
                    decls.append(self.flow())
                elif tok.type == "trigger":
                    decls.append(self.trigger())
                elif tok.type == "event":
                    decls.append(self.event())
                elif tok.type == "behavior":
                    decls.append(self.behavior())
                else:
                    raise self.unexpected(("a declaration",))
            except _Syntax as exc:
                self.errors.append(exc.err)
                self.recover()
        return Ast(tuple(decls))

    def thimac(self) -> ThimacNode:
        first = self.expect("thimac")
        name = self.expect("name", "a thimac name")
        self.expect("{")
        body: list[ThimacNode | StageNode] = []
        while True:
            tok = self.peek()
            if tok.type == "}":
                last = self.advance()
                break
            if tok.type == "thimac":
                body.append(self.thimac())
            elif tok.type == "kind":
                body.append(self.stage())
            else:
                raise self.unexpected(("a stage", "'thimac'", "'}'"))
        return ThimacNode(name.text, tuple(body), _span(first, last))

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

    def flow(self) -> FlowNode:
        first = self.expect("flow")
        source = self.stage_ref()
        self.expect("->", "'->'")
        target = self.stage_ref()
        last = self.expect(";")
        return FlowNode(source, target, _span(first, last))

    def trigger(self) -> TriggerNode:
        first = self.expect("trigger")
        source = self.stage_ref()
        self.expect("~>", "'~>'")
        target = self.stage_ref()
        last = self.expect(";")
        return TriggerNode(source, target, _span(first, last))

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


def _span(first: _Token, last: _Token) -> Span:
    return Span(first.line, first.column, first.start, last.end)


def parse(source: str | SourceFile) -> Ast:
    """Parse model text into an AST.

    Parsing recovers at declaration boundaries so one bad declaration does
    not hide later ones; if anything failed, a :class:`ParseFailure`
    carrying every error is raised at the end.
    """
    text = source.text if isinstance(source, SourceFile) else source
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

    def walk(node: ThimacNode, parent: str | None) -> None:
        path = node.name if parent is None else f"{parent}.{node.name}"
        thimacs.append(Thimac(id=path, name=node.name, parent=parent))
        for item in node.body:
            if isinstance(item, StageNode):
                sid = stage_ref_text(path, item.kind, item.label)
                stages.append(Stage(id=sid, kind=item.kind, owner=path, label=item.label))
            else:
                walk(item, path)

    for decl in ast.declarations:
        if isinstance(decl, ThimacNode):
            walk(decl, None)

    stage_ids = {s.id for s in stages}
    diags: list[Diagnostic] = []

    def resolve(ref: StageRef) -> str | None:
        sid = ref.text
        if sid not in stage_ids:
            diags.append(error(
                REF_UNRESOLVED, f"unknown stage reference '{sid}'", sid, ref.span))
            return None
        return sid

    flows: list[FlowEdge] = []
    triggers: list[TriggerEdge] = []
    event_decls: list[EventDecl] = []
    behavior_edges: list[BehaviorEdge] = []
    saw_behavior = False
    declared_events = {d.name for d in ast.declarations if isinstance(d, EventNode)}

    edge_ids: set[str] = set()

    def add_edge(edges: list, edge: FlowEdge | TriggerEdge, span: Span) -> None:
        if edge.id in edge_ids:
            diags.append(error(DUP_NAME, f"edge '{edge.id}' is declared twice", edge.id, span))
        else:
            edge_ids.add(edge.id)
            edges.append(edge)

    for decl in ast.declarations:
        if isinstance(decl, FlowNode):
            src, dst = resolve(decl.source), resolve(decl.target)
            if src is not None and dst is not None:
                add_edge(flows, FlowEdge(src, dst), decl.span)
        elif isinstance(decl, TriggerNode):
            src, dst = resolve(decl.source), resolve(decl.target)
            if src is not None and dst is not None:
                add_edge(triggers, TriggerEdge(src, dst), decl.span)
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

    model, build_diags = try_build_model(thimacs, stages, flows, triggers)
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
    return lower(parse(SourceFile.read(path)))


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
    def emit_thimac(thimac: Thimac, depth: int, out: list[str]) -> None:
        pad = _INDENT * depth
        out.append(f"{pad}thimac {thimac.name} {{")
        for sid in thimac.stages:
            stage = model.stage(sid)
            label = f"({stage.label})" if stage.label else ""
            out.append(f"{pad}{_INDENT}{stage.kind.value}{label};")
        for child_id in thimac.children:
            emit_thimac(model.thimac(child_id), depth + 1, out)
        out.append(f"{pad}}}")

    sections: list[list[str]] = []
    for root in model.root_thimacs:
        block: list[str] = []
        emit_thimac(root, 0, block)
        sections.append(block)

    if model.flows:
        sections.append([
            f"flow {model.stage_ref(f.source)} -> {model.stage_ref(f.target)};"
            for f in model.flows
        ])
    if model.triggers:
        sections.append([
            f"trigger {model.stage_ref(t.source)} ~> {model.stage_ref(t.target)};"
            for t in model.triggers
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
