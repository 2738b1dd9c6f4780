"""Shared fixtures: corpus access, a seeded random-model generator,
brute-force oracles kept deliberately independent of the library code
they check, the token parser read from the start of a text, the
reference for the declaration scanner, and a spy on where the scanner
declines and what the token parser reads."""

from __future__ import annotations

import functools
import importlib.util
import itertools
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from tmkit import dsl
from tmkit.cli import corpus
from tmkit.diagnostics import Diagnostic, ModelError
from tmkit.dsl import Ast, Document, ParseError, ParseFailure, load, parse
from tmkit.dynamics import STAGE_EXECUTED, TOKEN_REJECTED, Candidate, SimState
from tmkit.model import (
    FlowEdge,
    Stage,
    StageKind,
    Thimac,
    TmModel,
    TriggerEdge,
    build_model,
    stage_ref_text,
)
from tmkit.validator import validate_document

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS_NAMES = ("heating_water", "reservation", "dough_cookie", "tendering")
SHAPES_PY = Path(__file__).parent.parent / "perfbench" / "shapes.py"


@functools.cache
def load_shapes():
    """The benchmark's shape generators, ``perfbench/shapes.py``, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_shapes", SHAPES_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def corpus_paths() -> dict[str, Path]:
    return corpus()


@pytest.fixture(scope="session")
def corpus_docs(corpus_paths) -> dict[str, Document]:
    return {name: load(path) for name, path in corpus_paths.items()}


def pipeline_diagnostics(path: Path) -> list[Diagnostic]:
    """Full pipeline on one file, collecting diagnostics whether the file
    fails to lower or merely fails validation."""
    try:
        doc = load(path)
    except ModelError as exc:
        return list(exc.diagnostics)
    report, _ = validate_document(doc.model, doc.events, doc.behavior)
    return list(report.diagnostics)


# -- random model generation ---------------------------------------------

def random_model(rng: random.Random, max_stages: int = 30) -> TmModel:
    """A structurally and semantically valid model with chained things.

    Each chain is either self-contained (create .. process) or a producer/
    consumer pair joined at the transfer ports. Triggers only point from
    earlier chains to later ones, so runs terminate without the step bound.
    """
    thimacs: list[Thimac] = []
    stages: list[Stage] = []
    flows: list[FlowEdge] = []
    triggers: list[TriggerEdge] = []
    chain_ends: list[str] = []  # a process/create stage id per chain, for triggers
    chain_starts: list[str] = []

    def add_thimac(name: str, parent: str | None) -> str:
        tid = name if parent is None else f"{parent}.{name}"
        thimacs.append(Thimac(id=tid, name=name, parent=parent))
        return tid

    def add_stage(owner: str, kind: StageKind, label: str | None) -> str:
        sid = stage_ref_text(owner, kind, label)
        stages.append(Stage(id=sid, kind=kind, owner=owner, label=label))
        return sid

    n_chains = rng.randint(1, 5)
    serial = 0
    for chain in range(n_chains):
        if len(stages) + 7 > max_stages:
            break
        label = rng.choice((None, f"w{chain}"))
        parent = None
        if thimacs and rng.random() < 0.3:
            parent = rng.choice(thimacs).id
        producer = add_thimac(f"T{serial}", parent)
        serial += 1
        created = add_stage(producer, StageKind.CREATE, label)
        chain_starts.append(created)
        prev = created
        if rng.random() < 0.5:
            mid = add_stage(producer, StageKind.PROCESS, label)
            flows.append(FlowEdge(prev, mid))
            prev = mid
        if rng.random() < 0.6:
            # hand the thing over to a consumer thimac
            rel = add_stage(producer, StageKind.RELEASE, label)
            out = add_stage(producer, StageKind.TRANSFER, label)
            flows.append(FlowEdge(prev, rel))
            flows.append(FlowEdge(rel, out))
            consumer = add_thimac(f"T{serial}", None)
            serial += 1
            inp = add_stage(consumer, StageKind.TRANSFER, label)
            rec = add_stage(consumer, StageKind.RECEIVE, label)
            done = add_stage(consumer, StageKind.PROCESS, label)
            flows.append(FlowEdge(out, inp))
            flows.append(FlowEdge(inp, rec))
            flows.append(FlowEdge(rec, done))
            chain_ends.append(done)
        else:
            chain_ends.append(prev)

    # forward-only triggers keep runs finite
    for i, source in enumerate(chain_ends):
        for j, target in enumerate(chain_starts):
            if j > i and rng.random() < 0.4:
                triggers.append(TriggerEdge(source, target))

    return build_model(thimacs, stages, flows, triggers)


def arbitrary_model(rng: random.Random, max_stages: int = 12) -> TmModel:
    """A structurally valid model with no semantic guarantees: stages of
    every kind, nested thimacs, and flows and triggers between any two
    stages, so illegal wiring, self-loops, repeated edges and cycles
    through transport stages all occur."""
    thimacs: list[Thimac] = []
    for i in range(rng.randint(1, 4)):
        parent = rng.choice(thimacs).id if thimacs and rng.random() < 0.4 else None
        tid = f"T{i}" if parent is None else f"{parent}.T{i}"
        thimacs.append(Thimac(id=tid, name=f"T{i}", parent=parent))
    # Sorted, because a set's order is not reproducible across runs.
    slots = sorted({(rng.choice(thimacs).id, rng.choice(list(StageKind)),
                     rng.choice((None, "a", "b"))) for _ in range(rng.randint(1, max_stages))},
                   key=lambda slot: (slot[0], slot[1].value, slot[2] or ""))
    stages = [Stage(id=stage_ref_text(owner, kind, label), kind=kind, owner=owner, label=label)
              for owner, kind, label in slots]
    ids = [s.id for s in stages]
    flows = [FlowEdge(rng.choice(ids), rng.choice(ids))
             for _ in range(rng.randint(0, 2 * len(ids)))]
    triggers = [TriggerEdge(rng.choice(ids), rng.choice(ids))
                for _ in range(rng.randint(0, len(ids)))]
    return build_model(thimacs, stages, flows, triggers)


# -- oracles ----------------------------------------------------------------

def token_parse(text: str) -> tuple[Ast, list[ParseError]]:
    """The AST and the errors of the token parser reading every declaration
    of ``text`` from its start into an AST builder, with no scanner: the
    reference that ``parse``, scanner and token parser together, must
    reproduce."""
    newlines, decls = dsl._newlines(text), dsl._AstBuilder()
    parser = dsl._Parser(text, newlines, decls)
    pos = 0
    while pos < len(text):
        pos = parser.declaration(pos)
    return Ast(tuple(decls), newlines), parser.errors()


def load_text(text: str) -> Document:
    """``load`` of a file that holds ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.tm"
        path.write_text(text, encoding="utf-8")
        return load(path)


class _Declined(Exception):
    """Raised in place of tokenizing: the scanner declined a declaration."""


def scanned(text: str) -> Ast | None:
    """``parse(text)`` if the scanner alone reads ``text``, so that the
    tokenizer never runs, else None."""
    def refuse(*args):
        raise _Declined

    with mock.patch.object(dsl, "_tokens", refuse):
        try:
            return parse(text)
        except _Declined:
            return None


class ReadSpy:
    """Records, while a text is read, each offset where the scanner stops
    short of the end and each token stream: where it starts and the tokens
    it yields."""

    def __init__(self, monkeypatch):
        self.declined: list[int] = []
        self.streams: list[tuple[int, list]] = []
        scan, tokens = dsl._scan, dsl._tokens

        def scan_spy(text, pos, decls):
            stop = scan(text, pos, decls)
            if stop < len(text):
                self.declined.append(stop)
            return stop

        def tokens_spy(text, start, bad):
            read: list = []
            self.streams.append((start, read))
            for token in tokens(text, start, bad):
                read.append(token)
                yield token

        monkeypatch.setattr(dsl, "_scan", scan_spy)
        monkeypatch.setattr(dsl, "_tokens", tokens_spy)

    def failures(self, text: str, read=parse) -> tuple[ParseError, ...]:
        """The parse errors of ``text``, read afresh by ``read``: ``parse``
        or :func:`load_text`."""
        self.declined.clear()
        self.streams.clear()
        with pytest.raises(ParseFailure) as exc:
            read(text)
        return exc.value.errors


def closure_pairs(nodes: list[str], edges: list[tuple[str, str]]) -> set[tuple[str, str]]:
    """Reflexive-transitive closure by plain triple-loop relaxation."""
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if reach[i][j]}


def all_linear_extensions(
    events: tuple[str, ...], edges: list[tuple[str, str]]
) -> list[tuple[str, ...]]:
    """Every permutation of ``events`` that respects the precedence edges."""
    out = []
    for perm in itertools.permutations(events):
        position = {e: i for i, e in enumerate(perm)}
        if all(position[a] < position[b] for a, b in edges):
            out.append(perm)
    return out


def region_stages(model: TmModel, region: tuple[str, ...]) -> set[str]:
    """Stages a region touches: its stages, plus both ends of its edges."""
    out = set()
    for element in region:
        ends = [(e.source, e.target) for e in (*model.flows, *model.triggers) if e.id == element]
        out.update(ends[0] if ends else (element,))
    return out


def undirected_components(nodes: set[str], edges: list[tuple[str, str]]) -> list[set[str]]:
    """Connected components ignoring direction, by repeated sweeps."""
    remaining = set(nodes)
    components = []
    while remaining:
        component = {remaining.pop()}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                if a in component and b in remaining:
                    component.add(b)
                    remaining.discard(b)
                    changed = True
                if b in component and a in remaining:
                    component.add(a)
                    remaining.discard(a)
                    changed = True
        components.append(component)
    return components


def track_arrivals(at: dict[str, list[int]], records) -> None:
    """Follow where tokens sit from the records of one step: an executed
    stage moves its token to the end of that stage's arrival list, and a
    rejection removes the token."""
    for record in records:
        if record.kind not in (STAGE_EXECUTED, TOKEN_REJECTED):
            continue
        (token,) = record.tokens
        for parked in at.values():
            if token in parked:
                parked.remove(token)
        if record.kind == STAGE_EXECUTED:
            at.setdefault(record.element, []).append(token)


def scan_candidates(state: SimState, at: dict[str, list[int]]) -> list[Candidate]:
    """Firing candidates by a full scan: the pending trigger at the queue
    head, then every stage in declaration order, every token in arrival
    order there (``at``, kept by :func:`track_arrivals`) and every flow
    from the stage it has not taken, then every create stage no trigger
    targets that is still under the creation cap."""
    model = state.model
    out = []
    if state.pending:
        out.append(Candidate(kind="trigger", stage=state.pending[0]))
    for stage in model.stages:
        for token in at.get(stage.id, ()):
            for i, flow in enumerate(model.flows):
                if flow.source == stage.id and i not in state.tokens[token]:
                    out.append(Candidate(kind="move", token=token, flow_index=i))
    triggered = {t.target for t in model.triggers}
    for stage in model.stages:
        if (stage.kind is StageKind.CREATE and stage.id not in triggered
                and state.creations_used.get(stage.id, 0) < state.options.creation_cap):
            out.append(Candidate(kind="create", stage=stage.id))
    return out
