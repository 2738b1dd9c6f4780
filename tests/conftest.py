"""Shared fixtures: corpus access, a seeded random-model generator, and
brute-force oracles kept deliberately independent of the library code
they check."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from tmkit.cli import corpus
from tmkit.diagnostics import Diagnostic, ModelError
from tmkit.dsl import Document, load
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


# -- oracles ----------------------------------------------------------------

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
