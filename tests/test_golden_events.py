"""Golden events: one SHA-256 digest over the event layer of ``validator``
on seeded model draws, pinned in ``fixtures/golden_events.json``.

Per draw, alternately from ``random_model`` and ``arbitrary_model``, the
digest covers ``repr`` of, in order:

- ``define_event`` on random regions of stages and edges, with repeated
  ids, unknown ids, empty regions and explicit ``constituents``: the
  ``(Event, warnings)`` pair, or the diagnostics of the raised
  ``ModelError``, or the ``ValueError`` message;
- ``build_events`` on random declarations, some declared twice;
- ``check_behavior(...).diagnostics`` on random chronologies over the
  declared names, some of whose events failed to build, and a few names
  never declared: plain and repeat edges, self-loops and cycles.

The test also checks that enough draws exercise each outcome, so a change
there cannot pass by luck.

To record the digest again after an intended change of behaviour, run
``PYTHONPATH=src python tests/test_golden_events.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from conftest import arbitrary_model, random_model
from tmkit.diagnostics import ModelError, Span
from tmkit.model import BehaviorEdge, BehaviorGraph, EventDecl
from tmkit.validator import (
    COMPOSITE,
    ELEMENTARY,
    build_events,
    check_behavior,
    define_event,
    elementary_events,
)

GOLDEN = Path(__file__).parent / "fixtures" / "golden_events.json"
SEED = 17
DRAWS = 2000
MIN_PER_CASE = 50
UNKNOWN = ("ghost", "flow:ghost->ghost", "trigger:ghost~>ghost")


def _region(rng: random.Random, elements: list[str]) -> list[str]:
    """Zero to four elements, mostly distinct known ids; sometimes an id
    named twice or one the model does not have."""
    region = rng.sample(elements, min(len(elements), rng.choice((0, 1, 1, 1, 2, 2, 3, 4))))
    if region and rng.random() < 0.1:
        region.insert(rng.randrange(len(region) + 1), rng.choice(region))
    if rng.random() < 0.1:
        region.append(rng.choice(UNKNOWN))
    return region


def _span(rng: random.Random) -> Span | None:
    return Span(rng.randint(1, 9), rng.randint(1, 9), 0, 1) if rng.random() < 0.5 else None


def _define(model, rng: random.Random, elements: list[str], known: list) -> tuple:
    """One ``define_event`` call: its result, or what it raised, and
    whether it was given explicit constituents."""
    constituents = None
    region = _region(rng, elements)
    if known and rng.random() < 0.3:
        constituents = rng.sample(known, rng.randint(1, min(3, len(known))))
        union = list(dict.fromkeys(e for c in constituents for e in c.region))
        region = rng.choice(([], union[::-1], union, region))
    try:
        result = define_event(model, f"D{len(known)}", region, constituents, _span(rng))
    except ModelError as exc:
        result = ("ModelError", exc.diagnostics)
    except ValueError as exc:
        result = ("ValueError", str(exc))
    return result, constituents is not None


def _chronology(rng: random.Random, declared: list[str], names: list[str]) -> BehaviorGraph:
    """Edges over ``names`` that mostly follow one hidden order (repeat
    edges mostly run against it); the rest give self-loops and cycles.
    The graph's nodes are the ``declared`` names, as ``lower`` makes them."""
    order = list(names)
    rng.shuffle(order)
    edges = []
    for _ in range(rng.randint(0, 2 * len(names))):
        a, b = rng.choice(names), rng.choice(names)
        repeat = rng.random() < 0.25
        if rng.random() < 0.8:
            a, b = sorted((a, b), key=order.index, reverse=repeat)
        edges.append(BehaviorEdge(a, b, repeat))
    return BehaviorGraph(tuple(declared), tuple(edges))


BEHAVIOR_CASES = {
    "chronology edges form a cycle": "cycle",
    "repeat edge": "repeat edge off the loop",
    "no flow or trigger path": "no path",
    "chronology edge names undeclared event": "undeclared event named",
}


def _behavior_cases(graph: BehaviorGraph, events, behavior) -> set[str]:
    """Which outcomes of ``check_behavior`` one chronology exercises."""
    cases = {case for d in behavior for prefix, case in BEHAVIOR_CASES.items()
             if d.message.startswith(prefix)}
    built = {e.id for e in events}
    failed = {d.element for d in behavior}
    for edge in graph.edges:
        if {edge.before, edge.after} <= built and f"{edge.before}->{edge.after}" not in failed:
            if not edge.repeat:
                cases.add("path")
            elif "cycle" not in cases:
                cases.add("repeat edge on the loop")
    return cases


def digest_and_cases() -> tuple[str, Counter]:
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    cases: Counter = Counter()
    for draw in range(DRAWS):
        model = (random_model if draw % 2 == 0 else arbitrary_model)(rng)
        elements = list(model.element_ids())
        known = elementary_events(model)
        defined = []
        seen: set[str] = set()
        for _ in range(4):
            result, explicit = _define(model, rng, elements, known)
            defined.append(result)
            if isinstance(result[0], str):
                seen.add(f"define {result[0]}")
                seen.update(f"define {d.code}" for d in result[1] if result[0] == "ModelError")
                continue
            event, warns = result
            known.append(event)
            seen.add(f"define {event.level}{' explicit' if explicit else ''}")
            seen.update(f"define {w.code}" for w in warns)
        names = [f"E{i}" for i in range(rng.randint(1, 6))]
        decls = [EventDecl(rng.choice(names), tuple(_region(rng, elements)), _span(rng))
                 for _ in range(rng.randint(0, 7))]
        events, diags = build_events(model, decls)
        seen.update(f"build {d.code}" for d in diags)
        seen.update(f"build {e.level}" for e in events)
        declared = list(dict.fromkeys(d.name for d in decls))
        graph = _chronology(rng, declared, (declared or names[:1]) + ["ghost"] * (rng.random() < 0.2))
        behavior = check_behavior(model, events, graph).diagnostics
        seen.update(_behavior_cases(graph, events, behavior))
        cases.update(seen)
        digest.update(repr((defined, events, diags, behavior)).encode())
        digest.update(b"\n")
    return digest.hexdigest(), cases


def test_event_layer_matches_golden_digest():
    digest, cases = digest_and_cases()
    assert digest == json.loads(GOLDEN.read_text())["digest"]
    levels = {f"{layer} {level}" for layer in ("define", "build") for level in (ELEMENTARY, COMPOSITE)}
    assert set(cases) == levels | {
        f"define {COMPOSITE} explicit",
        "define ValueError",
        "define ModelError",
        *(f"{layer} {code}" for layer in ("define", "build")
          for code in ("DUP_NAME", "REF_UNRESOLVED", "REGION_EMPTY", "REGION_DISCONNECTED")),
        *BEHAVIOR_CASES.values(),
        "path",
        "repeat edge on the loop",
    }
    assert min(cases.values()) >= MIN_PER_CASE, cases


if __name__ == "__main__":
    digest, cases = digest_and_cases()
    GOLDEN.write_text(json.dumps({"seed": SEED, "draws": DRAWS, "digest": digest}, indent=1) + "\n")
    print(digest, dict(cases))
