"""Golden traces: SHA-256 digests of ``run(...).to_ndjson()`` pinned in
``fixtures/golden_traces.json``.

Every simulator change must keep these traces byte-identical. The cases
are the corpus models with their declared events, ``random_model`` draws
with their elementary events plus one event over every stage, a small
refined-input model that loops until the step bound unless its accept
stage rejects, five independent producer/consumer pairs (a wide
candidate frontier), and five pairs relayed round a ring by triggers,
which loops to the step bound while parked tokens pile up. Each runs
under both policies, seeds 0-4 and creation caps 1 and 2; models with
accept stages also run once with every accept stage rejecting.

To record the digests again after an intended change of behaviour, run
``PYTHONPATH=src python tests/test_golden_traces.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import CORPUS_NAMES, random_model
from tmkit.cli import corpus
from tmkit.dsl import load, lower, parse
from tmkit.dynamics import (
    FIFO,
    RANDOM,
    SimOptions,
    build_events,
    define_event,
    elementary_events,
    run,
)
from tmkit.model import StageKind

GOLDEN = Path(__file__).parent / "fixtures" / "golden_traces.json"
RANDOM_SEEDS = range(20)

LOOPING_ACCEPT = """
thimac Src { create; release; transfer; }
thimac Dst { transfer; arrive; accept; process; }
thimac Loop { create(tick); process(tick); }
flow Src.create -> Src.release;
flow Src.release -> Src.transfer;
flow Src.transfer -> Dst.transfer;
flow Dst.transfer -> Dst.arrive;
flow Dst.arrive -> Dst.accept;
flow Dst.accept -> Dst.process;
flow Loop.create(tick) -> Loop.process(tick);
trigger Dst.process ~> Loop.create(tick);
trigger Loop.process(tick) ~> Loop.create(tick);
event Hand { Src.transfer; Dst.transfer; }
event Take { Dst.transfer; Dst.arrive; Dst.accept; }
event Tick { Loop.create(tick); Loop.process(tick); }
"""


def _pairs(n: int, ring: bool) -> str:
    """n producer/consumer pairs joined at their transfer ports, one event
    per pair. With ``ring``, each consumer's process triggers the next
    producer's create and a starter holds the only spontaneous create."""
    lines = ["thimac Starter { create; }", "trigger Starter.create ~> P0.create;"] if ring else []
    for i in range(n):
        walk = [f"P{i}.create", f"P{i}.process", f"P{i}.release", f"P{i}.transfer",
                f"C{i}.transfer", f"C{i}.receive", f"C{i}.process"]
        lines.append(f"thimac P{i} {{ create; process; release; transfer; }}")
        lines.append(f"thimac C{i} {{ transfer; receive; process; }}")
        lines.extend(f"flow {a} -> {b};" for a, b in zip(walk, walk[1:]))
        lines.append(f"event E{i} {{ {walk[0]}; {walk[-1]}; }}")
        if ring:
            lines.append(f"trigger {walk[-1]} ~> P{(i + 1) % n}.create;")
    return "\n".join(lines) + "\n"


INLINE = {
    "looping_accept": LOOPING_ACCEPT,
    "fanout": _pairs(5, ring=False),
    "relay_ring": _pairs(5, ring=True),
}

CASES = (
    *(f"corpus/{name}" for name in CORPUS_NAMES),
    *(f"random/{seed}" for seed in RANDOM_SEEDS),
    *(f"inline/{name}" for name in INLINE),
)


def _case(name: str):
    """The model and events of one golden case."""
    group, _, key = name.partition("/")
    if group == "random":
        model = random_model(random.Random(int(key)))
        whole, _ = define_event(model, "All", [s.id for s in model.stages])
        return model, [*elementary_events(model), whole]
    doc = load(corpus()[key]) if group == "corpus" else lower(parse(INLINE[key]))
    events, _ = build_events(doc.model, doc.events)
    return doc.model, events


def _digests(model, events) -> dict[str, str]:
    runs: dict[str, SimOptions] = {}
    for policy in (FIFO, RANDOM):
        for seed in range(5):
            for cap in (1, 2):
                runs[f"{policy} seed={seed} cap={cap}"] = SimOptions(
                    seed=seed, creation_cap=cap, policy=policy)
    accepts = frozenset(s.id for s in model.stages if s.kind is StageKind.ACCEPT)
    if accepts:
        runs["fifo reject_accept"] = SimOptions(reject_accept=accepts)
    return {
        key: hashlib.sha256(run(model, events, options).to_ndjson().encode()).hexdigest()
        for key, options in runs.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_trace_matches_golden_digest(name, golden):
    assert _digests(*_case(name)) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _digests(*_case(name)) for name in CASES}, indent=1, sort_keys=True) + "\n")
