"""Seeded generators for the three benchmark model shapes.

Each generator takes a size and a seed and returns the ``.tm`` text plus a
:class:`Shape` that states, from the construction alone, what the model
holds and what a correct run of each command must show. The seed only
shuffles the declaration order inside each section (root thimacs, flows,
triggers, events, chronology edges); the structure is fixed by the size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Shape:
    """What the generator built, counted while building it."""

    text: str
    stages: int
    flows: int
    triggers: int
    events: int  # declared events
    removable: int  # release/transfer/receive/arrive/accept stages
    # sim-fanout: the seven stages of each pair, in flow order.
    pair_walks: list[list[str]] = field(default_factory=list)
    # sim-relay: event names in ring order.
    ring: list[str] = field(default_factory=list)


_TRANSPORT = ("release", "transfer", "receive", "arrive", "accept")


class _Writer:
    """Collects declarations per section, counting as it goes."""

    def __init__(self) -> None:
        self.thimacs: list[str] = []
        self.flows: list[str] = []
        self.triggers: list[str] = []
        self.events: list[str] = []
        self.chronology: list[str] = []
        self.stages = 0
        self.removable = 0

    def thimac(self, text: str, kinds: list[str]) -> None:
        self.thimacs.append(text)
        self.stages += len(kinds)
        self.removable += sum(k in _TRANSPORT for k in kinds)

    def chain(self, refs: list[str]) -> None:
        self.flows.extend(f"flow {a} -> {b};" for a, b in zip(refs, refs[1:]))

    def trigger(self, source: str, target: str) -> None:
        self.triggers.append(f"trigger {source} ~> {target};")

    def event(self, name: str, refs: list[str]) -> None:
        body = "".join(f"    {r};\n" for r in refs)
        self.events.append(f"event {name} {{\n{body}}}")

    def shape(self, rng: random.Random, **extra) -> Shape:
        sections = []
        for decls in (self.thimacs, self.flows, self.triggers, self.events):
            decls = list(decls)
            rng.shuffle(decls)
            if decls:
                sections.append("\n".join(decls))
        if self.chronology:
            edges = list(self.chronology)
            rng.shuffle(edges)
            sections.append("behavior {\n" + "".join(f"    {e};\n" for e in edges) + "}")
        return Shape(
            text="\n\n".join(sections) + "\n",
            stages=self.stages,
            flows=len(self.flows),
            triggers=len(self.triggers),
            events=len(self.events),
            removable=self.removable,
            **extra,
        )


def _pair(w: _Writer, i: int) -> tuple[str, str, list[str]]:
    """Producer P{i} hands a thing to consumer C{i} through their transfer ports."""
    w.thimac(f"thimac P{i} {{ create; process; release; transfer; }}",
             ["create", "process", "release", "transfer"])
    w.thimac(f"thimac C{i} {{ transfer; receive; process; }}",
             ["transfer", "receive", "process"])
    walk = [f"P{i}.create", f"P{i}.process", f"P{i}.release", f"P{i}.transfer",
            f"C{i}.transfer", f"C{i}.receive", f"C{i}.process"]
    w.chain(walk)
    return walk[0], walk[-1], walk


def sim_fanout(n: int, seed: int) -> Shape:
    """n independent pairs, no triggers, one two-stage event per pair, no chronology."""
    w = _Writer()
    walks = []
    for i in range(n):
        first, last, walk = _pair(w, i)
        w.event(f"E{i}", [first, last])
        walks.append(walk)
    return w.shape(random.Random(seed), pair_walks=walks)


def sim_relay(n: int, seed: int) -> Shape:
    """A ring of n pairs: each consumer's process triggers the next producer's
    create, and a starter thimac holds the only spontaneous create. The
    chronology is the ring of pair events, closed by a repeat edge."""
    w = _Writer()
    w.thimac("thimac Starter { create; }", ["create"])
    ring = []
    for i in range(n):
        first, last, _ = _pair(w, i)
        w.event(f"E{i}", [first, last])
        w.trigger(last, f"P{(i + 1) % n}.create")
        ring.append(f"E{i}")
    w.trigger("Starter.create", "P0.create")
    w.chronology = [f"E{i} -> E{i + 1}" for i in range(n - 1)]
    w.chronology.append(f"E{n - 1} -> E0 repeat")
    return w.shape(random.Random(seed), ring=ring)


def authoring(n: int, seed: int) -> Shape:
    """n groups of eleven stages in thimacs nested four deep.

    Group G{g} makes a job and hands it to its ``unit`` through a refined
    transfer -> arrive -> accept -> process chain; the unit's process
    triggers a mark in ``unit.part.cell``, whose last stage triggers the
    next group's create. Two four-stage events per group, chained
    A0 -> B0 -> A1 -> ... in the chronology.
    """
    w = _Writer()
    for g in range(n):
        cell = f"G{g}.unit.part.cell"
        w.thimac(
            f"thimac G{g} {{\n"
            "    create(job); process(job); release(job); transfer(job);\n"
            "    thimac unit {\n"
            "        transfer(job); arrive(job); accept(job); process(job);\n"
            "        thimac part {\n"
            "            thimac cell { create(mark); process(mark); process(seal); }\n"
            "        }\n"
            "    }\n"
            "}",
            ["create", "process", "release", "transfer",
             "transfer", "arrive", "accept", "process",
             "create", "process", "process"],
        )
        outer = [f"G{g}.create(job)", f"G{g}.process(job)",
                 f"G{g}.release(job)", f"G{g}.transfer(job)"]
        inner = [f"G{g}.unit.transfer(job)", f"G{g}.unit.arrive(job)",
                 f"G{g}.unit.accept(job)", f"G{g}.unit.process(job)"]
        w.chain(outer + inner)
        w.chain([f"{cell}.create(mark)", f"{cell}.process(mark)", f"{cell}.process(seal)"])
        w.trigger(inner[-1], f"{cell}.create(mark)")
        if g + 1 < n:
            w.trigger(f"{cell}.process(seal)", f"G{g + 1}.create(job)")
        w.event(f"A{g}", outer)
        w.event(f"B{g}", inner)
        w.chronology.append(f"A{g} -> B{g}")
        if g + 1 < n:
            w.chronology.append(f"B{g} -> A{g + 1}")
    return w.shape(random.Random(seed))


GENERATORS = {"sim-fanout": sim_fanout, "sim-relay": sim_relay, "authoring": authoring}
