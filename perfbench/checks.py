"""Output checks for every timed command, and the corpus known-answer pass.

The expected answers come from the generator's construction (a
:class:`shapes.Shape`) or from the answers the acceptance tests pin, never
from the tmkit run being checked. Each check returns ``None`` when the
output is right and a one-line reason otherwise. ``record`` calls a tmkit
function the check needs; a traced run passes one that records its span.
"""

from __future__ import annotations

import json
from collections import Counter

from tmkit import dsl, dynamics, render

TRANSPORT_KINDS = {"release", "transfer", "receive", "arrive", "accept"}


def direct(fn, *args):
    """``record`` for an untraced run: just call."""
    return fn(*args)


def _ndjson(out: str) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in out.splitlines()]
    return lines[:-1], lines[-1]


def check_fanout_trace(shape, doc, out, record=direct, cap=1):
    records, end = _ndjson(out)
    if end != {"kind": "run-ended", "truncated": False, "records": len(records)}:
        return f"unexpected closing record {end}"
    executed = [r for r in records if r["kind"] == dynamics.STAGE_EXECUTED]
    pairs = len(shape.pair_walks)
    if len(executed) != 7 * cap * pairs:
        return f"{len(executed)} stage executions, expected {7 * cap * pairs}"
    walks: dict[int, list[str]] = {}
    for r in executed:
        walks.setdefault(r["tokens"][0], []).append(r["id"])
    by_start = {walk[0]: walk for walk in shape.pair_walks}
    for token, walk in walks.items():
        if by_start.get(walk[0]) != walk:
            return f"token {token} walked {walk}"
    per_pair = Counter(walk[0] for walk in walks.values())
    if set(per_pair.values()) != {cap} or len(per_pair) != pairs:
        return "a pair did not run exactly cap tokens"
    return None


def check_relay_trace(shape, doc, out, record=direct, cap=1):
    records, end = _ndjson(out)
    if end != {"kind": "run-ended", "truncated": True, "records": len(records)}:
        return f"unexpected closing record {end}"
    firings = [r["id"] for r in records if r["kind"] == dynamics.EVENT_FIRED]
    ring = shape.ring
    if len(firings) <= len(ring):
        return f"only {len(firings)} firings on a ring of {len(ring)}"
    if firings != [ring[i % len(ring)] for i in range(len(firings))]:
        return "firings do not cycle the ring in order"
    trace = dynamics.Trace(tuple(
        dynamics.TraceRecord(r["step"], r["kind"], r["id"], tuple(r["tokens"]))
        for r in records), truncated=True)
    verdict = record(dynamics.conforms, trace, doc.behavior)
    if not verdict.ok:
        return f"trace does not conform: {verdict}"
    return None


def check_idle_trace(shape, doc, out, record=direct, cap=1):
    if json.loads(out) != {"kind": "run-ended", "truncated": False, "records": 0}:
        return "a run with no creations left records"
    return None


def check_validate(shape, doc, out, record=direct):
    report = json.loads(out)
    errors = [d for d in report["diagnostics"] if d["severity"] == "error"]
    if not report["ok"] or errors:
        return f"validation errors: {errors[:3]}"
    return None


def check_events(shape, doc, out, record=direct):
    data = json.loads(out)
    if len(data["elementary"]) != shape.stages or len(data["declared"]) != shape.events:
        return (f"{len(data['elementary'])} elementary and {len(data['declared'])} declared "
                f"events, expected {shape.stages} and {shape.events}")
    return None


def check_simplify(shape, doc, out, record=direct):
    stages = json.loads(out)["model"]["stages"]
    left = [s["id"] for s in stages if s["kind"] in TRANSPORT_KINDS]
    if left:
        return f"transport stages survived: {left[:3]}"
    if len(stages) != shape.stages - shape.removable:
        return f"{len(stages)} stages kept, expected {shape.stages - shape.removable}"
    return None


def check_dot(shape, doc, out, record=direct):
    lines = out.splitlines()
    nodes = sum(1 for line in lines if line.lstrip().startswith('"') and " [label=" in line)
    edges = sum(1 for line in lines if '" -> "' in line)
    if nodes != shape.stages or edges != shape.flows + shape.triggers:
        return (f"{nodes} node and {edges} edge lines, expected {shape.stages} "
                f"and {shape.flows + shape.triggers}")
    return None


def check_json(shape, doc, out, record=direct):
    model, events, behavior = record(render.from_json, out)
    if render.to_json(model, events, behavior) != out:
        return "JSON does not round-trip byte for byte"
    if len(model.stages) != shape.stages:
        return f"{len(model.stages)} stages, expected {shape.stages}"
    return None


def check_fmt(shape, doc, out, record=direct):
    reparsed = dsl.lower(dsl.parse(out))
    if len(reparsed.model.stages) != shape.stages or reparsed.model != doc.model:
        return "formatted text does not re-parse to the same model"
    return None


SIMULATE_CHECKS = {
    "sim-fanout": check_fanout_trace,
    "sim-relay": check_relay_trace,
    "authoring": check_idle_trace,
}

CHECKS = {
    "validate_s": check_validate,
    "events_s": check_events,
    "simplify_s": check_simplify,
    "render_dot_s": check_dot,
    "render_json_s": check_json,
    "fmt_s": check_fmt,
}


def _fires(expected):
    def check(out):
        records, _ = _ndjson(out)
        got = tuple(r["id"] for r in records if r["kind"] == dynamics.EVENT_FIRED)
        return None if got == expected else f"fired {got}, expected {expected}"
    return check


def _valid(out):
    return None if json.loads(out)["ok"] else "corpus model does not validate"


# Answers pinned by the acceptance tests: (command, corpus model, flags, check).
CORPUS = (
    ("validate", "dough_cookie", (), _valid),
    ("validate", "heating_water", (), _valid),
    ("validate", "reservation", (), _valid),
    ("validate", "tendering", (), _valid),
    ("simulate", "dough_cookie", ("--policy", "fifo"), _fires(("E1", "E2", "E3"))),
    ("simulate", "heating_water", ("--policy", "fifo", "--cap", "3"),
     _fires(("E1", "E2") * 3)),
    ("simulate", "tendering", ("--policy", "fifo"),
     _fires(tuple(f"E{i}" for i in range(1, 8)))),
)
