"""Per-layer times and call counts of tmkit on a ladder of model sizes.

    python bench/ladder.py [--sizes 125 250 ...] [--output FILE]

Run from a source checkout; tmkit is imported from ``src/`` and the
model generators from ``perfbench/shapes.py``, which is only read. For
each of the three benchmark shapes and each size n (by default
125, 250, ..., 4000, doubling), the script generates the model text once
with seed 1, writes it to a temporary file, and runs the pipeline of a
``tm`` command layer by layer, in this order:

    load (``dsl.load`` of the file, the route of every command, whose
    document is then dropped), parse and lower (the library route through
    an AST, which no ``tm`` command takes), validate (``validate`` and
    ``build_events``), check_behavior, events (``elementary_events``),
    simulate, trace_json (``Trace.to_ndjson``), simplify, dot
    (``make_overlay`` and ``to_dot``), json (``to_json``) and fmt
    (``format_model``).

A layer reads the model tables that earlier layers built, as one command
would after ``validate``. Simulation uses the policy and creation cap
that ``perfbench/run.py`` gives the shape, and run.py's step bound
scaled by n over the shape's benchmark size: 50 steps per pair on
``sim-relay``, which reaches that bound at every rung, so that its
``simulate`` and ``trace_json`` slopes show how a run grows with the
model. A ``sim-fanout`` run ends before its bound, and ``authoring``
mints nothing. Three passes run per rung, each with the cyclic garbage
collector paused, as ``tm`` pauses it:

- 21 timed passes, from which each layer gets the median and the
  interquartile range of its seconds. As ``perfbench/run.py`` scales
  each command, each pass is scaled to the reference machine speed by
  the reference seconds of run.py's fixed calibration task over the
  mean of the calibrations just before and after the pass: on a shared
  machine the speed of Python drifts by a third within minutes, and the
  scale takes that drift out;
- one pass under ``cProfile``, which counts each layer's function calls:
  the ``callcount`` of every entry of ``Profile.getstats``. ``pstats``
  would key each function by file, line and name, under which every
  ``__init__`` that ``dataclasses`` writes is one, ``<string>:2``, and
  keep the count of one of them, chosen by memory address. The pass
  runs apart from the timing, which it would slow about twofold;
- one pass in a fresh child process, forked from a server started
  before any model is built, whose peak resident set size
  (``resource.getrusage``) is the rung's ``peak_rss_mb``.

The log-log slope of each layer's median time and of its call count
against n is fitted by least squares over the top three rungs; a slope
of 1 is linear growth. The run records the git revision, the SHA-256 of
the ``src/tmkit`` sources, the Python version and the median scale of
its passes (``calibration_scale``; above 1 means a machine faster than
the reference). The run is appended
to the ``runs`` list of ``--output`` (default ``BENCH_ladder.json`` at
the root of the checkout), so that one file can hold the runs of two
revisions side by side. Standard library only.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (125, 250, 500, 1000, 2000, 4000)
SLOPE_RUNGS = 3
SEED = 1
REPEATS = 21


def pipeline(text: str, path: Path, shape: str, n: int, measure) -> None:
    """Run every layer once on ``text``, the shape's model of size ``n``,
    which the file at ``path`` holds; ``measure(layer, call)`` makes the
    call, measures it and returns its result."""
    import run
    from tmkit import dsl, dynamics, render, transform, validator

    measure("load", lambda: dsl.load(path))
    ast = measure("parse", lambda: dsl.parse(text))
    doc = measure("lower", lambda: dsl.lower(ast))
    model = doc.model
    report, (events, event_diags) = measure(
        "validate", lambda: (validator.validate(model), validator.build_events(model, doc.events)))
    if doc.behavior is not None:
        behavior = measure("check_behavior",
                           lambda: validator.check_behavior(model, events, doc.behavior))
        event_diags = [*event_diags, *behavior.diagnostics]
    if report.diagnostics or event_diags:
        raise RuntimeError(f"{shape}: the generated model has diagnostics")
    measure("events", lambda: validator.elementary_events(model))
    workload = run.WORKLOADS[shape]
    options = dynamics.SimOptions(seed=SEED, max_steps=workload.steps * n // workload.size,
                                  creation_cap=workload.cap, policy=workload.policy)
    trace = measure("simulate", lambda: dynamics.run(model, events, options))
    measure("trace_json", trace.to_ndjson)
    measure("simplify", lambda: transform.simplify(model))
    measure("dot", lambda: render.to_dot(
        model, render.RenderOptions(overlay=transform.make_overlay(model, events))))
    measure("json", lambda: render.to_json(model, events, doc.behavior))
    measure("fmt", lambda: dsl.format_model(model, doc.events, doc.behavior))


def paused_collector(fn, *args):
    """``fn(*args)`` with the cyclic collector paused after a collection."""
    gc.collect()
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


def timed_pass(text: str, path: Path, shape: str, n: int) -> dict[str, float]:
    seconds: dict[str, float] = {}

    def measure(layer, call):
        start = time.perf_counter()
        result = call()
        seconds[layer] = time.perf_counter() - start
        return result

    paused_collector(pipeline, text, path, shape, n, measure)
    return seconds


def counted_pass(text: str, path: Path, shape: str, n: int) -> dict[str, int]:
    calls: dict[str, int] = {}

    def measure(layer, call):
        profile = cProfile.Profile()
        result = profile.runcall(call)
        calls[layer] = sum(entry.callcount for entry in profile.getstats())
        return result

    paused_collector(pipeline, text, path, shape, n, measure)
    return calls


def child_peak_rss_mb(shape: str, n: int, path: Path) -> float:
    """Run in a fresh process: one pass of every layer, then the process's
    peak resident set size in MB."""
    import shapes

    text = shapes.GENERATORS[shape](n, SEED).text
    paused_collector(pipeline, text, path, shape, n, lambda layer, call: call())
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def slope(sizes: list[int], values: list[float]) -> float | None:
    """Least-squares slope of log(value) against log(size) over the top
    rungs, or None with fewer than two rungs or a value of 0."""
    points = list(zip(sizes, values))[-SLOPE_RUNGS:]
    if len(points) < 2 or any(value <= 0 for _, value in points):
        return None
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(value) for _, value in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tmkit").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def ladder(shape: str, sizes: list[int], scales: list[float], pool, tmp: Path) -> dict:
    import run
    import shapes

    rungs = []
    for n in sizes:
        text = shapes.GENERATORS[shape](n, SEED).text
        path = tmp / f"{shape}-{n}.tm"
        path.write_text(text, encoding="utf-8")
        passes = []
        before = run.calibration()
        for _ in range(REPEATS):
            seconds = timed_pass(text, path, shape, n)
            after = run.calibration()
            scales.append(2 * run.CALIBRATION_REF_S / (before + after))
            passes.append({layer: value * scales[-1] for layer, value in seconds.items()})
            before = after
        calls = counted_pass(text, path, shape, n)
        rss = pool.apply(child_peak_rss_mb, (shape, n, path))
        layers = {}
        for layer in calls:
            samples = [p[layer] for p in passes]
            quartiles = statistics.quantiles(samples, n=4)
            layers[layer] = {"median_s": statistics.median(samples),
                             "iqr_s": quartiles[2] - quartiles[0], "calls": calls[layer]}
        rungs.append({"n": n, "peak_rss_mb": round(rss, 2), "layers": layers})
        print(f"{shape:10s} n={n:5d}  " + "  ".join(
            f"{layer}={entry['median_s'] * 1e3:.1f}ms" for layer, entry in layers.items()),
            flush=True)
    slopes = {}
    for layer in rungs[-1]["layers"]:
        slopes[layer] = {
            "time": slope(sizes, [rung["layers"][layer]["median_s"] for rung in rungs]),
            "calls": slope(sizes, [rung["layers"][layer]["calls"] for rung in rungs]),
        }
    return {"rungs": rungs, "slopes": slopes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                        help="model sizes n, in increasing order (default 125 ... 4000)")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_ladder.json",
                        help="JSON file whose runs list the run is appended to")
    args = parser.parse_args(argv)
    if sorted(set(args.sizes)) != args.sizes or args.sizes[0] < 1:
        parser.error("--sizes must be positive and increasing")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    # On Linux a process inherits the peak RSS of the process it was forked
    # or spawned from, so each rung's child is forked from a server that
    # starts now, before this process holds any model; each child serves
    # one rung.
    with multiprocessing.get_context("forkserver").Pool(1, maxtasksperchild=1) as pool:
        import shapes
        import tmkit

        if not Path(tmkit.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"tmkit was imported from {tmkit.__file__}, not {ROOT / 'src'}",
                  file=sys.stderr)
            return 2
        scales: list[float] = []
        with tempfile.TemporaryDirectory() as tmp:
            results = {shape: ladder(shape, args.sizes, scales, pool, Path(tmp))
                       for shape in shapes.GENERATORS}
    record = {
        "revision": git("rev-parse", "HEAD"),
        "uncommitted_source_changes": bool(git("status", "--porcelain", "--", "src")),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": multiprocessing.cpu_count(),
        "calibration_scale": statistics.median(scales),
        "seed": SEED,
        "repeats": REPEATS,
        "sizes": args.sizes,
        "slope_rungs": SLOPE_RUNGS,
        "shapes": results,
    }
    document = (json.loads(args.output.read_text(encoding="utf-8"))
                if args.output.exists() else {"runs": []})
    document["runs"].append(record)
    args.output.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"appended run {len(document['runs'])} to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
