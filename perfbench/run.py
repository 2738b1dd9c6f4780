"""Latency of the ``tm`` commands on three generated model shapes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tmkit is imported from ``src/``.
The seed fixes the generated model (declaration order) and the four
simulator ``--seed`` values that simulate takes in turn. Every command runs in this process through
``tmkit.cli.main`` with its standard output captured, one command at a
time, round robin, for ``--seconds``; each timed sample is one whole
command: load, validation, the work and the serialized output.

``--trace 0`` prints the end-to-end metrics: the median seconds of each
command (with the highest percentile that has ten samples beyond it and
the sample count), set-up time and peak memory. ``--trace 1`` instead
wraps the public functions of each tmkit layer in spans (see
``spans.py``) and interleaves untraced rounds, traced rounds and traced
rounds on the half-size model. It prints, per span, the median over
rounds of its self time summed over one round of the seven commands
(``<span>_s``; ``cli.main.<command>_s`` is that command's whole time),
the log-log slope of that figure against stage count between half and
full size (``<span>.slope``, 0 when the span did not run), counts read
at the span boundaries, and the tracing overhead per round.

Times are reported at a reference machine speed. The benchmark times a
fixed pure-Python calibration task before and after every command and
scales the command's times by 10 ms over the mean of those two
calibrations. On a machine shared with other work the speed at which
Python runs drifts by a third within minutes and moves every command
alike; the scale takes that drift out, while a change to tmkit moves the
command and not the calibration. The human-readable lines also give the
wall medians.

Every output is checked against answers the generator built in
(``checks.py``); each run also replays the bundled corpus answers and
compares every command's output at seed 0 with the SHA-256 digests in
``golden.json``. A non-zero exit, a traceback or a wrong output counts as
a failed operation. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_SEED = 0
SETUP_REPEATS = 15
# Simulator seeds per run, derived from the run's seed; simulate takes
# them in turn, so one run's median does not hang on a single random path.
SIM_SEEDS = 4
# Seconds the calibration task takes at the reference machine speed.
CALIBRATION_REF_S = 0.010


@dataclass(frozen=True)
class Workload:
    size: int  # pairs or groups, see shapes.py
    policy: str
    cap: int
    steps: int

    def simulate_args(self, seed: int) -> list[str]:
        return ["--policy", self.policy, "--cap", str(self.cap),
                "--steps", str(self.steps), "--seed", str(seed)]


# Why each shape, and what should move on it, is in BENCHMARK.json and
# shapes.py. authoring runs simulate with --cap 0: no creation fires, so
# simulate_s there times load, validation and the closing record while
# the token game itself is bypassed.
WORKLOADS = {
    "sim-fanout": Workload(size=40, policy="random", cap=2, steps=1_000_000),
    "sim-relay": Workload(size=40, policy="fifo", cap=1, steps=2000),
    "authoring": Workload(size=35, policy="fifo", cap=0, steps=1000),
}

# Metric name -> subcommand argv after the input file (simulate's flags
# come from the workload).
COMMANDS = {
    "simulate_s": ["simulate"],
    "validate_s": ["validate"],
    "events_s": ["events"],
    "simplify_s": ["simplify"],
    "render_dot_s": ["render", "--overlay"],
    "render_json_s": ["render", "--format", "json"],
    "fmt_s": ["fmt"],
}


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {problem}", file=sys.stderr)


def calibration() -> float:
    """Seconds for a fixed pure-Python task shaped like tmkit's work (string
    keys, dicts, tuples, JSON, sorting); it never changes, so its time
    tracks how fast the shared machine runs Python at that moment."""
    gc.collect()
    start = time.perf_counter()
    table = {}
    for i in range(5000):
        key = f"T{i}.process({i % 17})"
        table[key] = (i, key, [i, i + 1])
    json.dumps([{"id": k, "n": v[0]} for k, v in table.items()])
    sorted(table, key=lambda k: table[k][0] % 13)
    return time.perf_counter() - start


def call_tm(argv: list[str], around=nullcontext()) -> tuple[float, int | None, str, str | None]:
    """One ``tm`` command in process: (seconds, exit code, stdout, traceback).

    ``around`` is entered just outside the timed call (a traced run's span).
    """
    main = sys.modules["tmkit.cli"].main
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err), around:
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:
            return time.perf_counter() - start, None, out.getvalue(), traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), None


def outcome(code: int | None, tb: str | None) -> str | None:
    if tb is not None:
        return "uncaught exception\n" + tb
    if code != 0:
        return f"exit code {code}"
    return None


def run_check(check, *args) -> str | None:
    """A check's verdict; an output it cannot even read fails the operation."""
    try:
        return check(*args)
    except Exception as exc:
        return f"check raised {exc!r}"


class Model:
    """One generated model on disk, with the commands to run on it."""

    def __init__(self, workload: str, size: int, seed: int, work: Path) -> None:
        import shapes

        self.workload = workload
        self.shape = shapes.GENERATORS[workload](size, seed)
        self.path = work / f"{workload}-{size}-{seed}.tm"
        self.path.write_text(self.shape.text, encoding="utf-8")
        self.sim_seeds = [seed * SIM_SEEDS + i for i in range(SIM_SEEDS)]
        self.argv = self.commands(0)
        self._doc = None
        # First output of each distinct argv; later runs must match it.
        self.reference: dict[tuple[str, ...], str] = {}

    def commands(self, turn: int) -> dict[str, list[str]]:
        """The argv of every command in round ``turn``."""
        simulate = WORKLOADS[self.workload].simulate_args(self.sim_seeds[turn % SIM_SEEDS])
        return {
            metric: [cmd[0], str(self.path), *cmd[1:]]
            + (simulate if metric == "simulate_s" else [])
            for metric, cmd in COMMANDS.items()
        }

    @property
    def doc(self):
        if self._doc is None:
            self._doc = sys.modules["tmkit.dsl"].load(self.path)
        return self._doc

    def check(self, metric: str, out: str, record=None) -> str | None:
        import checks

        if metric == "simulate_s":
            fn = functools.partial(checks.SIMULATE_CHECKS[self.workload],
                                   cap=WORKLOADS[self.workload].cap)
        else:
            fn = checks.CHECKS[metric]
        return run_check(fn, self.shape, self.doc, out, record or checks.direct)


@dataclass
class Round:
    """One pass over every command: seconds per metric at the reference
    speed and, when traced, self seconds per span for each metric's command
    (its output check included) and the counts read at the span
    boundaries. ``wall`` keeps the unscaled command times."""

    times: dict[str, float]
    wall: dict[str, float]
    spans: dict[str, dict[str, float]]
    counts: dict[str, float]

    def span_total(self, name: str) -> float:
        return sum(by_span.get(name, 0.0) for by_span in self.spans.values())


def run_round(model: Model, ledger: Ledger, full_check: bool, tracer=None, turn=0) -> Round:
    """Each command once, with a calibration before the first and after
    each; a command's times are scaled by the mean of the two calibrations
    around it. A traced round installs the spans for its own duration and
    checks every output in full, so the spans the checks record
    (``from_json``, ``conforms``) appear in every traced round."""
    record = None
    if tracer is not None:
        record = functools.partial(_recorded, tracer)
        tracer.install()
    wall: dict[str, float] = {}
    scales: dict[str, float] = {}
    spans: dict[str, dict[str, float]] = {}
    before = calibration()
    try:
        for metric, argv in model.commands(turn).items():
            if tracer is None:
                elapsed, code, out, tb = call_tm(argv)
            else:
                elapsed, code, out, tb = call_tm(argv, tracer.record(f"cli.main.{metric[:-2]}"))
            after = calibration()
            wall[metric] = elapsed
            scales[metric] = 2 * CALIBRATION_REF_S / (before + after)
            before = after
            problem = outcome(code, tb)
            key = tuple(argv)
            if problem is None:
                if full_check or tracer is not None or key not in model.reference:
                    problem = model.check(metric, out, record)
                    model.reference.setdefault(key, out)
                elif out != model.reference[key]:
                    problem = "output differs from the first run on the same input"
            ledger.record(f"{model.workload} {' '.join(argv)}", problem)
            if tracer is not None:
                spans[metric] = {name: seconds * scales[metric]
                                 for name, seconds in tracer.take().items()}
    finally:
        if tracer is not None:
            tracer.uninstall()
    times = {metric: wall[metric] * scales[metric] for metric in wall}
    return Round(times, wall, spans, dict(tracer.counts) if tracer else {})


def _recorded(tracer, fn, *args):
    with tracer.record():
        return fn(*args)


def measure(plans: list[tuple[Model, object]], seconds: float, ledger: Ledger) -> list[list[Round]]:
    """An untimed checked round per model, then the plans (model, tracer or
    None) in turn until ``seconds`` have passed. Interleaving the plans
    spreads slow spells of a shared machine evenly over them."""
    for model in {id(m): m for m, _ in plans}.values():
        run_round(model, ledger, full_check=True)
    rounds: list[list[Round]] = [[] for _ in plans]
    deadline = time.perf_counter() + seconds
    for turn in itertools.count():
        for i, (model, tracer) in enumerate(plans):
            rounds[i].append(run_round(model, ledger, False, tracer, turn))
        if time.perf_counter() >= deadline:
            return rounds


def golden_pass(workload: str, work: Path, ledger: Ledger) -> None:
    """Every command at the golden seed, digests compared with golden.json."""
    golden = json.loads((HERE / "golden.json").read_text())[workload]
    model = Model(workload, WORKLOADS[workload].size, GOLDEN_SEED, work)
    for metric, argv in model.argv.items():
        _, code, out, tb = call_tm(argv)
        problem = outcome(code, tb)
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if problem is None and digest != golden[metric]:
            problem = f"output digest {digest} differs from golden.json"
        ledger.record(f"golden {workload} {metric}", problem)


def corpus_pass(ledger: Ledger) -> None:
    import checks

    paths = sys.modules["tmkit.cli"].corpus()
    for command, name, flags, check in checks.CORPUS:
        _, code, out, tb = call_tm([command, str(paths[name]), *flags])
        problem = outcome(code, tb)
        if problem is None:
            problem = run_check(check, out)
        ledger.record(f"corpus {command} {name}", problem)


def setup(workload: str, seed: int, work: Path) -> tuple[float, float, Model]:
    """Import tmkit, generate the model and write it, several times: the
    median seconds at the reference speed, the median wall seconds, and
    the model."""
    scaled, wall = [], []
    before = calibration()
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "tmkit" or n.startswith("tmkit.")]:
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        importlib.import_module("tmkit.cli")
        model = Model(workload, WORKLOADS[workload].size, seed, work)
        wall.append(time.perf_counter() - start)
        after = calibration()
        scaled.append(wall[-1] * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(wall), model


def tail(samples: list[float]) -> str:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            rank = math.ceil(p / 100 * len(ordered)) - 1
            return f"p{p}={ordered[rank]:.6f} s"
    return "no percentile has ten samples beyond it"


def end_to_end(args, work: Path, ledger: Ledger) -> dict:
    setup_s, setup_wall, model = setup(args.workload, args.seed, work)
    golden_pass(args.workload, work, ledger)
    corpus_pass(ledger)
    [rounds] = measure([(model, None)], args.seconds, ledger)
    metrics = {}
    for metric in COMMANDS:
        samples = [r.times[metric] for r in rounds]
        metrics[metric] = (statistics.median(samples), "s")
        print(f"{metric:16s} median={metrics[metric][0]:.6f} s  {tail(samples)}  "
              f"n={len(samples)}  (wall median "
              f"{statistics.median(r.wall[metric] for r in rounds):.6f} s)")
    metrics["setup_s"] = (setup_s, "s")
    print(f"{'setup_s':16s} median={setup_s:.6f} s  n={SETUP_REPEATS}  "
          f"(wall median {setup_wall:.6f} s)")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"{'peak_rss_mb':16s} {metrics['peak_rss_mb'][0]:.3f} MB")
    return metrics


def replay_candidates(model: Model) -> tuple[float, str]:
    """Re-run the simulation step by step through init_state/enabled/step,
    choosing as ``run`` does; returns mean candidates per step and the NDJSON."""
    dyn = sys.modules["tmkit.dynamics"]
    wl = WORKLOADS[model.workload]
    _, events = sys.modules["tmkit.validator"].validate_document(
        model.doc.model, model.doc.events, model.doc.behavior)
    options = dyn.SimOptions(seed=model.sim_seeds[0], max_steps=wl.steps,
                             creation_cap=wl.cap, policy=wl.policy)
    state = dyn.init_state(model.doc.model, options, events)
    records, offered, steps, truncated = [], 0, 0, False
    while True:
        if state.step_count >= options.max_steps:
            truncated = True
            break
        candidates = dyn.enabled(state)
        if not candidates:
            break
        offered += len(candidates)
        steps += 1
        if options.policy == dyn.RANDOM:
            chosen = candidates[state.rng.randrange(len(candidates))]
        else:
            chosen = candidates[0]
        records.extend(dyn.step(state, chosen)[1])
    return offered / steps if steps else 0.0, dyn.Trace(tuple(records), truncated).to_ndjson()


def per_layer(args, work: Path, ledger: Ledger) -> dict:
    import spans

    *_, model = setup(args.workload, args.seed, work)
    golden_pass(args.workload, work, ledger)
    corpus_pass(ledger)
    half = Model(args.workload, max(2, WORKLOADS[args.workload].size // 2), args.seed, work)

    tracer = spans.Tracer()
    untraced, full, small = measure(
        [(model, None), (model, tracer), (half, tracer)], args.seconds, ledger)

    per_step, replayed = replay_candidates(model)
    ledger.record(f"{args.workload} replay through enabled/step",
                  None if replayed == model.reference[tuple(model.argv["simulate_s"])]
                  else "replay differs from the simulate output")
    counts = {**full[-1].counts, "dynamics.candidates_per_step": per_step}

    names = [*spans.TARGETS, *(f"cli.main.{m[:-2]}" for m in COMMANDS), "cli.self"]
    medians = {}
    for size, rounds in (("full", full), ("half", small)):
        for name in names:
            if name.startswith("cli.main."):
                values = [r.times[name[9:] + "_s"] for r in rounds]
            elif name == "cli.self":
                values = [sum(r.span_total(f"cli.main.{m[:-2]}") for m in COMMANDS)
                          for r in rounds]
            else:
                values = [r.span_total(name) for r in rounds]
            medians[size, name] = statistics.median(values)

    growth = math.log(model.shape.stages / half.shape.stages)
    metrics = {}
    for name in names:
        at_full, at_half = medians["full", name], medians["half", name]
        metrics[f"{name}_s"] = (at_full, "s")
        slope = math.log(at_full / at_half) / growth if at_full > 0 and at_half > 0 else 0.0
        metrics[f"{name}.slope"] = (slope, "ratio")
    for name in (*spans.COUNT_NAMES, "dynamics.candidates_per_step"):
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith("_bytes") else "count")
    overhead = (statistics.median(sum(r.times.values()) for r in full)
                - statistics.median(sum(r.times.values()) for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")

    layers = [name for name in names if not name.startswith("cli.main.")]
    top = sorted(layers, key=lambda name: -metrics[f"{name}_s"][0])[:5]
    print("largest self times per round: "
          + ", ".join(f"{name}={metrics[f'{name}_s'][0]:.4f} s" for name in top))
    for metric in ("simulate_s", "validate_s"):
        cli_span = f"cli.main.{metric[:-2]}"
        shares = {name: statistics.median(
                      r.spans[metric].get(cli_span if name == "cli.self" else name, 0.0)
                      / r.times[metric] for r in full)
                  for name in layers}
        top = sorted(shares.items(), key=lambda item: -item[1])[:5]
        print(f"{metric} self-time shares: " + ", ".join(f"{n}={v:.1%}" for n, v in top))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tmkit" / "__init__.py").is_file():
        print(f"no tmkit sources under {src}; run from a tmkit checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import tmkit

    if not Path(tmkit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"tmkit was imported from {tmkit.__file__}, not {src}", file=sys.stderr)
        return 2

    ledger = Ledger()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        metrics = (per_layer if args.trace else end_to_end)(args, Path(tmp), ledger)

    print(f"failed_ratio={ledger.failed / ledger.attempted:.6f} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
