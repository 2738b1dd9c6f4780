"""Command-line front end.

Subcommands tie the pipeline together: ``validate`` a model file,
``events`` to enumerate its events, ``simulate`` a run, ``simplify`` the
transport stages away, ``render`` to dot or JSON, and ``fmt`` to the
canonical text. Exit codes: 0 success, 1 validation errors (the report is
still emitted), 2 usage or parse failure, an input that cannot be read,
or an output that cannot be written, standard output closed included:
``--output`` is written as UTF-8, standard output in its stream's
encoding.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import gc
import os
import sys
from importlib import resources
from pathlib import Path

from . import dynamics, render
from .dsl import Document, ParseFailure, format_model, load
from .diagnostics import ModelError, ValidationReport
from .model import model_to_dict
from .transform import make_overlay, simplify
from .validator import elementary_events, validate_document


def corpus() -> dict[str, Path]:
    """The bundled example models, by name."""
    root = resources.files(__package__) / "corpus"
    return {path.stem: Path(str(path)) for path in sorted(root.iterdir())
            if path.name.endswith(".tm")}


def _non_negative(text: str) -> int:
    """The value of ``--seed``, ``--steps`` or ``--cap``: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def _json(payload: dict) -> str:
    return render.indented_json(payload) + "\n"


def _validate(args, doc, report, events) -> str:
    return _json(report.to_json_dict())


def _events(args, doc, report, events) -> str:
    return _json({
        "elementary": [e.to_json_dict() for e in elementary_events(doc.model)],
        "declared": [e.to_json_dict() for e in events],
    })


def _simulate(args, doc, report, events) -> str:
    options = dynamics.SimOptions(seed=args.seed, max_steps=args.steps,
                                  creation_cap=args.cap, policy=args.policy)
    return dynamics.run(doc.model, events, options).to_ndjson()


def _simplify(args, doc, report, events) -> str:
    simplified, sreport = simplify(doc.model)
    return _json({"model": model_to_dict(simplified), "report": sreport.to_json_dict()})


def _render(args, doc, report, events) -> str:
    if args.format == render.JSON:
        return render.to_json(doc.model, events, doc.behavior)
    overlay = make_overlay(doc.model, events) if args.overlay else None
    options = render.RenderOptions(cluster_thimacs=not args.flat, overlay=overlay)
    return render.to_dot(doc.model, options)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``tm`` parser, built on the first call and reused by every later
    ``main`` in the process; ``parse_args`` leaves it unchanged. Each
    subcommand but ``fmt`` binds its work as ``args.work``: the output text
    on a valid model, from the arguments, the document, its report and its
    events."""
    parser = argparse.ArgumentParser(
        prog="tm",
        description="Toolchain for thing/machine conceptual models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, work=None) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="model file (.tm)")
        cmd.add_argument("--output", help="write here instead of standard output")
        cmd.set_defaults(work=work)
        return cmd

    add("validate", "check a model file and report diagnostics", _validate)
    add("events", "list elementary and declared events", _events)

    simulate = add("simulate", "run the token-flow simulation and emit the trace", _simulate)
    simulate.add_argument("--seed", type=_non_negative, default=0,
                          help="random seed (default 0)")
    simulate.add_argument("--steps", type=_non_negative, default=1000,
                          help="step bound before truncation (default 1000)")
    simulate.add_argument("--policy", choices=(dynamics.FIFO, dynamics.RANDOM),
                          default=dynamics.FIFO, help="candidate selection policy")
    simulate.add_argument("--cap", type=_non_negative, default=1,
                          help="spontaneous creations per create stage (default 1)")

    add("simplify", "remove transport stages and emit the collapsed model", _simplify)

    render_cmd = add("render", "emit dot graph text or canonical JSON", _render)
    render_cmd.add_argument("--format", choices=(render.DOT, render.JSON),
                            default=render.DOT, help="output format (default dot)")
    render_cmd.add_argument("--overlay", action="store_true",
                            help="dot only: color stages by the declared event regions")
    render_cmd.add_argument("--flat", action="store_true",
                            help="dot only: plain nodes instead of one cluster per thimac")

    add("fmt", "rewrite the file in canonical form")
    return parser


def _command(args: argparse.Namespace, doc: Document) -> tuple[str, int]:
    """The output text and exit code of a command on a loaded document:
    ``fmt`` formats any model that loads, every other command validates it
    and does its work only on a valid model."""
    if args.command == "fmt":
        return format_model(doc.model, doc.events, doc.behavior), 0
    report, events = validate_document(doc.model, doc.events, doc.behavior)
    if not report.ok:
        return _json(report.to_json_dict()), 1
    return args.work(args, doc, report, events), 0


def main(argv: list[str] | None = None) -> int:
    """Run one ``tm`` command and return its exit code.

    The cyclic garbage collector is paused for the command and restored to
    its previous state afterwards: the pipeline makes no reference cycles
    that grow with the model, and on large models the collector's passes
    over the live objects take a quarter to a third of a command's time.
    Library calls outside ``main`` keep the default collector.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        doc = load(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except ParseFailure as exc:
        text, code = _json({
            "ok": False,
            "parse_errors": [e.to_json_dict() for e in exc.errors],
        }), 2
    except ModelError as exc:
        text, code = _json(ValidationReport(exc.diagnostics).to_json_dict()), 1
    else:
        text, code = _command(args, doc)

    try:
        if not (args.output or sys.stdout):  # Python sets it to None when fd 1 is closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with (open(args.output, "w", encoding="utf-8") if args.output
              else contextlib.nullcontext(sys.stdout)) as out:
            out.write(text)
    except (OSError, UnicodeEncodeError) as exc:
        print(f"cannot write {args.output or 'standard output'}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
