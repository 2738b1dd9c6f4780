"""Command-line front end.

Subcommands tie the pipeline together: ``validate`` a model file,
``events`` to enumerate its events, ``simulate`` a run, ``simplify`` the
transport stages away, ``render`` to dot or JSON, and ``fmt`` to the
canonical text. Exit codes: 0 success, 1 validation errors (the report is
still emitted), 2 usage or parse failure, or an input or output file that
cannot be read or written.
"""

from __future__ import annotations

import argparse
import gc
import sys
from importlib import resources
from pathlib import Path

from . import dynamics, render
from .dsl import Document, ParseFailure, format_model, load
from .diagnostics import ModelError
from .model import model_to_dict
from .transform import make_overlay, simplify
from .validator import elementary_events, validate_document


def corpus() -> dict[str, Path]:
    """The bundled example models, by name."""
    root = resources.files(__package__) / "corpus"
    return {path.stem: Path(str(path)) for path in sorted(root.iterdir())
            if path.name.endswith(".tm")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm",
        description="Toolchain for thing/machine conceptual models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="model file (.tm)")
        cmd.add_argument("--output", help="write here instead of standard output")
        return cmd

    add("validate", "check a model file and report diagnostics")
    add("events", "list elementary and declared events")

    simulate = add("simulate", "run the token-flow simulation and emit the trace")
    simulate.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    simulate.add_argument("--steps", type=int, default=1000,
                          help="step bound before truncation (default 1000)")
    simulate.add_argument("--policy", choices=(dynamics.FIFO, dynamics.RANDOM),
                          default=dynamics.FIFO, help="candidate selection policy")
    simulate.add_argument("--cap", type=int, default=1,
                          help="spontaneous creations per create stage (default 1)")

    add("simplify", "remove transport stages and emit the collapsed model")

    render_cmd = add("render", "emit dot graph text or canonical JSON")
    render_cmd.add_argument("--format", choices=(render.DOT, render.JSON),
                            default=render.DOT, help="output format (default dot)")
    render_cmd.add_argument("--overlay", action="store_true",
                            help="color stages by the declared event regions")
    render_cmd.add_argument("--flat", action="store_true",
                            help="plain nodes instead of one cluster per thimac")

    add("fmt", "rewrite the file in canonical form")
    return parser


def _json(payload: dict) -> str:
    return render.indented_json(payload) + "\n"


def _command(args: argparse.Namespace, doc: Document) -> tuple[str, int]:
    """The output text and exit code of a command on a loaded document."""
    if args.command == "fmt":
        return format_model(doc.model, doc.events, doc.behavior), 0

    report, events = validate_document(doc.model, doc.events, doc.behavior)
    if args.command == "validate" or not report.ok:
        return _json(report.to_json_dict()), 0 if report.ok else 1

    if args.command == "events":
        return _json({
            "elementary": [e.to_json_dict() for e in elementary_events(doc.model)],
            "declared": [e.to_json_dict() for e in events],
        }), 0

    if args.command == "simulate":
        options = dynamics.SimOptions(
            seed=args.seed,
            max_steps=args.steps,
            creation_cap=args.cap,
            policy=args.policy,
        )
        return dynamics.run(doc.model, events, options).to_ndjson(), 0

    if args.command == "simplify":
        simplified, sreport = simplify(doc.model)
        return _json({
            "model": model_to_dict(simplified),
            "report": sreport.to_json_dict(),
        }), 0

    if args.command == "render":
        if args.format == render.JSON:
            return render.to_json(doc.model, events, doc.behavior), 0
        options = render.RenderOptions(
            cluster_thimacs=not args.flat,
            overlay=make_overlay(doc.model, events) if args.overlay else None,
        )
        return render.to_dot(doc.model, options), 0

    raise AssertionError(f"unhandled command {args.command}")


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

    if getattr(args, "seed", 0) < 0 or getattr(args, "steps", 0) < 0 or getattr(args, "cap", 0) < 0:
        print("numeric options must be non-negative", file=sys.stderr)
        return 2

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
        text, code = _json({
            "ok": False,
            "diagnostics": [d.to_json_dict() for d in exc.diagnostics],
        }), 1
    else:
        text, code = _command(args, doc)

    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        Path(args.output).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
