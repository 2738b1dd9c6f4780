"""Command-line front end.

Subcommands tie the pipeline together: ``validate`` a model file,
``events`` to enumerate its events, ``simulate`` a run, ``simplify`` the
transport stages away, ``render`` to dot or JSON, and ``fmt`` to the
canonical text. Exit codes: 0 success, 1 validation errors (the report is
still emitted), 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import dynamics, render
from .dsl import ParseFailure, format_model, load
from .diagnostics import ModelError
from .model import model_to_dict
from .transform import make_overlay, simplify
from .validator import validate_document


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


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", output)


def main(argv: list[str] | None = None) -> int:
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
        _emit_json({
            "ok": False,
            "parse_errors": [e.to_json_dict() for e in exc.errors],
        }, args.output)
        return 2
    except ModelError as exc:
        _emit_json({
            "ok": False,
            "diagnostics": [d.to_json_dict() for d in exc.diagnostics],
        }, args.output)
        return 1

    if args.command == "fmt":
        _emit(format_model(doc.model, doc.events, doc.behavior), args.output)
        return 0

    report, events = validate_document(doc.model, doc.events, doc.behavior)

    if args.command == "validate":
        _emit_json(report.to_json_dict(), args.output)
        return 0 if report.ok else 1

    if not report.ok:
        _emit_json(report.to_json_dict(), args.output)
        return 1

    if args.command == "events":
        _emit_json({
            "elementary": [e.to_json_dict() for e in dynamics.elementary_events(doc.model)],
            "declared": [e.to_json_dict() for e in events],
        }, args.output)
        return 0

    if args.command == "simulate":
        options = dynamics.SimOptions(
            seed=args.seed,
            max_steps=args.steps,
            creation_cap=args.cap,
            policy=args.policy,
        )
        trace = dynamics.run(doc.model, events, options)
        _emit(trace.to_ndjson(), args.output)
        return 0

    if args.command == "simplify":
        simplified, sreport = simplify(doc.model)
        _emit_json({
            "model": model_to_dict(simplified),
            "report": sreport.to_json_dict(),
        }, args.output)
        return 0

    if args.command == "render":
        if args.format == render.JSON:
            text = render.to_json(doc.model, events, doc.behavior)
        else:
            overlay = make_overlay(events) if args.overlay else None
            options = render.RenderOptions(
                cluster_thimacs=not args.flat,
                overlay=overlay,
            )
            text = render.to_dot(doc.model, options, events)
        _emit(text, args.output)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
