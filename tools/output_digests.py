"""Digests of what ``tm`` writes on a fixed set of inputs, to compare two checkouts.

    python tools/output_digests.py [CHECKOUT] > digests.txt

Imports tmkit from ``CHECKOUT/src`` (by default the checkout that holds
this script) and runs ``tmkit.cli.main`` in process on 21 inputs: the four
bundled corpus models, the six ``.tm`` fixtures under ``tests/fixtures``,
the three benchmark shapes of ``CHECKOUT/perfbench/shapes.py`` at
n = 3, 12 and 40 (seed 1), and two texts that fail to parse (the
tendering corpus model without its last ';', the authoring shape at
n = 40 without its first), each under the ten command variants below,
210 runs in all. It prints one line per run:

    input argv exit sha256(stdout) sha256(stderr)

where ``exit`` is the exit code, or ``!`` and the exception's name if one
escaped ``main``. Run it once against each of two checkouts and diff the
two outputs: equal lines mean equal exit codes and byte-identical output.
Standard library only; it writes the shapes to a temporary directory and
nothing into either checkout. :func:`digest_lines` returns the lines, for
a caller that has imported tmkit itself.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

VARIANTS = (
    ("validate",),
    ("events",),
    ("simulate",),
    ("simulate", "--policy", "random", "--seed", "1", "--cap", "2"),
    ("simplify",),
    ("render",),
    ("render", "--overlay"),
    ("render", "--flat"),
    ("render", "--format", "json"),
    ("fmt",),
)
SIZES = (3, 12, 40)
SEED = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def _load_shapes(checkout: Path):
    """``perfbench/shapes.py`` as a module, read without writing a bytecode cache."""
    spec = importlib.util.spec_from_file_location("shapes", checkout / "perfbench" / "shapes.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while it runs
    writing, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writing
    return module


def inputs(checkout: Path, tmp: Path) -> list[tuple[str, Path]]:
    """(stable name, path) of every input, in a fixed order."""
    found = [(f"corpus/{p.name}", p)
             for p in sorted((checkout / "src" / "tmkit" / "corpus").glob("*.tm"))]
    found += [(f"fixtures/{p.name}", p)
              for p in sorted((checkout / "tests" / "fixtures").glob("*.tm"))]
    shapes = _load_shapes(checkout)
    for shape in sorted(shapes.GENERATORS):
        for n in SIZES:
            path = tmp / f"{shape}-{n}.tm"
            path.write_text(shapes.GENERATORS[shape](n, SEED).text, encoding="utf-8")
            found.append((f"shapes/{path.name}", path))
    # Texts with a syntax error, which a reader declines.
    tendering = (checkout / "src" / "tmkit" / "corpus" / "tendering.tm").read_text(encoding="utf-8")
    last = tendering.rindex(";")
    authoring = shapes.GENERATORS["authoring"](40, SEED).text
    first = authoring.index(";")
    for name, text in (("tendering-no-last-semicolon.tm", tendering[:last] + tendering[last + 1:]),
                       ("authoring-40-no-first-semicolon.tm", authoring[:first] + authoring[first + 1:])):
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        found.append((f"broken/{name}", path))
    return found


def run(main, argv: list[str]) -> tuple[str, str, str]:
    """(exit, stdout, stderr) of one in-process ``tm`` command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception as exc:  # an exception that escapes main is a result to report
            code = f"!{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def digest_lines(checkout: Path, tm: Callable[[list[str]], int]) -> list[str]:
    """The 210 lines, in order, of ``tm`` (a ``tmkit.cli.main``) run on the
    inputs of ``checkout``."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, path in inputs(checkout, Path(tmp)):
            for variant in VARIANTS:
                code, out, err = run(tm, [*variant, str(path)])
                lines.append(f"{name} {','.join(variant)} {code} {_sha256(out)} {_sha256(err)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", metavar="CHECKOUT", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="the checkout whose src/tmkit runs (default: the one holding this script)")
    checkout = parser.parse_args(argv).checkout.resolve()
    if not (checkout / "src" / "tmkit").is_dir():
        print(f"{checkout} holds no src/tmkit", file=sys.stderr)
        return 2
    sys.path.insert(0, str(checkout / "src"))
    import tmkit.cli

    if not Path(tmkit.cli.__file__).resolve().is_relative_to(checkout / "src"):
        print(f"tmkit was imported from {tmkit.cli.__file__}, not {checkout / 'src'}",
              file=sys.stderr)
        return 2
    for line in digest_lines(checkout, tmkit.cli.main):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
