"""Golden front end: SHA-256 digests of what the text layer makes of its
input, pinned in ``fixtures/golden_parse.json``.

Every change to the scanner, parser, lowering, formatter or dot emitter
must keep these digests. One digest covers, for one input text, the
``repr`` of the AST with its offsets (or of the parse errors), the
diagnostics from ``lower``, the canonical text from ``format_model`` and
the dot text clustered and flat. The inputs are the corpus models, the
three benchmark shapes at small sizes, seeded mutations of each
(deletions, truncations, and insertions of punctuation, arrows,
keywords, odd whitespace, comment marks and non-ASCII letters and
numerals), a few hand-picked edge cases, and the ``authoring`` shape at
its benchmark size.

To record the digests again after an intended change of behaviour, run
``PYTHONPATH=src python tests/test_golden_parse.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import CORPUS_NAMES, load_shapes
from tmkit.cli import corpus
from tmkit.diagnostics import ModelError
from tmkit.dsl import ParseFailure, format_model, lower, parse
from tmkit.render import RenderOptions, to_dot

GOLDEN = Path(__file__).parent / "fixtures" / "golden_parse.json"
MUTATIONS = 100

INSERTS = (
    "{", "}", "(", ")", ";", ".", "->", "~>", "-", "~", ">", "thimac", "flow",
    "trigger", "event", "behavior", "repeat", "create", "process", "x", "\t",
    "\r", "\n", "#", " # note\n", "é", "²", "½", "a²", "_", "9",
)

EDGE_CASES = (
    "",
    "\n",
    "# only a comment",
    "thimac A { create; } # trailing comment, no newline",
    "thimac A { create; }\n# comment\n",
    "²",
    "½x",
    "thimac a² { create; }",
    "thimac A { create; }\r\nthimac B {\tprocess(é); }\r\n",
    "thimac 一 { create; }",
    "flow A.create -> B.process",
    "thimac A { thimac B { thimac C { create; process; } } }\n"
    "flow A.B.C.create -> A.B.C.process;\n",
    "thimac A { thimac B { create; }",
    "behavior { A -> B repeat; }",
    "-> ~> - ~ > \f \v  ",
    # Positions after CRLF lines, comment lines and tabs; numerals inside a
    # line; a stray form feed later on; an open thimac ending in a comment.
    "thimac A { create; }\r\n# a comment line\nthimac B { create }\nflow A.create -> ;\r\n",
    "thimac A { create; }\r\n# note\r\n\nflow A.create\t~> B.x;\n\tevent { }",
    "thimac A {\tcreate\t}",
    "thimac A { create; } ²x ½9 thimac a² { process; } flow a².process -> A.create;",
    "thimac A { create; }\n\nthimac B { process; \f }\n",
    "thimac A { create; thimac B { process; # still open",
)
# The authoring shape at its benchmark size, pinned with the edge cases.
AUTHORING_SIZE = 35


@functools.cache
def _bases() -> dict[str, str]:
    texts = {f"corpus/{name}": corpus()[name].read_text(encoding="utf-8")
             for name in CORPUS_NAMES}
    for name, make in load_shapes().GENERATORS.items():
        texts[f"shape/{name}"] = make(3, 0).text
    return texts


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.4:
            text = text[:at] + text[at + rng.randint(1, 8):]
        elif op < 0.5:
            text = text[:at]
        else:
            text = text[:at] + rng.choice(INSERTS) + text[at:]
    return text


def _variants(base: str) -> dict[str, str]:
    """The inputs pinned under one base name."""
    if base == "edge":
        cases = {str(i): text for i, text in enumerate(EDGE_CASES)}
        cases[f"authoring/{AUTHORING_SIZE}"] = load_shapes().authoring(AUTHORING_SIZE, 0).text
        return cases
    text = _bases()[base]
    rng = random.Random(base)
    variants = {"original": text}
    for i in range(MUTATIONS):
        variants[f"mutation/{i}"] = _mutate(text, rng)
    return variants


def front_end_report(text: str) -> str:
    """Everything the text layer makes of ``text``, as one string."""
    try:
        ast = parse(text)
    except ParseFailure as exc:
        return "parse errors: " + repr(exc.errors)
    parts = [repr(ast)]
    try:
        doc = lower(ast)
    except ModelError as exc:
        parts.append("diagnostics: " + repr(exc.diagnostics))
        return "\n".join(parts)
    parts.append(format_model(doc.model, doc.events, doc.behavior))
    parts.append(to_dot(doc.model))
    parts.append(to_dot(doc.model, RenderOptions(cluster_thimacs=False)))
    return "\n".join(parts)


def _digests(base: str) -> dict[str, str]:
    return {
        key: hashlib.sha256(front_end_report(text).encode()).hexdigest()
        for key, text in _variants(base).items()
    }


BASES = (*(f"corpus/{name}" for name in CORPUS_NAMES),
         "shape/sim-fanout", "shape/sim-relay", "shape/authoring", "edge")


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_base(golden):
    assert sorted(golden) == sorted(BASES)


@pytest.mark.parametrize("base", BASES)
def test_front_end_matches_golden_digest(base, golden):
    assert _digests(base) == golden[base]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {base: _digests(base) for base in BASES}, indent=1, sort_keys=True) + "\n")
