"""Mutated models never end in a traceback: ``tm`` on a corpus or fixture
text with random edits exits 0, 1 or 2 through its own output.

Two families of mutants come from a seeded ``random.Random``, so every run
draws the same texts in a fixed time. Character edits delete, insert
(keywords, punctuation, ``\\r``, ``\\f``, ``\\0``, ``²``, ``é``, U+0301) or
move slices, and mostly end in parse failures. Edits that keep the text
parseable swap a stage reference or an event name for another from the
same text, or duplicate or delete an edge or chronology line, and mostly
end in a model or a diagnostic. Every mutant runs through every command
below: nothing raises, stderr stays empty, exit 2 carries
``parse_errors`` and exit 0 or 1 the command's format. A mutant that
loads formats to text that reloads to the same document and formats to
itself; one that validates reads back from its ``render --format json``.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from conftest import FIXTURES
from tmkit.cli import corpus, main
from tmkit.dsl import format_model, load, lower, parse
from tmkit.render import from_json
from tmkit.validator import validate_document

COMMANDS = (
    ("validate",),
    ("events",),
    ("simulate",),
    ("simulate", "--policy", "random", "--cap", "2"),
    ("simplify",),
    ("render", "--overlay"),
    ("render", "--format", "json"),
    ("fmt",),
)
MUTANTS = 250  # per family

INSERTS = (
    "thimac", "flow", "trigger", "event", "behavior", "repeat", "create", "release",
    "transfer", "receive", "process", "{", "}", ";", ".", "->", "~>", "#", " ", "\n",
    "\r", "\f", "\0", "²", "é", "\u0301",
)
REFERENCE = re.compile(r"[^\W\d]\w*(?:\.[^\W\d]\w*)+")


def _texts() -> list[str]:
    paths = [*corpus().values(), *sorted(FIXTURES.glob("*.tm"))]
    return [path.read_text(encoding="utf-8") for path in paths]


def _character_edits(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 20))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif edit == 1:
            text = text[:i] + rng.choice(INSERTS) + text[i:]
        else:
            piece, rest = text[i:j], text[:i] + text[j:]
            k = rng.randrange(len(rest) + 1)
            text = rest[:k] + piece + rest[k:]
    return text


def _swap(rng: random.Random, text: str, pattern: re.Pattern) -> str:
    """``text`` with one match of ``pattern`` replaced by another of its matches."""
    found = list(pattern.finditer(text))
    names = sorted({m.group() for m in found})
    if len(names) < 2:
        return text
    m = rng.choice(found)
    other = rng.choice([name for name in names if name != m.group()])
    return text[:m.start()] + other + text[m.end():]


def _parseable_edits(rng: random.Random, text: str) -> str:
    text = re.sub(r"#[^\n]*", "", text)
    for _ in range(rng.randint(1, 6)):
        edit = rng.randrange(3)
        if edit == 0:
            text = _swap(rng, text, REFERENCE)
        elif edit == 1:
            events = sorted(set(re.findall(r"\bevent\s+(\w+)", text)))
            if events:
                alternatives = "|".join(map(re.escape, events))
                text = _swap(rng, text, re.compile(rf"(?<![\w.])(?:{alternatives})(?![\w.])"))
        else:
            lines = text.split("\n")
            edges = [i for i, line in enumerate(lines) if "->" in line or "~>" in line]
            if edges:
                i = rng.choice(edges)
                lines[i:i + 1] = [lines[i]] * rng.choice((0, 2))
                text = "\n".join(lines)
    return text


def _check_output(command: tuple[str, ...], code: int, out: str) -> None:
    if code == 2:
        assert json.loads(out)["parse_errors"]
    elif code == 1 or command[0] in ("validate", "events", "simplify") or "json" in command:
        assert isinstance(json.loads(out), dict)
    elif command[0] == "simulate":
        *records, end = map(json.loads, out.splitlines())
        assert all(record["step"] > 0 for record in records)
        assert end["kind"] == "run-ended"
    elif command[0] == "render":
        assert out.startswith("digraph ") and out.endswith("}\n")


@pytest.mark.parametrize("family", [_character_edits, _parseable_edits],
                         ids=["character", "parseable"])
def test_mutated_models_end_without_a_traceback(capsys, tmp_path, family):
    rng = random.Random(family.__name__)
    texts = _texts()
    path = tmp_path / "mutant.tm"
    codes = []
    for _ in range(MUTANTS):
        text = family(rng, rng.choice(texts))
        path.write_bytes(text.encode("utf-8"))
        outputs = {}
        for command in COMMANDS:
            code = main([*command, str(path)])
            captured = capsys.readouterr()
            assert code in (0, 1, 2), (command, text)
            assert captured.err == "", (command, text)
            _check_output(command, code, captured.out)
            outputs[command] = code, captured.out
        codes.append(outputs[("validate",)][0])

        code, out = outputs[("fmt",)]
        if code == 0:
            doc, again = load(path), lower(parse(out))
            assert (again.model, again.events, again.behavior) == (
                doc.model, doc.events, doc.behavior), text
            assert format_model(again.model, again.events, again.behavior) == out, text
        code, out = outputs[("render", "--format", "json")]
        if code == 0:
            doc = load(path)
            _, events = validate_document(doc.model, doc.events, doc.behavior)
            model, read_events, _ = from_json(out)
            assert (model, read_events) == (doc.model, tuple(events)), text
    # Some mutants validate and some get diagnostics, so the round trips run.
    assert {0, 1} <= set(codes)
