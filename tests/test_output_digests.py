"""Byte-identical output: every run of ``tools/output_digests.py`` (ten
command variants on the corpus, the ``.tm`` fixtures, the benchmark
shapes at three sizes and two texts that fail to parse) exits with the
recorded code and writes the recorded bytes, pinned as SHA-256 digests
in ``fixtures/output_digests.txt``.

A change that means to change output records the file again with
``python tools/output_digests.py > tests/fixtures/output_digests.txt``;
its diff then names exactly the runs that moved.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES
from tmkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORDED = FIXTURES / "output_digests.txt"


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_writes_the_recorded_bytes():
    recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    lines = load_tool().digest_lines(ROOT, main)
    moved = [" ".join(line.split()[:2]) for line, old in zip(lines, recorded) if line != old]
    assert not moved, f"runs whose exit code or output changed: {moved}"
    assert len(lines) == len(recorded) == 210
