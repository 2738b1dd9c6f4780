"""Golden simplification: one SHA-256 digest over ``simplify``'s output on
``arbitrary_model`` draws, pinned in ``fixtures/golden_simplify.json``.

The digest covers, per draw and in order, the canonical dict of the
simplified model and the report. The draws include illegal wiring,
repeated edges and cycles through transport stages, and the test checks
that enough of them exercise each corner of the collapse and the trigger
re-anchoring, so a change there cannot pass by luck.

To record the digest again after an intended change of behaviour, run
``PYTHONPATH=src python tests/test_golden_simplify.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from conftest import arbitrary_model
from tmkit.model import model_to_dict
from tmkit.transform import simplify

GOLDEN = Path(__file__).parent / "fixtures" / "golden_simplify.json"
SEED = 11
DRAWS = 2000
MIN_PER_CASE = 50


def _cases(model, simplified, report) -> set[str]:
    """Which corners of ``simplify`` one draw exercises."""
    cases = {d.reason for d in report.dropped_triggers}
    if any(f.source == f.target for f in simplified.flows):
        cases.add("collapsed self-loop")
    before = {(t.source, t.target) for t in model.triggers}
    if any((t.source, t.target) not in before for t in simplified.triggers):
        cases.add("re-anchored trigger")
    if len(set(model.flows)) < len(model.flows):
        cases.add("repeated flow")
    return cases


def digest_and_cases() -> tuple[str, Counter]:
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    cases: Counter = Counter()
    for _ in range(DRAWS):
        model = arbitrary_model(rng)
        simplified, report = simplify(model)
        digest.update(json.dumps([model_to_dict(simplified), report.to_json_dict()]).encode())
        digest.update(b"\n")
        cases.update(_cases(model, simplified, report))
    return digest.hexdigest(), cases


def test_simplify_matches_golden_digest_on_arbitrary_models():
    digest, cases = digest_and_cases()
    assert digest == json.loads(GOLDEN.read_text())["digest"]
    assert set(cases) == {
        "collapsed self-loop",
        "re-anchored trigger",
        "repeated flow",
        "no retained stage upstream of the trigger source",
        "no retained stage downstream of the trigger target",
        "re-anchoring would collapse the trigger to a self-loop",
    }
    assert min(cases.values()) >= MIN_PER_CASE, cases


if __name__ == "__main__":
    digest, cases = digest_and_cases()
    GOLDEN.write_text(json.dumps({"seed": SEED, "draws": DRAWS, "digest": digest}, indent=1) + "\n")
    print(digest, dict(cases))
