"""Golden containment check: one SHA-256 digest over every diagnostic that
``try_build_model`` reports for random parent maps, pinned in
``fixtures/golden_nesting.json``.

Each draw is a list of thimacs whose ids repeat and whose parents mix
``None``, ids of the draw, an unknown id and the thimac itself, so
containment cycles (self-loops included), chains hanging off a cycle,
unknown parents, duplicate ids and duplicate sibling names all occur. The
digest covers ``(code, element, message)`` of every diagnostic, in order.

To record the digest again after an intended change of behaviour, run
``PYTHONPATH=src python tests/test_golden_nesting.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from tmkit.model import Thimac, try_build_model

GOLDEN = Path(__file__).parent / "fixtures" / "golden_nesting.json"
SEED = 5
DRAWS = 2500
MIN_PER_CODE = 200


def parent_map(rng: random.Random) -> list[Thimac]:
    ids = [rng.choice("abcdefgh") for _ in range(rng.randint(1, 10))]
    thimacs = []
    for tid in ids:
        parent = rng.choices([None, rng.choice(ids), "zz", tid], weights=[2, 6, 1, 1])[0]
        thimacs.append(Thimac(id=tid, name=rng.choice("xyz"), parent=parent))
    return thimacs


def digest_and_codes() -> tuple[str, Counter]:
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    codes: Counter = Counter()
    for _ in range(DRAWS):
        _, diags = try_build_model(parent_map(rng), [], [], [])
        digest.update(json.dumps([[d.code, d.element, d.message] for d in diags]).encode())
        digest.update(b"\n")
        codes.update({d.code for d in diags})
    return digest.hexdigest(), codes


def test_containment_diagnostics_match_golden_digest():
    digest, codes = digest_and_codes()
    assert digest == json.loads(GOLDEN.read_text())["digest"]
    assert set(codes) == {"NEST_CYCLE", "REF_UNRESOLVED", "DUP_NAME"}
    assert min(codes.values()) >= MIN_PER_CODE, codes


if __name__ == "__main__":
    digest, codes = digest_and_codes()
    GOLDEN.write_text(json.dumps({"seed": SEED, "draws": DRAWS, "digest": digest}, indent=1) + "\n")
    print(digest, dict(codes))
