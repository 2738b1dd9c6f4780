"""Write golden.json: the SHA-256 of every command's output at the golden seed.

    python3 perfbench/record_golden.py

Run it from the root of a checkout of the commit whose outputs are the
reference; run.py compares each run's outputs at that seed against it.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run

sys.path[:0] = [str(run.ROOT / "src"), str(run.HERE)]
import tmkit.cli  # noqa: E402  (run.call_tm looks it up in sys.modules)

digests = {}
with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
    for workload, wl in run.WORKLOADS.items():
        model = run.Model(workload, wl.size, run.GOLDEN_SEED, Path(tmp))
        digests[workload] = {}
        for metric, argv in model.argv.items():
            _, code, out, tb = run.call_tm(argv)
            if run.outcome(code, tb) is not None:
                sys.exit(f"{workload} {metric}: {run.outcome(code, tb)}")
            digests[workload][metric] = hashlib.sha256(out.encode("utf-8")).hexdigest()
(run.HERE / "golden.json").write_text(json.dumps(digests, indent=2) + "\n")
