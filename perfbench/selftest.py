"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [workload ...]

Checks that the sweep generator is deterministic per seed and differs across
seeds, and that two traced runs of one seed give identical counts for each
named workload (default: all four).  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import EXACT_COUNTS
    from workloads import WORKLOADS, specs_digest, sweep_specs

    def head(seed):
        return specs_digest(itertools.islice(sweep_specs(seed), 64))

    ok = True
    if head(1) != head(1) or head(1) == head(2):
        print("FAIL sweep generator: not deterministic per seed or not seed-dependent")
        ok = False
    else:
        print("ok   sweep generator: deterministic per seed, differs across seeds")

    for workload in argv or list(WORKLOADS):
        first, second = _traced_run(workload, 7), _traced_run(workload, 7)
        a, b = first["metrics"], second["metrics"]
        diff = [k for k in EXACT_COUNTS if a[k]["value"] != b[k]["value"]]
        same = (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
        if diff or not same or not (first["correct"] and second["correct"]):
            print(f"FAIL {workload}: counts differ between traced runs: {diff}")
            ok = False
        else:
            print(f"ok   {workload}: {len(EXACT_COUNTS)} counts repeat exactly")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
