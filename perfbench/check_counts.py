"""Check that the exact work counters repeat bit for bit.

    python3 perfbench/check_counts.py

Runs ``run.py --trace 1`` twice on every workload with the default seed and
fails unless both runs are correct and every per-layer metric with unit
``count`` reads the same in both.  Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS
from inputs import DEFAULT_SEED

# Short enough that each traced run makes a single pass of each kind.
SECONDS = 1


def traced_run(workload: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(DEFAULT_SEED), "--seconds", str(SECONDS), "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        counts = {k: (m["value"], second["metrics"][k]["value"])
                  for k, m in first["metrics"].items() if m["unit"] == "count"}
        differ = {k: v for k, v in counts.items() if v[0] != v[1]}
        ok = first["correct"] and second["correct"] and not differ
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {len(counts)} counters"
              + (f", differing {differ}" if differ else "")
              + ("" if first["correct"] and second["correct"] else ", a report failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
