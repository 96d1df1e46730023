"""Record the stdout SHA-256 of every default-seed report in workloads.json.

    python3 perfbench/record_golden.py

Run it only at a commit whose reports are known to be right: every later
benchmark run compares its reports against these values, so a change that
claims to keep the reports byte-identical must not re-record them.  A report
that fails any other check (exit code, ledgers, closed-form strata counts) is
not recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import inputs
import worker


def main() -> int:
    path = worker.HERE / "workloads.json"
    recorded = json.loads(path.read_text(encoding="utf-8"))
    cli = worker.import_cli()
    for name in inputs.WORKLOADS:
        reports = inputs.generate(name, inputs.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(prefix=".inputs-", dir=worker.HERE) as tmp:
            results = worker.run_pass(cli, reports, worker.write_inputs(reports, Path(tmp)))
        digests = {}
        for report, r in zip(reports, results):
            error = worker.check(report, r["exit"], r["stdout"], {}, default_seed=False)
            if error:
                print(f"{report.key}: {error}; nothing recorded", file=sys.stderr)
                return 1
            digests[report.key] = hashlib.sha256(r["stdout"].encode()).hexdigest()
        entry = recorded["workloads"][name]
        entry["inputs"] = [r.key for r in reports]
        entry["sha256"] = dict(sorted(digests.items()))
    path.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
