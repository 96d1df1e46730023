"""Ceiling probe: wall time and stdout SHA-256 of four large reports.

    python3 scripts/ceiling.py

Run it from the root of a checkout.  It builds four documents with
``tests/conftest.py::gl_document`` and runs one report on each, every report
in a fresh ``python -m cohint.cli`` process importing that checkout's
``src/``:
- ``verify --max-degree 8`` on gl4 adjoint, ``gl_document(4, "adjoint", 1, 0)``;
- ``bps`` on gl3-adjoint-m3, the 3-loop quiver with dimension vector 3,
  ``gl_document(3, "adjoint", 3, 9)``;
- ``bps`` on gl4-adjoint-m2, the 2-loop quiver with dimension vector 4,
  ``gl_document(4, "adjoint", 2, 8)``;
- ``strata`` on gl7 adjoint, ``gl_document(7, "adjoint", 1, 0)``, whose Weyl
  group has 5040 elements.

Each line gives the report, its unscaled wall seconds (process start to exit)
and its stdout SHA-256, so that two checkouts can be compared by speed and by
output.  ``REPORTS`` pins each report's SHA-256, the one place these digests
are kept: ``tests/test_reports.py`` reads them from here.  A report that exits
non-zero, runs past ``BUDGET`` (60 s each) or prints another digest is printed
as failed, and the script then exits 1.  The times are not gated: they depend
on the host.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
BUDGET = 60.0  # seconds each report may take
# (argv, gl_document arguments, stdout SHA-256).  The first two digests were
# recorded while every graded basis kept coefficient vectors over its own
# monomial list, the third before the induced submodules were built as
# modules over the Levi invariants, the fourth while the group was closed by
# matrix products; no catalog key has BPS pieces and complements, or a
# group and a stratification, as large.
REPORTS = (
    (("verify", "--max-degree", "8"), (4, "adjoint", 1, 0),
     "3aa1f38dee34344064833681271b47d4c5741b1a99d5038b1e1f65048d7d1e19"),
    (("bps",), (3, "adjoint", 3, 9),
     "0a38e61b3a1c3ef3866ea2ba1ecd8caf6551239b8667f9309fe43e9fc03adbec"),
    (("bps",), (4, "adjoint", 2, 8),
     "fbc67c3563b9d69b82e964b99e29342f535787a5b19e2dc0f0a2f6a0d035da6b"),
    (("strata",), (7, "adjoint", 1, 0),
     "befd6761afcc0e514e7b1d12cb59346dc0264852e5fb78bc0ff2619fb8082c3a"),
)


def run(argv: list[str]) -> tuple[float, str]:
    """(wall seconds, stdout SHA-256) of one report in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-m", "cohint.cli", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=BUDGET, check=True)
    return time.monotonic() - start, hashlib.sha256(done.stdout).hexdigest()


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from conftest import gl_document

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for command, shape, expected in REPORTS:
            doc = gl_document(*shape)
            path = os.path.join(tmp, f"{doc['name']}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            name = " ".join([command[0], "--input", doc["name"], *command[1:]])
            try:
                seconds, digest = run([command[0], "--input", path, *command[1:]])
            except subprocess.TimeoutExpired:
                print(f"{name}: FAILED, over the budget of {BUDGET:g} s")
                failed += 1
            except subprocess.CalledProcessError as exc:
                print(f"{name}: FAILED, exit code {exc.returncode}")
                failed += 1
            else:
                if digest == expected:
                    print(f"{name}: {seconds:.2f} s, stdout sha256 {digest}")
                else:
                    print(f"{name}: FAILED, stdout sha256 {digest}, pinned {expected}")
                    failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
