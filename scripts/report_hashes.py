"""SHA-256 and exit code of the stdout of a fixed set of ``cohint`` reports.

    python3 scripts/report_hashes.py > hashes.json

Run it from the root of a checkout: it imports ``cohint`` from that
checkout's ``src/``, so running one copy of this script from the roots of two
checkouts and diffing the outputs shows whether a change kept every report
byte-identical.  It needs nothing beyond the standard library.

The set:
- ``verify --max-degree 8``, ``verify``, ``bps``, ``bps --orbit 1``,
  ``strata``, ``strata --format text``, ``molien``, ``molien --max-degree 8``,
  ``validate`` and ``verify --max-degree 6 --format text`` on 30 catalog keys:
  the fixed keys, ``gl2-cotangent:0..5``, ``sl2-irrep:1..8`` and
  ``sl2-adjoint:0..3``;
- ``validate``, ``strata`` and ``molien --max-degree 8`` on gl_n acting by its
  adjoint and on C^n + (C^n)*, for n = 3, 4, 5, through ``--input``;
- ``verify --max-degree 8``, ``bps`` and ``bps --orbit 1`` on the two n = 3
  documents;
- ``validate`` and ``strata``, each in JSON and in text, on eleven malformed
  ``--input`` documents: one per lattice rule of validation, a root of
  multiplicity 2 among them; two generators with no integer inverse, one of
  them singular; and an infinite group under a cap of 50, twice: once
  generated by a shear, once by two reflections in the same root (44
  reports, 368 in all).

The output is one JSON object ``{argv: [exit code, sha256]}``; an ``--input``
argv names its document instead of the temporary file it was read from.
``tests/report_hashes.json`` holds that object, and a tier-1 test compares
every report with it through ``reports`` and ``report``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

CATALOG_COMMANDS = (
    ("verify", "--max-degree", "8"),
    ("verify",),
    ("bps",),
    ("bps", "--orbit", "1"),
    ("strata",),
    ("strata", "--format", "text"),
    ("molien",),
    ("molien", "--max-degree", "8"),
    ("validate",),
    ("verify", "--max-degree", "6", "--format", "text"),
)
DOCUMENT_COMMANDS = (("validate",), ("strata",), ("molien", "--max-degree", "8"))
RANK3_COMMANDS = (("verify", "--max-degree", "8"), ("bps",), ("bps", "--orbit", "1"))
MALFORMED_COMMANDS = (
    ("validate",),
    ("validate", "--format", "text"),
    ("strata",),
    ("strata", "--format", "text"),
)


def catalog_keys(listed) -> list[str]:
    """The fixed catalog keys, then the parametric ones at their arguments."""
    arguments = {"gl2-cotangent": range(6), "sl2-irrep": range(1, 9), "sl2-adjoint": range(4)}
    keys = [k for k in listed if ":<" not in k]
    for k in listed:
        if ":<" in k:
            name = k.split(":")[0]
            keys += [f"{name}:{a}" for a in arguments[name]]
    return keys


def gl_document(n: int, kind: str) -> dict:
    """gl_n acting by its adjoint ("adjoint") or on C^n + (C^n)*
    ("cotangent"), every weight with multiplicity one."""
    unit = [[int(k == i) for k in range(n)] for i in range(n)]
    roots = [[a - b for a, b in zip(unit[i], unit[j])]
             for i in range(n) for j in range(n) if i != j]
    generators = []
    for i in range(n - 1):
        rows = [list(u) for u in unit]
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        generators.append(rows)
    nonzero = roots if kind == "adjoint" else unit + [[-c for c in u] for u in unit]
    return {
        "name": f"gl{n}-{kind}-m1-z0",
        "rank": n,
        "weyl_generators": generators,
        "g_weights": [{"alpha": [0] * n, "multiplicity": n}]
        + [{"alpha": r, "multiplicity": 1} for r in roots],
        "v_weights": [{"alpha": w, "multiplicity": 1} for w in nonzero],
    }


def malformed_documents() -> list[dict]:
    """gl_2 on C^2 + (C^2)* with one field replaced, named after what is
    wrong with it."""
    zero = {"alpha": [0, 0], "multiplicity": 2}
    roots = [{"alpha": [1, -1], "multiplicity": 1}, {"alpha": [-1, 1], "multiplicity": 1}]
    edits = {
        "non-invertible": {"weyl_generators": [[[2, 0], [0, 1]]]},
        "singular": {"weyl_generators": [[[1, 0], [0, 0]]]},
        "unstable-g": {"g_weights": [zero, {"alpha": [1, 0]}, {"alpha": [-1, 0]}]},
        "missing-zero-weight": {"g_weights": [{"alpha": [0, 0], "multiplicity": 1}, *roots]},
        "g-not-negation-closed": {"g_weights": [zero, {"alpha": [1, 1]}]},
        "unstable-v": {"v_weights": [{"alpha": [1, 0]}, {"alpha": [-1, 0]}]},
        "not-weakly-symmetric": {"v_weights": [{"alpha": [1, 0]}, {"alpha": [0, 1]}]},
        "infinite-group": {
            "weyl_generators": [[[1, 1], [0, 1]]],
            "g_weights": [zero],
            "v_weights": [],
            "options": {"group_cap": 50},
        },
        "doubled-root": {
            "g_weights": [zero, *({**r, "multiplicity": 2} for r in roots)],
        },
        "no-root-reflection": {"g_weights": [zero]},
        "root-reflection-infinite-group": {
            "weyl_generators": [[[-1, 0], [0, 1]], [[-1, -2], [0, 1]]],
            "g_weights": [zero, {"alpha": [1, 0]}, {"alpha": [-1, 0]}],
            "v_weights": [],
            "options": {"group_cap": 50},
        },
    }
    return [
        {**gl_document(2, "cotangent"), "name": f"malformed-{name}", **fields}
        for name, fields in edits.items()
    ]


def report(main, argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def reports(directory: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every report in the set, in output order.  The
    ``--input`` documents are written into directory, and the name of their
    reports gives the document's name in place of its path."""
    from cohint.catalog import catalog_keys as listed_keys

    argvs = []
    for key in catalog_keys(listed_keys()):
        for command in CATALOG_COMMANDS:
            argv = [command[0], "--catalog", key, *command[1:]]
            argvs.append((" ".join(argv), argv))
    documents = []
    for n in (3, 4, 5):
        for kind in ("adjoint", "cotangent"):
            commands = DOCUMENT_COMMANDS + (RANK3_COMMANDS if n == 3 else ())
            documents.append((gl_document(n, kind), commands))
    documents += [(doc, MALFORMED_COMMANDS) for doc in malformed_documents()]
    for doc, commands in documents:
        path = os.path.join(directory, f"{doc['name']}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command in commands:
            argv = [command[0], "--input", path, *command[1:]]
            name = " ".join([command[0], "--input", doc["name"], *command[1:]])
            argvs.append((name, argv))
    return argvs


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from cohint.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: report(cli_main, argv) for name, argv in reports(tmp)}
    json.dump(hashes, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
