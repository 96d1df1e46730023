"""Seeded inputs of the three benchmark workloads.

Every workload is a list of ``Report`` objects: one ``cohint`` command line
each, plus, for generated inputs, the JSON document that the command reads
through ``--input``.  The same seed always gives the same list.  Nothing here
imports ``cohint``: the program only ever sees the generated documents and
catalog keys.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Report:
    """One program invocation of a workload pass."""

    command: str
    catalog: str | None = None
    document: dict | None = None
    max_degree: int | None = None
    # Independent oracle for the ``strata`` command: (strata, orbits).
    expected_counts: tuple[int, int] | None = None

    @property
    def doc_text(self) -> str:
        return json.dumps(self.document, sort_keys=True)

    @property
    def key(self) -> str:
        """Stable name of the invocation; it keys the recorded SHA-256."""
        if self.catalog is not None:
            source = f"--catalog {self.catalog}"
        else:
            digest = hashlib.sha256(self.doc_text.encode()).hexdigest()[:16]
            source = f"--input {self.document['name']}@{digest}"
        degree = f" --max-degree {self.max_degree}" if self.max_degree is not None else ""
        return f"{self.command} {source}{degree}"

    def argv(self, input_path: str | None) -> list[str]:
        argv = [self.command]
        argv += ["--catalog", self.catalog] if self.catalog is not None else ["--input", input_path]
        if self.max_degree is not None:
            argv += ["--max-degree", str(self.max_degree)]
        return argv


def _weights(pairs) -> list[dict]:
    return [{"alpha": list(a), "multiplicity": m} for a, m in sorted(pairs.items())]


# ---------------------------------------------------------------- gl3-kernel

def gl3_kernel(rng: random.Random) -> list[Report]:
    reports = [Report("verify", catalog=k, max_degree=8) for k in ("adjoint:sl3", "adjoint:gl3")]
    rng.shuffle(reports)
    return reports


# --------------------------------------------------------------------- sweep

SWEEP_CATALOG = (
    ["torus2-cotangent"]
    + [f"gl2-cotangent:{g}" for g in range(1, 6)]
    + [f"sl2-irrep:{d}" for d in range(2, 9)]
    + [f"sl2-adjoint:{g}" for g in range(1, 4)]
    + [f"{kind}:{group}" for kind in ("trivial", "adjoint") for group in ("torus2", "sl2", "gl2")]
)


def _torus1_random(rng: random.Random) -> dict:
    """Rank-1 torus; weakly symmetric and in general not symmetric."""
    pos = rng.sample([1, 2, 3], rng.randint(1, 2))
    neg = rng.sample([1, 2, 3], rng.randint(1, 2))
    total = rng.randint(max(len(pos), len(neg)), 3)
    pairs: dict = {}
    for side, sign in ((pos, 1), (neg, -1)):
        left = total
        for i, d in enumerate(side):
            m = left if i == len(side) - 1 else rng.randint(1, left - (len(side) - 1 - i))
            pairs[(sign * d,)] = m
            left -= m
    return {"name": "torus1-random", "rank": 1, "weyl_generators": [],
            "g_weights": _weights({(0,): 1}), "v_weights": _weights(pairs)}


def _sl2_random(rng: random.Random) -> dict:
    pairs: dict = {}
    for d in rng.sample([1, 2, 3, 4], rng.randint(1, 2)):
        m = rng.randint(1, 2)
        pairs[(d,)] = pairs[(-d,)] = m
    if rng.random() < 0.5:
        pairs[(0,)] = rng.randint(1, 2)
    return {"name": "sl2-random", "rank": 1, "weyl_generators": [[[-1]]],
            "g_weights": _weights({(0,): 1, (2,): 1, (-2,): 1}), "v_weights": _weights(pairs)}


def _torus2_random(rng: random.Random) -> dict:
    """Rank-2 torus on the rays of (1,0) and (1,1) and their opposites, with
    seeded multiplicities and a seeded scale on the opposite weight, so the
    arrangement (and the cost) stays fixed while the document is weakly
    symmetric and in general not symmetric."""
    pairs: dict = {}
    for a, b in ((1, 0), (1, 1)):
        m, s = rng.randint(1, 2), rng.randint(1, 2)
        pairs[(a, b)] = pairs.get((a, b), 0) + m
        pairs[(-s * a, -s * b)] = pairs.get((-s * a, -s * b), 0) + m
    return {"name": "torus2-random", "rank": 2, "weyl_generators": [],
            "g_weights": _weights({(0, 0): 2}), "v_weights": _weights(pairs)}


def sweep(rng: random.Random) -> list[Report]:
    reports = [Report("verify", catalog=k, max_degree=16) for k in SWEEP_CATALOG]
    for make in (_torus1_random, _sl2_random, _torus2_random):
        reports.append(Report("verify", document=make(rng), max_degree=16))
    rng.shuffle(reports)
    return reports


# ------------------------------------------------------------- type-a-strata

def _bell(n: int) -> int:
    """Number of set partitions of n elements (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _partitions(n: int) -> int:
    """Number of integer partitions of n."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def _type_a_document(n: int, kind: str, rng: random.Random) -> tuple[dict, tuple[int, int]]:
    """gl_n with the adjoint, or with C^n + (C^n)*, and seeded multiplicities.

    The flats of the braid arrangement are the set partitions of n points,
    and its Weyl orbits are the integer partitions of n.  Adding the
    coordinate hyperplanes of C^n + (C^n)* gives the set partitions of n + 1
    points (the block of the extra point is where the cocharacter vanishes),
    with orbits counted by the partitions of the points outside that block.
    """
    unit = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    roots = [tuple(a - b for a, b in zip(unit[i], unit[j]))
             for i in range(n) for j in range(n) if i != j]
    zero = (0,) * n
    generators = []
    for i in range(n - 1):
        rows = [list(u) for u in unit]
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        generators.append(rows)
    m = rng.randint(1, 3)
    pairs: dict = {}
    if kind == "adjoint":
        pairs.update({r: m for r in roots})
        expected = (_bell(n), _partitions(n))
    else:
        pairs.update({u: m for u in unit})
        pairs.update({tuple(-c for c in u): m for u in unit})
        expected = (_bell(n + 1), sum(_partitions(k) for k in range(n + 1)))
    z = rng.randint(0, n)
    if z:
        pairs[zero] = z
    doc = {
        "name": f"gl{n}-{kind}-m{m}-z{z}",
        "rank": n,
        "weyl_generators": generators,
        "g_weights": _weights({zero: n, **{r: 1 for r in roots}}),
        "v_weights": _weights(pairs),
    }
    return doc, expected


def type_a_strata(rng: random.Random) -> list[Report]:
    reports = []
    for n in (4, 5):
        for kind in ("adjoint", "cotangent"):
            doc, expected = _type_a_document(n, kind, rng)
            reports.append(Report("strata", document=doc, expected_counts=expected))
    rng.shuffle(reports)
    return reports


WORKLOADS = {
    "gl3-kernel": gl3_kernel,
    "sweep": sweep,
    "type-a-strata": type_a_strata,
}


def generate(workload: str, seed: int) -> list[Report]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
