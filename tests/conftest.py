"""Shared builders: catalog inputs are expensive enough to build once per
session; everything derived from a stratification is memoised on it."""

from __future__ import annotations

import functools
import re

import pytest

from cohint import catalog_emit, enumerate_strata
from cohint.catalog import catalog_keys
from cohint.integrality import (
    bps_space,
    once,
    verify_associativity,
    verify_hilbert,
    verify_isomorphism,
)


# Every catalog key, a parametric one with the argument 3.
CATALOG_INSTANCES = tuple(re.sub(r"<\w+>", "3", key) for key in catalog_keys())


@functools.cache
def build(key: str):
    """(document, stratification) for a catalog key."""
    doc = catalog_emit(key)
    return doc, enumerate_strata(doc)


def bps_spaces(key: str):
    """BPS spaces of the orbit representatives, keyed by stratum index."""
    strat = build(key)[1]
    return {s.index: once(strat, bps_space, s) for s in strat.orbit_representatives()}


def verify_all(key: str):
    """(hilbert, isomorphism, associativity) ledgers of a catalog key to degree 8."""
    strat = build(key)[1]
    return (once(strat, verify_hilbert, 8), once(strat, verify_isomorphism, 8),
            once(strat, verify_associativity))


def is_monomial_matrix(matrix) -> bool:
    """Every column has exactly one nonzero entry."""
    return all(sum(1 for row in matrix if row[i]) == 1 for i in range(len(matrix)))


def gl_document(n: int, kind: str, m: int, z: int) -> dict:
    """gl_n acting by its adjoint, or on C^n + (C^n)*, as an input document."""
    unit = [[int(k == i) for k in range(n)] for i in range(n)]
    roots = [[a - b for a, b in zip(unit[i], unit[j])]
             for i in range(n) for j in range(n) if i != j]
    generators = []
    for i in range(n - 1):
        rows = [list(u) for u in unit]
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        generators.append(rows)
    nonzero = roots if kind == "adjoint" else unit + [[-c for c in u] for u in unit]
    v_weights = [{"alpha": w, "multiplicity": m} for w in nonzero]
    if z:
        v_weights.append({"alpha": [0] * n, "multiplicity": z})
    return {
        "name": f"gl{n}-{kind}-m{m}-z{z}",
        "rank": n,
        "weyl_generators": generators,
        "g_weights": [{"alpha": [0] * n, "multiplicity": n}]
        + [{"alpha": r, "multiplicity": 1} for r in roots],
        "v_weights": v_weights,
    }


@pytest.fixture
def gl2_strat():
    return build("gl2-cotangent")[1]


@pytest.fixture
def torus_strat():
    return build("torus2-cotangent")[1]
