"""Shared builders: catalog inputs are expensive enough to cache per session."""

from __future__ import annotations

import pytest

from cohint import catalog_emit, enumerate_strata
from cohint.integrality import bps_by_orbit

_STRATS: dict = {}
_BPS: dict = {}
_VERIFY: dict = {}


def build(key: str):
    """(document, stratification) for a catalog key, cached."""
    if key not in _STRATS:
        doc = catalog_emit(key)
        _STRATS[key] = (doc, enumerate_strata(doc.group_data(), doc.rep_data()))
    return _STRATS[key]


def bps_cache(key: str):
    if key not in _BPS:
        _BPS[key] = bps_by_orbit(build(key)[1])
    return _BPS[key]


def verify_all(key: str, degree: int = 8):
    """Cached (hilbert, isomorphism, associativity) ledgers for a catalog key."""
    from cohint.integrality import (
        verify_associativity,
        verify_hilbert,
        verify_isomorphism,
    )

    if (key, degree) not in _VERIFY:
        _, strat = build(key)
        cache = bps_cache(key)
        _VERIFY[(key, degree)] = (
            verify_hilbert(strat, degree, cache),
            verify_isomorphism(strat, degree, cache),
            verify_associativity(strat),
        )
    return _VERIFY[(key, degree)]


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
