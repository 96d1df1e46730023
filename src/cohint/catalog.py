"""Built-in lattice data for the standard worked examples.

Keys take the form ``name`` or ``name:param``:

* ``torus2-cotangent``      rank-2 torus on a 2-dim space plus its dual
* ``gl2-cotangent``         GL2 on C^2 + (C^2)*
* ``gl2-cotangent:g``       g copies of the above
* ``sl2-irrep:d``           SL2 on its d-dimensional irreducible
* ``sl2-adjoint:g``         SL2 on g copies of its adjoint
* ``trivial:<group>``       the zero representation
* ``adjoint:<group>``       the adjoint representation

where ``<group>`` is one of torus2, sl2, gl2, sl3, gl3.
"""

from __future__ import annotations

import re

from .documents import InputDocument
from .errors import InputError
from .lattice import DEFAULT_GROUP_CAP, WeightMultiset

# S3 on the rank-2 weight lattice of SL3: the swap of the first two coordinate
# characters and the swap of the last two (which sends e2 to -e1-e2).
_SL3_GEN = (((0, 1), (1, 0)), ((1, -1), (0, -1)))


def _gl(n: int) -> dict:
    """GL_n on its diagonal torus: the Weyl generators are the adjacent
    transpositions of the coordinates, and the adjoint weights are zero with
    multiplicity n and the roots e_i - e_j."""
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    swaps = tuple((*e[:i], e[i + 1], e[i], *e[i + 2:]) for i in range(n - 1))
    roots = [(tuple(a - b for a, b in zip(e[i], e[j])), 1)
             for i in range(n) for j in range(n) if i != j]
    return {"rank": n, "generators": swaps, "g_weights": [((0,) * n, n)] + roots}


GROUPS: dict[str, dict] = {
    "torus2": {
        "rank": 2,
        "generators": (),
        "g_weights": [((0, 0), 2)],
    },
    "sl2": {
        "rank": 1,
        "generators": (((-1,),),),
        "g_weights": [((0,), 1), ((2,), 1), ((-2,), 1)],
    },
    "gl2": _gl(2),
    "sl3": {
        "rank": 2,
        "generators": _SL3_GEN,
        "g_weights": [((0, 0), 2)]
        + [(w, 1) for w in ((1, -1), (-1, 1), (2, 1), (-2, -1), (1, 2), (-1, -2))],
    },
    "gl3": _gl(3),
}


def catalog_keys() -> tuple[str, ...]:
    fixed = ["torus2-cotangent", "gl2-cotangent"]
    parametric = [
        "gl2-cotangent:<g>",
        "sl2-irrep:<d>",
        "sl2-adjoint:<g>",
    ]
    families = [f"trivial:{g}" for g in sorted(GROUPS)] + [
        f"adjoint:{g}" for g in sorted(GROUPS)
    ]
    return tuple(fixed + parametric + families)


def _cotangent_weights(rank: int, copies: int):
    out = []
    for i in range(rank):
        w = [0] * rank
        w[i] = 1
        out.append((tuple(w), copies))
        out.append((tuple(-c for c in w), copies))
    return out


def catalog_emit(key: str) -> InputDocument:
    """The exact lattice data for a catalog key."""
    base, colon, param = key.partition(":")
    if base == "torus2-cotangent" and not colon:
        return _document(key, "torus2", _cotangent_weights(2, 1))
    if base == "gl2-cotangent":
        copies = 1 if not colon else _positive_int(param, key, minimum=0)
        return _document(key, "gl2", _cotangent_weights(2, copies) if copies else [])
    if base == "sl2-irrep":
        d = _positive_int(param, key, minimum=1)
        weights = [((j,), 1) for j in range(d - 1, -d, -2)]
        return _document(key, "sl2", weights)
    if base == "sl2-adjoint":
        g = _positive_int(param, key, minimum=0)
        weights = [] if g == 0 else [((0,), g), ((2,), g), ((-2,), g)]
        return _document(key, "sl2", weights)
    if base == "trivial":
        if param not in GROUPS:
            raise InputError(f"unknown group '{param}' in catalog key '{key}'")
        return _document(key, param, [])
    if base == "adjoint":
        if param not in GROUPS:
            raise InputError(f"unknown group '{param}' in catalog key '{key}'")
        return _document(key, param, list(GROUPS[param]["g_weights"]))
    raise InputError(f"unknown catalog key '{key}'")


def _positive_int(text: str, key: str, minimum: int) -> int:
    """The parameter as a plain ASCII decimal: no sign, whitespace, underscore
    or leading zero, so that each document has one key."""
    if not re.fullmatch(r"0|[1-9][0-9]*", text):
        raise InputError(f"catalog key '{key}' needs an integer parameter")
    value = int(text)
    if value < minimum:
        raise InputError(f"catalog key '{key}' needs a parameter >= {minimum}")
    return value


def _document(name: str, group_key: str, v_pairs) -> InputDocument:
    entry = GROUPS[group_key]
    return InputDocument(
        name=name,
        rank=entry["rank"],
        weyl_generators=tuple(entry["generators"]),
        g_weights=WeightMultiset.from_pairs(entry["g_weights"]),
        v_weights=WeightMultiset.from_pairs(v_pairs),
        max_degree=None,
        group_cap=DEFAULT_GROUP_CAP,
    )
