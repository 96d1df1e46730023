"""Character/cocharacter lattice data: weight multisets, rays, symmetry
classes and the per-cocharacter dimension counts.

Weights and cocharacters both live in Z^n written in one fixed basis, so the
pairing between them is the plain dot product (matrices.dot) and every
computation below is integer arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InputError
from .matrices import IntMatrix, mat_vec, quotient

Weight = tuple[int, ...]
Cocharacter = tuple[int, ...]

DEFAULT_GROUP_CAP = 10080


class SymmetryClass(enum.Enum):
    SYMMETRIC = "symmetric"
    WEAKLY_SYMMETRIC = "weakly_symmetric"
    NOT_WEAKLY_SYMMETRIC = "not_weakly_symmetric"


@dataclass(frozen=True)
class WeightMultiset:
    """Weights with multiplicities, stored deduplicated in lexicographic order."""

    entries: tuple[tuple[Weight, int], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "WeightMultiset":
        acc: dict[Weight, int] = {}
        for coords, mult in pairs:
            w = tuple(int(c) for c in coords)
            mult = int(mult)
            if mult < 1:
                raise InputError(f"multiplicity must be >= 1, got {mult} for {w}")
            acc[w] = acc.get(w, 0) + mult
        return cls(tuple(sorted(acc.items())))

    def __iter__(self):
        return iter(self.entries)

    def supports(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self.entries)

    def nonzero_supports(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self.entries if any(w))

    def multiplicity(self, w: Weight) -> int:
        for v, m in self.entries:
            if v == w:
                return m
        return 0

    def negated(self) -> "WeightMultiset":
        return WeightMultiset.from_pairs(
            (tuple(-c for c in w), m) for w, m in self.entries
        )

    def transformed(self, matrix: IntMatrix) -> "WeightMultiset":
        return WeightMultiset.from_pairs(
            (mat_vec(matrix, w), m) for w, m in self.entries
        )


def ray(form: Sequence) -> tuple[Weight, int | Fraction]:
    """(key, c) with form == c * key, where key is the primitive integer vector
    with positive first nonzero entry, so forms equal up to a nonzero multiple
    share one key.  The form is cleared once by the lcm d of its entries'
    denominators; with g the signed gcd of the cleared entries, c = g / d, an
    int for an integer form and a Fraction otherwise (matrices.quotient)."""
    d = lcm(*(x.denominator for x in form))
    cleared = [x.numerator * (d // x.denominator) for x in form]
    g = gcd(*cleared)
    if not g:
        raise InputError("cannot divide by the zero form")
    if next(x for x in cleared if x) < 0:
        g = -g
    return tuple([x // g for x in cleared]), quotient(g, d)


def symmetry_class(v_weights: WeightMultiset) -> SymmetryClass:
    if v_weights.negated() == v_weights:
        return SymmetryClass.SYMMETRIC
    # Multiplicity on the positive minus the negative side of each ray.
    balance: dict[Weight, int] = {}
    for w, m in v_weights:
        if any(w):
            key, c = ray(w)
            balance[key] = balance.get(key, 0) + (m if c > 0 else -m)
    if not any(balance.values()):
        return SymmetryClass.WEAKLY_SYMMETRIC
    return SymmetryClass.NOT_WEAKLY_SYMMETRIC


@dataclass(frozen=True)
class NumericInvariants:
    """Fixed-space dimensions and the shifts at a cocharacter lam:
    d_lambda = dim V^lam - dim g^lam, and r_lambda counts the weights of V
    pairing positively with lam less those of g, with multiplicity."""

    dim_v_fixed: int
    dim_g_fixed: int
    d_lambda: int
    r_lambda: int

