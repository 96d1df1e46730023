"""Finite integer matrix group machinery: closure enumeration, stabilizers,
cosets, the averaged invariant form and exact Molien series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .lattice import Cocharacter, Weight, DEFAULT_GROUP_CAP, ray
from .matrices import (
    IntMatrix,
    QMatrix,
    det_one_minus_q,
    dot,
    identity,
    mat_mul,
    mat_vec,
    series_inverse,
)


class WeylGroup:
    """Fully enumerated finite matrix group.  An element is its integer
    matrix M, the action on the character lattice; the cocharacter action
    (M^T)^-1 is asked for only through M^T.  A product is one matrix product
    and an index lookup.

    Elements are ordered by their entries (flattened, lexicographic),
    which fixes every downstream basis and coset choice.  rows[w][p] is the
    index among the points passed to enumerate_group of element w's image
    of points[p]; with no points every row is empty.
    """

    def __init__(
        self, rows: dict[IntMatrix, tuple[int, ...]], rank: int, generators: Sequence[IntMatrix]
    ):
        self.rank = rank
        self.elements = tuple(sorted(rows))
        self.rows = tuple(rows[m] for m in self.elements)
        self._index = index = {m: i for i, m in enumerate(self.elements)}
        self.identity_index = index[identity(rank)]
        self.generators = tuple(index[g] for g in generators)

    @property
    def order(self) -> int:
        return len(self.elements)

    def product(self, i: int, j: int) -> int:
        return self._index[mat_mul(self.elements[i], self.elements[j])]

    def subgroup(self, members) -> "Subgroup":
        return Subgroup(self, tuple(sorted(set(members))))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))


@dataclass(frozen=True)
class Subgroup:
    """Index mask over one enumerated parent group."""

    parent: WeylGroup
    members: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)

    def elements(self) -> tuple[IntMatrix, ...]:
        return tuple(self.parent.elements[i] for i in self.members)


def reflection_ray(m: IntMatrix) -> Weight | None:
    """The ray a of the columns of m - I when m is a reflection: every
    nonzero column of m - I lies on the one ray a, and m a = -a.  None
    otherwise, the identity included.  The one test of being a reflection:
    InputDocument.validate asks it of each generator, and the invariant
    theory of integrality counts the reflections of a subgroup with it.

    Columns on one ray make m = I + a v^T for a nonzero rational v, so
    m a = (1 + v.a) a and m^2 = I + (2 + v.a) a v^T: m a = -a exactly
    when v.a = -2, which is exactly when m^2 = I."""
    n = len(m)
    columns = (tuple(m[i][j] - (i == j) for i in range(n)) for j in range(n))
    rays = {ray(c)[0] for c in columns if any(c)}
    if len(rays) != 1:
        return None
    a = rays.pop()
    return a if mat_vec(m, a) == tuple(-x for x in a) else None


def enumerate_group(
    generators: Sequence[IntMatrix],
    rank: int,
    cap: int = DEFAULT_GROUP_CAP,
    points: Sequence[Weight] = (),
) -> WeylGroup:
    """Breadth-first closure of the generators; errors out past the cap.
    Each element costs one product per generator, read off the generator's
    nonzero entries, and no inverse of an element is computed.

    The generators must be involutions (g * g = I), as the reflections that
    InputDocument.validate checks are: then each is its own integer inverse
    and the closure is a group once it is finite.  A generator that is not
    is an InputError naming it, at one product per generator.

    The points must form a union of orbits, which is checked on the
    generators: generators that permute a finite set make the group permute
    it.  Each element m * g gets its permutation row in the step that builds
    its matrix, (m * g) . p = m . (g . p), so row_mg[p] = row_m[perm_g[p]]."""
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    one = identity(rank)
    for k, g in enumerate(gens):
        if mat_mul(g, g) != one:
            raise InputError(f"weyl_generators[{k}] is not an involution: g * g != I")
    index = {p: i for i, p in enumerate(points)}
    try:
        perms = [tuple(index[mat_vec(g, p)] for p in points) for g in gens]
    except KeyError as exc:
        raise InputError(
            f"the group does not permute the weights: {exc.args[0]} is not among them"
        ) from exc
    # (m * g)[r][c] sums m[r][i] * g[i][c] over the nonzero entries of column
    # c only: one entry per column of a signed permutation.
    columns = [[[(i, x) for i, x in enumerate(col) if x] for col in zip(*g)] for g in gens]
    rows: dict[IntMatrix, tuple[int, ...]] = {one: tuple(range(len(points)))}
    frontier = [one]
    while frontier:
        new = []
        for m in frontier:
            row = rows[m]
            for cols, perm in zip(columns, perms):
                prod = tuple(tuple(sum(r[i] * x for i, x in col) for col in cols) for r in m)
                if prod not in rows:
                    rows[prod] = tuple(map(row.__getitem__, perm))
                    new.append(prod)
                    if len(rows) > cap:
                        raise InputError(
                            f"group not finite within cap (cap={cap}); "
                            "check the generators or raise --group-cap"
                        )
        frontier = new
    return WeylGroup(rows, rank, gens)


def point_stabilizer(candidates: Subgroup, lam: Cocharacter) -> Subgroup:
    """The members w of candidates fixing the cocharacter lam.  The
    contragredient (M_w^T)^-1 fixes lam exactly when M_w^T does, so lam is
    compared with M_w^T lam column by column of M_w, and most members are
    rejected after one column.  Searching a subgroup known to contain the
    whole stabilizer gives the stabilizer."""
    lam = tuple(lam)
    elements = candidates.parent.elements
    return Subgroup(candidates.parent, tuple(
        i for i in candidates.members
        if all(dot(col, lam) == x for col, x in zip(zip(*elements[i]), lam))
    ))


def set_stabilizer(group: WeylGroup, index_sets: Sequence[Sequence[int]]) -> Subgroup:
    """Elements whose permutation row maps each of the index sets onto
    itself; the indices are those of the points the group was enumerated
    with."""
    sets = [frozenset(s) for s in index_sets]
    return group.subgroup(
        w for w, images in enumerate(group.rows)
        if all(images[p] in s for s in sets for p in s)
    )


def coset_representatives(h: Subgroup, k: Subgroup) -> tuple[IntMatrix, ...]:
    """One representative per left coset wH inside K: the identity for its own
    coset, otherwise the least element index."""
    if h.parent is not k.parent:
        raise InputError("subgroups must share the same parent group")
    hset = set(h.members)
    if not hset <= set(k.members):
        raise InputError("H is not contained in K")
    group = h.parent
    order = sorted(set(k.members), key=lambda i: (i != group.identity_index, i))
    assigned: set[int] = set()
    reps = []
    for idx in order:
        if idx in assigned:
            continue
        reps.append(group.elements[idx])
        assigned.update(group.product(idx, j) for j in h.members)
    return tuple(reps)


def averaged_form(group: WeylGroup) -> QMatrix:
    """The positive definite invariant form (1/|W|) sum_w w^T w on characters."""
    n = group.rank
    acc = [[Fraction(0)] * n for _ in range(n)]
    for m in group.elements:
        for i in range(n):
            for j in range(n):
                acc[i][j] += sum(m[k][i] * m[k][j] for k in range(n))
    scale = Fraction(1, group.order)
    return tuple(tuple(x * scale for x in row) for row in acc)


def molien_coefficients(
    elements: Sequence[tuple[Sequence[Sequence], Sequence]], cutoff: int
) -> tuple[Fraction, ...]:
    """Series coefficients of (1/N) sum_i P_i(q) / det(I - q M_i) through
    q^cutoff, for pairs (M_i, coefficients of the polynomial P_i)."""
    n = len(elements)
    if n == 0:
        raise InputError("molien_coefficients needs at least one element")
    total = [Fraction(0)] * (cutoff + 1)
    for matrix, numerator in elements:
        inv = series_inverse(det_one_minus_q(matrix), cutoff)
        for a, s in enumerate(numerator):
            if s:
                for p in range(a, cutoff + 1):
                    total[p] += s * inv[p - a]
    scale = Fraction(1, n)
    return tuple(x * scale for x in total)
