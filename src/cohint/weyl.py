"""Finite integer matrix group machinery: closure enumeration, stabilizers,
cosets, the averaged invariant form and exact Molien series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
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
)


class WeylGroup:
    """Fully enumerated finite matrix group.  An element is its integer
    matrix M, the action on the character lattice; the cocharacter action
    (M^T)^-1 is asked for only through M^T.  A product is one matrix product
    and an index lookup.

    Elements are ordered by their entries (flattened, lexicographic),
    which fixes every downstream basis and coset choice.  points are the
    points passed to enumerate_group followed by the rest of the orbit of
    the unit vectors.  rows[w][p] is the index among the points passed to
    enumerate_group of element w's image of points[p]; with no points every
    row is empty.  columns[w][j] is the index in points of M_w e_j, the
    j-th column of M_w.  enumerate_group builds it from found, every
    element's row on all the points mapped to its matrix.
    """

    def __init__(self, found: dict[tuple[int, ...], IntMatrix], points: tuple[Weight, ...],
                 given: int, units: Sequence[int], rank: int, generators: Sequence[IntMatrix]):
        self.rank = rank
        self.points = points
        pairs = sorted(found.items(), key=itemgetter(1))
        self.elements = tuple(m for _, m in pairs)
        self.rows = tuple(row[:given] for row, _ in pairs)
        self.columns = tuple(tuple(map(row.__getitem__, units)) for row, _ in pairs)
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
    """Breadth-first closure of the generators on permutation rows; errors
    out past the cap.  No product of matrices and no inverse of an element
    is computed.

    The generators must be involutions (g * g = I), as the reflections that
    InputDocument.validate checks are: then each is its own integer inverse
    and the closure is a group once it is finite.  A generator that is not
    is an InputError naming it, at one product per generator.

    The points must form a union of orbits, which is checked on the
    generators: generators that permute a finite set make the group permute
    it.  The orbit of the unit vectors e_1 .. e_n is added to them, so the
    points are faithful: M e_j is the j-th column of M.  Each element m * g
    gets its permutation row from m's, (m * g) . p = m . (g . p), so
    row_mg[p] = row_m[perm_g[p]]; a row is new exactly when its matrix is,
    and the matrix of a new row is read off its images of the unit vectors.

    A group of at most cap elements has at most rank orbits of at most cap
    points on the unit vectors, so an orbit past len(points) + rank * cap
    points is past the cap too."""
    gens = [tuple(tuple(int(x) for x in row) for row in g) for g in generators]
    one = identity(rank)
    for k, g in enumerate(gens):
        if mat_mul(g, g) != one:
            raise InputError(f"weyl_generators[{k}] is not an involution: g * g != I")
    index = {p: i for i, p in enumerate(points)}
    try:
        perms = [[index[mat_vec(g, p)] for p in points] for g in gens]
    except KeyError as exc:
        raise InputError(
            f"the group does not permute the weights: {exc.args[0]} is not among them"
        ) from exc
    cap_error = InputError(
        f"group not finite within cap (cap={cap}); check the generators or raise --group-cap"
    )
    faithful = list(points)
    for e in one:
        if e not in index:
            index[e] = len(faithful)
            faithful.append(e)
    units = [index[e] for e in one]
    bound = len(points) + rank * cap
    i = len(points)
    while i < len(faithful):
        p = faithful[i]
        i += 1
        for g, perm in zip(gens, perms):
            q = mat_vec(g, p)
            if q not in index:
                if len(faithful) >= bound:
                    raise cap_error
                index[q] = len(faithful)
                faithful.append(q)
            perm.append(index[q])
    # itemgetter of one index returns the item, not a 1-tuple; one faithful
    # point is fixed by every generator, so then the group is trivial.
    images = [itemgetter(*perm) for perm in perms] if len(faithful) > 1 else []
    start = tuple(range(len(faithful)))
    found: dict[tuple[int, ...], IntMatrix] = {start: one}
    frontier = [start]
    while frontier:
        new = []
        for row in frontier:
            for image_of in images:
                image = image_of(row)
                if image not in found:
                    found[image] = tuple(zip(*(faithful[image[u]] for u in units)))
                    new.append(image)
                    if len(found) > cap:
                        raise cap_error
        frontier = new
    return WeylGroup(found, tuple(faithful), len(points), units, rank, gens)


def point_stabilizer(candidates: Subgroup, lam: Cocharacter) -> Subgroup:
    """The members w of candidates fixing the cocharacter lam.  The
    contragredient (M_w^T)^-1 fixes lam exactly when M_w^T lam = lam, and
    (M_w^T lam)_j = <lam, M_w e_j> is lam's pairing with the point indexed by
    columns[w][j]: one pairing per point, then one tuple comparison per
    member.  Searching a subgroup known to contain the whole stabilizer
    gives the stabilizer."""
    lam = tuple(lam)
    group = candidates.parent
    pairing = tuple(dot(lam, p) for p in group.points)
    return Subgroup(group, tuple(
        i for i in candidates.members
        if tuple(map(pairing.__getitem__, group.columns[i])) == lam
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
    q^cutoff, for pairs (M_i, coefficients of the polynomial P_i): a sum over
    characteristic polynomials (Sturmfels, Algorithms in Invariant Theory,
    2.2), so the numerators of the elements that share det(I - q M) are
    added first, cleared to ints by one lcm L of their denominators.  Each
    determinant's series is inverted without a division: its constant term
    is 1, so inv_0 = 1 and inv_k = -sum_{j >= 1} d_j inv_{k-j}, in ints for
    an integer characteristic polynomial (see det_one_minus_q).  Coefficient
    p is one Fraction(total_p, N * L)."""
    n = len(elements)
    if n == 0:
        raise InputError("molien_coefficients needs at least one element")
    scale = lcm(*(s.denominator for _, numerator in elements for s in numerator))
    numerators: dict[tuple, list] = {}
    for matrix, numerator in elements:
        acc = numerators.setdefault(det_one_minus_q(matrix), [0] * (cutoff + 1))
        for a, s in enumerate(numerator[:cutoff + 1]):
            if s:
                acc[a] += s.numerator * (scale // s.denominator)
    total = [0] * (cutoff + 1)
    for d, numerator in numerators.items():
        inv = [1]
        for k in range(1, cutoff + 1):
            inv.append(-sum(d[j] * inv[k - j] for j in range(1, min(k, len(d) - 1) + 1)))
        for a, s in enumerate(numerator):
            if s:
                for p in range(a, cutoff + 1):
                    total[p] += s * inv[p - a]
    return tuple(Fraction(t, n * scale) for t in total)
