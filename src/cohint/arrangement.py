"""Stratification of cocharacter space by the weight hyperplane arrangement.

A stratum is a flat of the arrangement cut out by the nonzero weights of the
representation and the adjoint representation, together with the weights
vanishing on it, a generic integer representative and the attached dimension
counts.  Flats are canonicalized as Hermite-normal-form bases of saturated
integer sublattices, so equality of flats is plain tuple equality.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass, field

from .documents import InputDocument
from .errors import InputError, InternalCheckError
from .lattice import (
    Cocharacter,
    NumericInvariants,
    SymmetryClass,
    Weight,
    ray,
    symmetry_class,
)
from .matrices import IntMatrix, dot, hnf, identity
from .weyl import Subgroup, WeylGroup, enumerate_group, point_stabilizer, set_stabilizer


@dataclass(frozen=True)
class Stratum:
    """A stratum compares and hashes as (index, rep): inside one
    stratification the index fixes the flat, the zero sets and the dims, and
    a with_representative copy changes only rep.  The flat is its basis, the
    HNF rows of its saturated integer lattice, so its dimension is len(flat)."""

    index: int
    flat: IntMatrix = field(compare=False)
    zero_v: tuple[Weight, ...] = field(compare=False)
    zero_g: tuple[Weight, ...] = field(compare=False)
    rep: Cocharacter
    dims: NumericInvariants = field(compare=False)


@dataclass(frozen=True)
class Stratification:
    document: InputDocument
    weyl: WeylGroup
    symmetry_class: SymmetryClass
    hyperplanes: tuple[Weight, ...]
    strata: tuple[Stratum, ...]
    # covers[i]: the strata directly below i, whose flats are one larger.
    covers: tuple[tuple[int, ...], ...]
    orbits: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]
    # points: the sorted weight supports, the points weyl.rows permutes;
    # keys[i]: the indices of stratum i's zero supports among them.
    points: tuple[Weight, ...]
    keys: tuple[frozenset[int], ...]
    u_bases: tuple[IntMatrix, ...]
    top_index: int
    # Objects derived from this stratification, each computed once by once
    # below; it lives and dies with the stratification.
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def leq(self, i: int, j: int) -> bool:
        """i <= j iff j's flat lies in i's, i.e. i's zero sets sit inside j's."""
        return self.keys[i] <= self.keys[j]

    @property
    def top(self) -> Stratum:
        return self.strata[self.top_index]

    def orbit_representatives(self) -> tuple[Stratum, ...]:
        return tuple(self.strata[orbit[0]] for orbit in self.orbits)

    def all_supports(self) -> tuple[Weight, ...]:
        return tuple(p for p in self.points if any(p))


_MISSING = object()


def once(strat: Stratification, builder, *args):
    """builder(strat, *args), computed once per stratification: kept in
    strat.memo under the builder and the argument values, a Stratum by its
    index and representative.  Callers look the builder up by its
    module-level name when they call, so a rebound one is used."""
    key = (builder, *args)
    value = strat.memo.get(key, _MISSING)
    if value is _MISSING:
        value = strat.memo[key] = builder(strat, *args)
    return value


def representative_cocharacter(
    basis: IntMatrix, hyperplanes: Sequence[Weight], incident: frozenset[int], rank: int
) -> Cocharacter:
    """Deterministic generic integer point of the flat with this basis, in
    the lattice of the given rank: coefficients (1, M, M^2, ...) over the
    basis rows for growing M, until no hyperplane outside the incidence set
    vanishes on the point.  A support vanishes exactly where its hyperplane
    (its ray) does, so this is the first M at which no support outside the
    zero set vanishes.  The zero flat, with no basis rows, gets the zero
    cocharacter.

    A hyperplane not containing the flat pairs with the point to a nonzero
    polynomial in M of degree at most k - 1, so at most
    1 + (k - 1) * |outside| values of M are tried."""
    k = len(basis)
    outside = [h for i, h in enumerate(hyperplanes) if i not in incident]
    for m in range(1, 2 + (k - 1) * len(outside)):
        lam = tuple(sum(m**i * basis[i][j] for i in range(k)) for j in range(rank))
        if all(dot(lam, h) != 0 for h in outside):
            return lam
    raise InternalCheckError(
        f"no generic point on the flat with basis {basis}: "
        "a hyperplane outside the incidence set vanishes on it"
    )


def align_representative(child: Stratum, parent_rep: Cocharacter, supports) -> Cocharacter:
    """Representative of the child's class whose pairings agree in sign with
    parent_rep wherever parent_rep does not vanish (child + b * parent search).
    Any b above max |<child.rep, u>| works, so b runs over powers of two up to
    twice that plus two."""
    base = child.rep
    if not any(parent_rep):
        return base
    bound = 2 * max((abs(dot(base, u)) for u in supports), default=0) + 2
    signed = [(u, p) for u in supports if (p := dot(parent_rep, u))]
    b = 1
    while b <= bound:
        nu = tuple(x + b * y for x, y in zip(base, parent_rep))
        if all(dot(nu, u) * p > 0 for u, p in signed):
            return nu
        b *= 2
    raise InternalCheckError(
        f"no aligned representative of {base} along {parent_rep} up to b = {bound}"
    )


def with_representative(strat: Stratification, stratum: Stratum, rep: Cocharacter) -> Stratum:
    """Copy of the stratum carrying another valid generic representative.  Its
    dims stay: they count the weights in the zero sets, which the check below
    matches, and r = (dim V - dim g - d) / 2 for weakly symmetric V."""
    zero = frozenset(i for i, u in enumerate(strat.points) if dot(rep, u) == 0)
    if zero != strat.keys[stratum.index]:
        raise InputError(f"{rep} is not a generic representative of stratum {stratum.index}")
    return dataclasses.replace(stratum, rep=rep)


def restrict_arrangement(
    basis: IntMatrix, hyperplanes: Sequence[Weight], incident: frozenset[int]
) -> dict[Weight, list[int]]:
    """The restriction of the arrangement to the flat with this basis
    (Orlik-Terao, Arrangements of Hyperplanes, 1.3): each hyperplane h not in
    incident restricts to the form r_h = (<b, h> for b in basis) on the flat,
    and the hyperplanes are grouped by the key of ray(r_h), the primitive ray
    with positive first nonzero entry.  A form on the flat vanishing on
    ker r_h is a multiple of r_h, so each group is the set of hyperplanes that
    cut the flat in one and the same flat one dimension down."""
    cuts: dict[Weight, list[int]] = {}
    for i, h in enumerate(hyperplanes):
        if i not in incident:
            cuts.setdefault(ray([dot(b, h) for b in basis])[0], []).append(i)
    return cuts


def enumerate_strata(document: InputDocument) -> Stratification:
    """Close the weight hyperplanes under intersection and attach all
    per-stratum data: zero-sets, representatives, order and orbits.  The
    stabilizers of a stratum are built on demand (set_stabilizer_of,
    point_stabilizer_of).

    The closure cuts each flat F by the hyperplanes not containing it, one
    cut per group of restrict_arrangement.  Each cut is one dimension down,
    so the cuts of F are exactly the flats covering F in the order, and the
    hyperplanes containing a cut are those containing F and its group."""
    n = document.rank
    g_weights, v_weights = document.g_weights, document.v_weights
    all_v = v_weights.supports()
    all_g = g_weights.supports()
    # The report's one enumeration, within the document's cap, is its
    # finiteness check, reported first.  It also gives each element's
    # permutation of the weight supports: a stratum is determined by the
    # indices of its zero supports, and its image under w has the image
    # indices as zero supports.
    points = tuple(sorted(set(all_v) | set(all_g)))
    weyl = enumerate_group(document.weyl_generators, n, document.group_cap, points)
    sclass = symmetry_class(v_weights)
    if sclass is SymmetryClass.NOT_WEAKLY_SYMMETRIC:
        raise InputError("stratification requires a weakly symmetric weight multiset")

    v_supports = v_weights.nonzero_supports()
    g_supports = g_weights.nonzero_supports()
    hyperplanes = tuple(sorted({ray(u)[0] for u in v_supports + g_supports}))
    hyperplane_of = {u: hyperplanes.index(ray(u)[0]) for u in set(v_supports + g_supports)}

    # A flat is keyed by its incidence set, the indices of the hyperplanes
    # containing it; each distinct flat's basis is computed once.
    flats: dict[frozenset[int], IntMatrix] = {frozenset(): identity(n)}
    cut_from: dict[frozenset[int], list[frozenset[int]]] = {frozenset(): []}
    queue = [frozenset()]
    while queue:
        incident = queue.pop()
        basis = flats[incident]
        for r, group in restrict_arrangement(basis, hyperplanes, incident).items():
            child = incident.union(group)
            if child not in flats:
                # basis is a Z-basis of the flat's lattice points, so the
                # child's are the c . basis with c . r = 0: the x with (0, x)
                # in the lattice spanned by the rows (r_i, basis_i).  r is
                # nonzero, so that lattice's HNF has its first pivot in
                # column 0 and every later row has 0 there; the later rows,
                # less column 0, are an HNF basis of the child's points.
                rows = hnf([(x, *b) for x, b in zip(r, basis)])
                flats[child] = tuple(row[1:] for row in rows[1:])
                cut_from[child] = []
                queue.append(child)
            cut_from[child].append(incident)

    # Decreasing flat dimension: everything below a stratum has a smaller index.
    ordered = sorted(flats, key=lambda key: (-len(flats[key]), flats[key]))
    index_of_flat = {key: idx for idx, key in enumerate(ordered)}
    covers = tuple(
        tuple(sorted(index_of_flat[parent] for parent in cut_from[key])) for key in ordered
    )

    point_index = {p: i for i, p in enumerate(points)}
    v_mult = [v_weights.multiplicity(p) for p in points]
    g_mult = [g_weights.multiplicity(p) for p in points]
    strata = []
    u_bases = []
    keys = []
    for idx, incident in enumerate(ordered):
        flat = flats[incident]
        zero_v = tuple(w for w in all_v if not any(w) or hyperplane_of[w] in incident)
        zero_g = tuple(w for w in all_g if not any(w) or hyperplane_of[w] in incident)
        key = frozenset(point_index[w] for w in zero_v + zero_g)
        rep_cochar = representative_cocharacter(flat, hyperplanes, incident, n)
        # The representative's pairings with the points: its zero set is the
        # key, and the dims count the weights on the zero and positive sides.
        pairs = [dot(rep_cochar, p) for p in points]
        if key != frozenset(i for i, x in enumerate(pairs) if x == 0):
            raise InternalCheckError(f"stratum {idx}: zero sets disagree with the slice counts")
        dim_v = sum(v_mult[i] for i in key)
        dim_g = sum(g_mult[i] for i in key)
        r = sum(v_mult[i] - g_mult[i] for i, x in enumerate(pairs) if x > 0)
        dims = NumericInvariants(dim_v, dim_g, dim_v - dim_g, r)
        zero_supports = tuple(w for w in zero_v + zero_g if any(w))
        # U is read only through its rational span, so its HNF serves.
        u_basis = hnf(zero_supports)
        if len(u_basis) + len(flat) != n:
            raise InternalCheckError(f"stratum {idx}: flat and zero-set span do not fill the rank")
        strata.append(Stratum(idx, flat, zero_v, zero_g, rep_cochar, dims))
        u_bases.append(u_basis)
        keys.append(key)

    count = len(strata)
    # In a finite order, a unique maximal element is the maximum.
    maximal = sorted(set(range(count)).difference(*covers))
    if len(maximal) != 1:
        raise InternalCheckError(f"the stratum order has maximal strata {maximal}, not one")
    top_index = maximal[0]

    index_of = {key: i for i, key in enumerate(keys)}

    # Orbits under the generators are orbits under the group, and generators
    # that permute the strata make the whole group permute them.
    orbit_of = [-1] * count
    orbits = []
    for i in range(count):
        if orbit_of[i] >= 0:
            continue
        orbit_of[i] = len(orbits)
        members = [i]
        for j in members:
            for g in weyl.generators:
                k = index_of.get(frozenset(weyl.rows[g][p] for p in keys[j]))
                if k is None:
                    raise InternalCheckError("the group action does not permute the strata")
                if orbit_of[k] < 0:
                    orbit_of[k] = len(orbits)
                    members.append(k)
        orbits.append(tuple(sorted(members)))

    return Stratification(
        document=document,
        weyl=weyl,
        symmetry_class=sclass,
        hyperplanes=hyperplanes,
        strata=tuple(strata),
        covers=covers,
        orbits=tuple(orbits),
        orbit_of=tuple(orbit_of),
        points=points,
        keys=tuple(keys),
        u_bases=tuple(u_bases),
        top_index=top_index,
    )


def set_stabilizer_of(strat: Stratification, i: int) -> Subgroup:
    """The elements of W mapping stratum i onto itself, one scan of the rows,
    as a builder for once.  V's and g's supports are each W-stable, so w
    maps the union of the two zero sets onto itself exactly when it maps
    each onto itself."""
    return set_stabilizer(strat.weyl, (strat.keys[i],))


def point_stabilizer_of(strat: Stratification, i: int) -> Subgroup:
    """W_lam, the elements of W fixing stratum i's representative lam,
    searched among the members of the set stabilizer, which contains it; as
    a builder for once.  w fixes lam exactly when M_w^T lam = lam (see
    point_stabilizer), and then <lam, M_w u> = <M_w^T lam, u> = <lam, u> for
    every weight u.  The representative lam is generic, so the supports
    vanishing on it are the stratum's zero sets; w maps each of them into
    itself, and onto itself since it permutes the weights of V and of g."""
    return point_stabilizer(once(strat, set_stabilizer_of, i), strat.strata[i].rep)


def stabilizer_orders(strat: Stratification, i: int) -> tuple[int, int]:
    """The orders of stratum i's set and point stabilizers, one point
    stabilizer searched per orbit.  The set stabilizer is i's stabilizer in
    W's action on the strata, of order |W| / |orbit|.  For a validated
    document W is generated by reflections in roots, and by Steinberg
    (Trans. AMS 112, 1964) every generic point of a flat has the stabilizer
    generated by the reflections in the roots vanishing on the flat.  So
    stratum w.s has the point stabilizer w W_s w^-1."""
    orbit = strat.orbits[strat.orbit_of[i]]
    return strat.weyl.order // len(orbit), once(strat, point_stabilizer_of, orbit[0]).order
