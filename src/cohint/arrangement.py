"""Stratification of cocharacter space by the weight hyperplane arrangement.

A stratum is a flat of the arrangement cut out by the nonzero weights of the
representation and the adjoint representation, together with the weights
vanishing on it, a generic integer representative and the attached dimension
counts.  Flats are canonicalized as Hermite-normal-form bases of saturated
integer sublattices, so equality of strata is plain tuple equality.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from .errors import InputError, InternalCheckError
from .lattice import (
    Cocharacter,
    GroupData,
    NumericInvariants,
    RepresentationData,
    SymmetryClass,
    Weight,
    numeric_invariants,
    primitive_ray,
    symmetry_class,
    DEFAULT_GROUP_CAP,
)
from .matrices import IntMatrix, dot, int_kernel, saturate_span
from .weyl import (
    Subgroup,
    WeylGroup,
    enumerate_group,
    permutation_action,
    point_stabilizer,
    set_stabilizer,
)


@dataclass(frozen=True)
class Flat:
    """Saturated integer basis (HNF rows) of a rational subspace of
    cocharacter space; two flats are equal iff the bases are identical."""

    basis: IntMatrix

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Stratum:
    index: int
    flat: Flat
    zero_v: tuple[Weight, ...]
    zero_g: tuple[Weight, ...]
    rep: Cocharacter
    dims: NumericInvariants


@dataclass(frozen=True)
class Stratification:
    group: GroupData
    rep: RepresentationData
    weyl: WeylGroup
    hyperplanes: tuple[Weight, ...]
    strata: tuple[Stratum, ...]
    # a <= b iff b's flat lies in a's, i.e. a's zero-sets sit inside b's.
    # covers[i]: the strata directly below i, whose flats are one dimension
    # larger; below[i]: every stratum <= i, i included.
    covers: tuple[tuple[int, ...], ...]
    below: tuple[frozenset[int], ...]
    orbits: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]
    point_stabilizers: tuple[Subgroup, ...]
    set_stabilizers: tuple[Subgroup, ...]
    u_bases: tuple[IntMatrix, ...]
    top_index: int
    # Objects derived from this stratification, computed once each by
    # integrality.once; it lives and dies with the stratification.
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def leq(self, i: int, j: int) -> bool:
        return i in self.below[j]

    @property
    def top(self) -> Stratum:
        return self.strata[self.top_index]

    def orbit_representatives(self) -> tuple[Stratum, ...]:
        return tuple(self.strata[orbit[0]] for orbit in self.orbits)

    def all_supports(self) -> tuple[Weight, ...]:
        return tuple(
            sorted(
                set(self.rep.v_weights.nonzero_supports())
                | set(self.group.g_weights.nonzero_supports())
            )
        )


def representative_cocharacter(
    flat: Flat, nonzero_supports, zero_supports, rank: int
) -> Cocharacter:
    """Deterministic generic integer point of the flat, in the lattice of the
    given rank: coefficients (1, M, M^2, ...) over the basis rows for growing
    M.  The zero flat gets the zero cocharacter.

    A support not vanishing on the flat pairs with the point to a nonzero
    polynomial in M of degree at most k - 1, so at most 1 + (k - 1) * |outside|
    values of M are tried."""
    k = len(flat.basis)
    zero = set(zero_supports)
    outside = [u for u in nonzero_supports if u not in zero]
    for m in range(1, 2 + (k - 1) * len(outside)):
        lam = tuple(
            sum(m**i * flat.basis[i][j] for i in range(k)) for j in range(rank)
        )
        if all(dot(lam, u) != 0 for u in outside):
            return lam
    raise InternalCheckError(
        f"no generic point on the flat with basis {flat.basis}: "
        "a support outside the zero set vanishes on it"
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
    b = 1
    while b <= bound:
        nu = tuple(x + b * y for x, y in zip(base, parent_rep))
        ok = True
        for u in supports:
            pp = dot(parent_rep, u)
            if pp != 0 and (dot(nu, u) > 0) != (pp > 0):
                ok = False
                break
            if pp != 0 and dot(nu, u) == 0:
                ok = False
                break
        if ok:
            return nu
        b *= 2
    raise InternalCheckError(
        f"no aligned representative of {base} along {parent_rep} up to b = {bound}"
    )


def with_representative(strat: Stratification, stratum: Stratum, rep: Cocharacter) -> Stratum:
    """Copy of the stratum carrying another valid generic representative."""
    for u in strat.all_supports():
        vanishes = dot(rep, u) == 0
        in_zero = u in set(stratum.zero_v) | set(stratum.zero_g)
        if vanishes != in_zero:
            raise InputError(f"{rep} is not a generic representative of stratum {stratum.index}")
    dims = numeric_invariants(strat.group, strat.rep, rep)
    return dataclasses.replace(stratum, rep=rep, dims=dims)


def generic_points(supports, n: int, count: int):
    """Deterministic rational points (1, t, t^2, ...) for t = 2, 3, ...
    avoiding all the given weight hyperplanes; used for evaluation oracles.
    Each nonzero support vanishes at no more than n - 1 values of t, which
    bounds the search."""
    supports = [u for u in supports if any(u)]
    bound = 2 + count + (n - 1) * len(supports)
    points = []
    t = 2
    while len(points) < count:
        if t == bound:
            raise InternalCheckError(
                f"found {len(points)} of {count} generic points avoiding the supports {supports}"
            )
        pt = tuple(t**i for i in range(n))
        if all(dot(pt, u) != 0 for u in supports):
            points.append(pt)
        t += 1
    return tuple(points)


def enumerate_strata(
    group: GroupData,
    rep: RepresentationData,
    cap: int = DEFAULT_GROUP_CAP,
) -> Stratification:
    """Close the weight hyperplanes under intersection and attach all
    per-stratum data: zero-sets, representatives, order, orbits, stabilizers.

    The closure cuts each flat F by the hyperplanes not containing it.  Each
    cut is one dimension down, so the cuts of F are exactly the flats
    covering F in the order.  Once a cut G is found, the hyperplanes through
    G are skipped: each of them cuts F in G again."""
    n = group.rank
    # The report's one enumeration is its finiteness check, reported first.
    weyl = enumerate_group(group.weyl_generators, n, cap)
    if symmetry_class(rep) is SymmetryClass.NOT_WEAKLY_SYMMETRIC:
        raise InputError("stratification requires a weakly symmetric weight multiset")

    v_supports = rep.v_weights.nonzero_supports()
    g_supports = group.g_weights.nonzero_supports()
    hyperplanes = tuple(sorted({_canonical_normal(u) for u in v_supports + g_supports}))

    full_space = int_kernel((), n)
    flats: dict[IntMatrix, tuple[int, ...]] = {}

    def containing(basis: IntMatrix) -> tuple[int, ...]:
        return tuple(
            i for i, h in enumerate(hyperplanes)
            if all(dot(b, h) == 0 for b in basis)
        )

    cut_from: dict[IntMatrix, list[IntMatrix]] = {full_space: []}
    queue = [full_space]
    flats[full_space] = containing(full_space)
    while queue:
        basis = queue.pop()
        normals = [hyperplanes[i] for i in flats[basis]]
        skip = set(flats[basis])
        for i, h in enumerate(hyperplanes):
            if i in skip:
                continue
            child = int_kernel(normals + [h], n)
            if child not in flats:
                flats[child] = containing(child)
                cut_from[child] = []
                queue.append(child)
            cut_from[child].append(basis)
            skip.update(flats[child])

    # Decreasing flat dimension: everything below a stratum has a smaller index.
    ordered = sorted(flats, key=lambda b: (-len(b), b))
    index_of_flat = {basis: idx for idx, basis in enumerate(ordered)}
    covers = tuple(
        tuple(sorted(index_of_flat[parent] for parent in cut_from[basis])) for basis in ordered
    )

    strata = []
    u_bases = []
    all_v = rep.v_weights.supports()
    all_g = group.g_weights.supports()
    nonzero_supports = tuple(sorted(set(v_supports) | set(g_supports)))
    for idx, basis in enumerate(ordered):
        flat = Flat(basis)
        zero_v = tuple(w for w in all_v if all(dot(b, w) == 0 for b in basis))
        zero_g = tuple(w for w in all_g if all(dot(b, w) == 0 for b in basis))
        zero_supports = tuple(w for w in zero_v + zero_g if any(w))
        rep_cochar = representative_cocharacter(flat, nonzero_supports, zero_supports, n)
        dims = numeric_invariants(group, rep, rep_cochar)
        zero_g_total = sum(group.g_weights.multiplicity(w) for w in zero_g)
        if dims.dim_g_fixed != zero_g_total:
            raise InternalCheckError("zero-set bookkeeping disagrees with slice counts")
        u_basis = saturate_span(list(zero_supports), n)
        if len(u_basis) + flat.dim != n:
            raise InternalCheckError("flat dimension and zero-set span do not fill the rank")
        strata.append(Stratum(idx, flat, zero_v, zero_g, rep_cochar, dims))
        u_bases.append(u_basis)

    count = len(strata)
    below: list[frozenset[int]] = []
    for i in range(count):
        below.append(frozenset({i}).union(*(below[c] for c in covers[i])))
    maxima = [i for i in range(count) if len(below[i]) == count]
    if len(maxima) != 1:
        raise InternalCheckError("the stratum order does not have a unique maximum")
    top_index = maxima[0]

    # One permutation of the weights per element: a stratum is determined by
    # the indices of its zero supports, and its image under w has the image
    # indices as zero supports.
    points = tuple(sorted(set(all_v) | set(all_g)))
    action = permutation_action(weyl, points)
    point_index = {p: i for i, p in enumerate(points)}
    zero_sets = [
        (frozenset(point_index[w] for w in s.zero_v), frozenset(point_index[w] for w in s.zero_g))
        for s in strata
    ]
    keys = [zv | zg for zv, zg in zero_sets]
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
                k = index_of.get(frozenset(action[g][p] for p in keys[j]))
                if k is None:
                    raise InternalCheckError("the group action does not permute the strata")
                if orbit_of[k] < 0:
                    orbit_of[k] = len(orbits)
                    members.append(k)
        orbits.append(tuple(sorted(members)))

    point_stabs = []
    set_stabs = []
    for s, zero_set in zip(strata, zero_sets):
        ps = point_stabilizer(weyl, s.rep)
        ss = set_stabilizer(weyl, action, zero_set)
        if not set(ps.members) <= set(ss.members):
            raise InternalCheckError("pointwise stabilizer is not inside the setwise stabilizer")
        # integrality.j_graded spans from the covers only, which needs the
        # point stabilizer of each cover inside this one.
        for j in covers[s.index]:
            if not set(point_stabs[j].members) <= set(ps.members):
                raise InternalCheckError(
                    f"the point stabilizer of stratum {j} is not inside that of "
                    f"stratum {s.index}, which covers it"
                )
        point_stabs.append(ps)
        set_stabs.append(ss)

    return Stratification(
        group=group,
        rep=rep,
        weyl=weyl,
        hyperplanes=hyperplanes,
        strata=tuple(strata),
        covers=covers,
        below=tuple(below),
        orbits=tuple(orbits),
        orbit_of=tuple(orbit_of),
        point_stabilizers=tuple(point_stabs),
        set_stabilizers=tuple(set_stabs),
        u_bases=tuple(u_bases),
        top_index=top_index,
    )


def _canonical_normal(u: Weight) -> Weight:
    ray = primitive_ray(u)
    lead = next(c for c in ray if c != 0)
    return ray if lead > 0 else tuple(-c for c in ray)
