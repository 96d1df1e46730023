"""Induction kernels and operators, the kernel-twist character, the graded
induced submodules, BPS spaces with their refined DT tables, and the
degree-by-degree verification of the integrality decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import (
    Stratification,
    Stratum,
    align_representative,
    generic_points,
    with_representative,
)
from .errors import InputError, InternalCheckError
from .lattice import Weight, pairing
from .matrices import mat_vec, nullspace, restrict_action, det_one_minus_q, series_inverse
from .polyalg import (
    GradedBasis,
    KernelForm,
    Poly,
    average_over,
    invariant_basis,
    kernel_sum,
    monomials_of_degree,
    orthogonal_complement,
    power_products,
    rref_span,
    substitute,
)
from .weyl import (
    Subgroup,
    averaged_form,
    coset_representatives,
    molien_coefficients,
    point_stabilizer,
)


@dataclass(frozen=True)
class EpsilonCharacter:
    """The +/-1 character of a stratum stabilizer measuring how the induction
    kernel transforms."""

    subgroup: Subgroup
    values: dict[int, Fraction]

    def value(self, member_index: int) -> Fraction:
        return self.values[member_index]


@dataclass(frozen=True)
class BpsSpace:
    stratum: Stratum
    pieces: dict[int, GradedBasis]
    ambient_dims: dict[int, int]
    induced_dims: dict[int, int]
    w_matrices: dict[int, dict[int, tuple[tuple[Fraction, ...], ...]]]
    dt_table: dict[int, int]
    euler: int

    @property
    def total_dim(self) -> int:
        return sum(self.dt_table.values())

    def piece_dims(self) -> dict[int, int]:
        return {p: basis.dim for p, basis in self.pieces.items() if basis.dim}


def once(strat: Stratification, builder, *args):
    """builder(strat, *args), computed once per stratification: kept in
    strat.memo under the builder and the argument values, not the stratum
    index, which with_representative copies share.  Callers look the builder
    up by its module-level name when they call, so a rebound one is used."""
    key = (builder, *args)
    if key not in strat.memo:
        strat.memo[key] = builder(strat, *args)
    return strat.memo[key]


def _invariant_form(strat: Stratification):
    """The Weyl-averaged invariant form, as a builder for once."""
    return averaged_form(strat.weyl)


def _zero_slice_forms(strat: Stratification, target: Stratum, mu_rep) -> tuple:
    """Linear forms of the kernel: negative-slice weights of the target's
    fixed data, with multiplicity, sliced by the source representative."""
    num: list[Weight] = []
    den: list[Weight] = []
    pos_v = pos_g = 0
    zero_v = set(target.zero_v)
    zero_g = set(target.zero_g)
    for w, m in strat.rep.v_weights:
        if w in zero_v:
            p = pairing(mu_rep, w)
            if p < 0:
                num.extend([w] * m)
            elif p > 0:
                pos_v += m
    for w, m in strat.group.g_weights:
        if w in zero_g:
            p = pairing(mu_rep, w)
            if p < 0:
                den.extend([w] * m)
            elif p > 0:
                pos_g += m
    if len(num) != pos_v or len(den) != pos_g:
        raise InternalCheckError(
            "negative and positive slices differ in size; data is not weakly symmetric"
        )
    return tuple(num), tuple(den)


def kernel(strat: Stratification, mu: Stratum, target: Stratum) -> KernelForm:
    """Induction kernel from the class of mu into the target stratum."""
    return KernelForm(*_zero_slice_forms(strat, target, mu.rep))


def _induction_data(strat: Stratification, mu: Stratum, target: Stratum):
    """The source stabilizer inside the target's, its coset representatives
    and the kernel form of the induction from the class of mu."""
    w_target = strat.point_stabilizers[target.index]
    stab = point_stabilizer(strat.weyl, mu.rep)
    h = strat.weyl.subgroup(set(stab.members) & set(w_target.members))
    return h, coset_representatives(h, w_target), once(strat, kernel, mu, target)


def induct(strat: Stratification, f: Poly, mu: Stratum, target: Stratum) -> Poly:
    """Coset-sum induction of f from the class of mu into the target."""
    h, cosets, form = once(strat, _induction_data, mu, target)
    for w in h.elements():
        if substitute(w, f) != f:
            raise InputError(
                "induction input must be invariant under the source stabilizer"
            )
    return kernel_sum(f, form, cosets)


def epsilon(strat: Stratification, stratum: Stratum) -> EpsilonCharacter:
    """Character by which the stratum stabilizer rescales the kernel,
    computed by exact evaluation at two generic points."""
    wl = strat.set_stabilizers[stratum.index]
    form = once(strat, kernel, stratum, strat.top)
    points = generic_points(strat.all_supports(), strat.group.rank, 2)
    values: dict[int, Fraction] = {}
    for idx in wl.members:
        w = strat.weyl.elements[idx]
        moved = form.transformed(w)
        ratios = [form.evaluate(pt) / moved.evaluate(pt) for pt in points]
        if ratios[0] != ratios[1]:
            raise InternalCheckError(
                f"kernel ratio is not constant for element {idx}: {ratios}"
            )
        if ratios[0] not in (Fraction(1), Fraction(-1)):
            raise InternalCheckError(
                f"kernel character takes a value outside +/-1: {ratios[0]} at element {idx}"
            )
        values[idx] = ratios[0]
    if values[strat.weyl.identity_index] != 1:
        raise InternalCheckError("kernel character is not 1 on the identity")
    for a in wl.members:
        for b in wl.members:
            if values[strat.weyl.product(a, b)] != values[a] * values[b]:
                raise InternalCheckError("kernel character is not multiplicative")
    return EpsilonCharacter(wl, values)


def j_graded(strat: Stratification, stratum: Stratum, p: int) -> GradedBasis:
    """Degree-p slice of the induced submodule of lambda = stratum: the span
    of sum_{w in W_lambda} w(f * k_{mu->lambda}) over f in Sym(U_lambda) and
    the strata mu that lambda covers.  Here k_{mu->lambda} is the kernel,
    W_lambda the point stabilizer and U_lambda the reduced variables.

    The strata further down add nothing, because induction composes:
    (a) The span from mu does not depend on mu's generic representative.
        Moving it across the hyperplane of a ray rho swaps the kernel's
        forms on rho for those on -rho.  Inside zero(lambda) there are as
        many of each, because V is weakly symmetric and g is symmetric, so
        the kernel changes only by a nonzero rational factor.
    (b) Take mu < nu < lambda and mu' = align_representative(mu, nu.rep).
        Then k_{mu'->lambda} = k_{mu->nu} * k_{nu->lambda}; W_nu lies in
        W_lambda, and k_{nu->lambda} is W_nu-invariant.  So
            sum_{w in W_lambda} w(f * k_{mu'->lambda})
                = |W_nu|^-1 sum_{w in W_lambda} w(g * k_{nu->lambda}),
        where g = sum_{v in W_nu} v(f * k_{mu->nu}) lies in Sym(U_lambda).
        Hence the span from mu lies in the span from nu, and every
        mu < lambda lies under some cover of lambda.
    enumerate_strata checks that W_nu lies in W_lambda on every cover edge."""
    if p < 0:
        raise InputError("degree must be nonnegative")
    n = strat.group.rank
    u_basis = strat.u_bases[stratum.index]
    levi = strat.point_stabilizers[stratum.index].elements()
    generators = []
    for j in strat.covers[stratum.index]:
        form = once(strat, kernel, strat.strata[j], stratum)
        generators.extend(
            kernel_sum(mono, form, levi)
            for mono in power_products(u_basis, p - form.degree, n)
        )
    return rref_span(generators, p, n)


def bps_space(strat: Stratification, stratum: Stratum) -> BpsSpace:
    """Graded BPS space of a stratum: the orthogonal complement of the induced
    submodule inside the reduced invariant ring, with its stabilizer action,
    DT table and Euler number."""
    b = once(strat, _invariant_form)
    u_basis = strat.u_bases[stratum.index]
    levi = strat.point_stabilizers[stratum.index]
    wl = strat.set_stabilizers[stratum.index]
    v_dim = stratum.dims.dim_v_fixed
    g_dim = stratum.dims.dim_g_fixed
    p_max = v_dim // 2

    pieces: dict[int, GradedBasis] = {}
    ambient_dims: dict[int, int] = {}
    induced_dims: dict[int, int] = {}
    for p in range(p_max + 3):
        ambient = invariant_basis(levi, p, u_basis)
        sub = j_graded(strat, stratum, p)
        if p <= p_max:
            pieces[p] = orthogonal_complement(sub, ambient, b)
            ambient_dims[p] = ambient.dim
            induced_dims[p] = sub.dim
        elif sub.dim != ambient.dim:
            raise InternalCheckError(
                f"induced submodule fails to fill degree {p} past the vanishing bound "
                f"at stratum {stratum.index} ({sub.dim} < {ambient.dim})"
            )

    w_matrices: dict[int, dict[int, tuple]] = {}
    for idx in wl.members:
        w = strat.weyl.elements[idx]
        mats: dict[int, tuple] = {}
        for p, basis in pieces.items():
            if basis.dim == 0:
                continue
            rows = []
            for f in basis.polys():
                coords = basis.coordinates(substitute(w, f))
                if coords is None:
                    raise InternalCheckError(
                        "BPS piece is not stable under the stratum stabilizer"
                    )
                rows.append(coords)
            mats[p] = tuple(rows)
        w_matrices[idx] = mats

    d_lambda = stratum.dims.d_lambda
    dt_table: dict[int, int] = {}
    for p in sorted(pieces):
        dim = pieces[p].dim
        if dim:
            i = 2 * p - d_lambda
            if not (g_dim - v_dim <= i <= g_dim):
                raise InternalCheckError(
                    f"nonzero BPS piece at shifted degree {i} outside "
                    f"[{g_dim - v_dim}, {g_dim}]"
                )
            dt_table[i] = dim
    euler = sum(dim if i % 2 == 0 else -dim for i, dim in dt_table.items())
    return BpsSpace(stratum, pieces, ambient_dims, induced_dims, w_matrices, dt_table, euler)


def isotypic_series(
    strat: Stratification, bps: BpsSpace, eps: EpsilonCharacter, cutoff: int
) -> tuple[Fraction, ...]:
    """Graded dimensions of the kernel-character isotypic part of the BPS
    space tensored with the polynomial ring of the stratum's flat."""
    if cutoff < 0:
        raise InputError("cutoff must be nonnegative")
    wl = eps.subgroup
    flat_basis = strat.strata[bps.stratum.index].flat.basis
    coeffs = [Fraction(0)] * (cutoff + 1)
    for idx in wl.members:
        w = strat.weyl.elements[idx]
        restricted = restrict_action(w.cochar_matrix, flat_basis) if flat_basis else ()
        inv = series_inverse(det_one_minus_q(restricted), cutoff)
        eps_inv = Fraction(1) / eps.value(idx)
        for a, basis in bps.pieces.items():
            if basis.dim == 0 or a > cutoff:
                continue
            trace = sum(
                bps.w_matrices[idx][a][i][i] for i in range(basis.dim)
            )
            if trace == 0:
                continue
            for m in range(a, cutoff + 1):
                coeffs[m] += eps_inv * trace * inv[m - a]
    scale = Fraction(1, wl.order)
    return tuple(c * scale for c in coeffs)


@dataclass(frozen=True)
class HilbertRow:
    degree: int
    target: Fraction
    total: Fraction
    match: bool


@dataclass(frozen=True)
class HilbertResult:
    rows: tuple[HilbertRow, ...]
    passed: bool


@dataclass(frozen=True)
class IsomorphismRow:
    degree: int
    target_dim: int
    domain_dim: int
    image_rank: int
    bijective: bool


@dataclass(frozen=True)
class IsomorphismResult:
    rows: tuple[IsomorphismRow, ...]
    passed: bool


@dataclass(frozen=True)
class AssociativityRow:
    chain: tuple[int, int, int]
    functions: int
    ok: bool


@dataclass(frozen=True)
class AssociativityResult:
    rows: tuple[AssociativityRow, ...]
    passed: bool


def target_series(strat: Stratification, cutoff: int) -> tuple[Fraction, ...]:
    """Graded dimensions of the full invariant ring of the Weyl group."""
    elements = [(w.matrix, Fraction(1)) for w in strat.weyl.elements]
    return molien_coefficients(elements, cutoff)


def verify_hilbert(strat: Stratification, cutoff: int) -> HilbertResult:
    """Degree-by-degree equality of the invariant-ring dimensions with the
    shifted isotypic series summed over the orbit representatives."""
    target = once(strat, target_series, cutoff)
    totals = [Fraction(0)] * (cutoff + 1)
    for s in strat.orbit_representatives():
        r = s.dims.r_lambda
        if r > cutoff:
            continue
        series = isotypic_series(
            strat, once(strat, bps_space, s), once(strat, epsilon, s), cutoff - r
        )
        for p in range(cutoff + 1):
            if p - r >= 0:
                totals[p] += series[p - r]
    rows = tuple(
        HilbertRow(p, target[p], totals[p], target[p] == totals[p])
        for p in range(cutoff + 1)
    )
    return HilbertResult(rows, all(r.match for r in rows))


def _isotypic_projection(
    strat: Stratification, eps: EpsilonCharacter, f: Poly
) -> Poly:
    wl = eps.subgroup
    total = Poly.zero(f.nvars)
    for idx in wl.members:
        w = strat.weyl.elements[idx]
        total = total + substitute(w, f).scaled(Fraction(1) / eps.value(idx))
    return total.scaled(Fraction(1, wl.order))


def _flat_complement_forms(strat: Stratification, stratum: Stratum):
    """Forms spanning the invariant complement of the stratum's reduced
    variables; they realize the polynomial ring of the flat inside the
    ambient ring."""
    b = once(strat, _invariant_form)
    constraints = [mat_vec(b, u) for u in strat.u_bases[stratum.index]]
    return nullspace(constraints, strat.group.rank)


def verify_isomorphism(strat: Stratification, cutoff: int) -> IsomorphismResult:
    """Push an isotypic basis of every orbit's BPS-times-flat summand through
    induction and test that the images form a basis of the invariant ring in
    each degree."""
    n = strat.group.rank
    target = once(strat, target_series, cutoff)

    rows = []
    for p in range(cutoff + 1):
        images = []
        domain_dim = 0
        for s in strat.orbit_representatives():
            m = p - s.dims.r_lambda
            if m < 0:
                continue
            bps = once(strat, bps_space, s)
            eps = once(strat, epsilon, s)
            forms = once(strat, _flat_complement_forms, s)
            for a, basis in bps.pieces.items():
                if basis.dim == 0 or a > m:
                    continue
                products = list(power_products(forms, m - a, n))
                projections = []
                for f in basis.polys():
                    for g in products:
                        proj = _isotypic_projection(strat, eps, f * g)
                        if not proj.is_zero():
                            projections.append(proj)
                iso_basis = rref_span(projections, m, n)
                domain_dim += iso_basis.dim
                for vec in iso_basis.polys():
                    images.append(induct(strat, vec, s, strat.top))
        rank = rref_span(images, p, n).dim
        t = target[p]
        if t.denominator != 1:
            raise InternalCheckError("invariant-ring series has a non-integer coefficient")
        t_int = int(t)
        rows.append(IsomorphismRow(p, t_int, domain_dim, rank, t_int == domain_dim == rank))
    return IsomorphismResult(tuple(rows), all(r.bijective for r in rows))


# Associativity checks the first ASSOCIATIVITY_CHAINS chains, each on the first
# TEST_FUNCTIONS invariant averages of monomials up to TEST_FUNCTION_DEGREE.
ASSOCIATIVITY_CHAINS = 20
TEST_FUNCTIONS = 3
TEST_FUNCTION_DEGREE = 3


def _invariant_test_functions(strat, h: Subgroup):
    """Deterministic list of subgroup-invariant polynomials of small degree."""
    n = strat.group.rank
    out = [Poly.constant(n, 1)]
    for d in range(1, TEST_FUNCTION_DEGREE + 1):
        for exps in monomials_of_degree(n, d):
            if len(out) >= TEST_FUNCTIONS:
                return out
            f = average_over(h, Poly.monomial(n, exps))
            if not f.is_zero() and f not in out:
                out.append(f)
    return out


def verify_associativity(strat: Stratification) -> AssociativityResult:
    """Composition law on aligned chains: inducting in two stages agrees with
    inducting directly once the smallest representative is sign-aligned.
    The first ASSOCIATIVITY_CHAINS chains i <= j <= k in lexicographic order
    are used, the strict ones (i < j < k) before the degenerate ones; a
    stratum's index is below that of every stratum above it."""
    count = len(strat.strata)
    chains = (
        (i, j, k)
        for strict in (True, False)
        for i in range(count)
        for j in range(i, count) if strat.leq(i, j)
        for k in range(j, count) if strat.leq(j, k)
        if (i != j and j != k) == strict
    )
    supports = strat.all_supports()
    rows = []
    for chain in itertools.islice(chains, ASSOCIATIVITY_CHAINS):
        i, j, k = chain
        s1, s2, s3 = strat.strata[i], strat.strata[j], strat.strata[k]
        nu = align_representative(s1, s2.rep, supports)
        s1_aligned = with_representative(strat, s1, nu)
        h = point_stabilizer(strat.weyl, nu)
        ok = True
        funcs = _invariant_test_functions(strat, h)
        for f in funcs:
            direct = induct(strat, f, s1_aligned, s3)
            staged = induct(strat, induct(strat, f, s1_aligned, s2), s2, s3)
            if direct != staged:
                ok = False
                break
        rows.append(AssociativityRow(chain, len(funcs), ok))
    return AssociativityResult(tuple(rows), all(r.ok for r in rows))
