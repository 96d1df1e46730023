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
    once,
    point_stabilizer_of,
    set_stabilizer_of,
    with_representative,
)
from .errors import InputError, InternalCheckError
from .lattice import Weight, ray
from .matrices import dot, mat_vec, nullspace, primitive
from .polyalg import (
    GradedBasis,
    KernelForm,
    Poly,
    coset_sum,
    invariant_basis,
    kernel_sum,
    monomials_of_degree,
    orbit_sum,
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
    reflection_ray,
)


@dataclass(frozen=True)
class BpsSpace:
    """pieces[p] is the degree-p piece for p = 0..p_max; traces[idx] holds the
    trace of stabilizer element idx on each piece, in the same order."""

    stratum: Stratum
    pieces: dict[int, GradedBasis]
    traces: dict[int, tuple[Fraction, ...]]
    dt_table: dict[int, int]
    euler: int

    @property
    def total_dim(self) -> int:
        return sum(self.dt_table.values())

    def piece_dims(self) -> dict[int, int]:
        return {p: basis.dim for p, basis in self.pieces.items() if basis.dim}


def _invariant_form(strat: Stratification):
    """The Weyl-averaged invariant form, as a builder for once."""
    return averaged_form(strat.weyl)


def kernel(strat: Stratification, mu: Stratum, target: Stratum) -> KernelForm:
    """Induction kernel from the class of mu into the target stratum: the
    weights of the target's fixed data pairing negatively with mu's
    representative, with multiplicity."""
    slices = []
    for weights, zero in ((strat.document.v_weights, set(target.zero_v)),
                          (strat.document.g_weights, set(target.zero_g))):
        paired = [(w, m, dot(mu.rep, w)) for w, m in weights if w in zero]
        neg = tuple(w for w, m, x in paired if x < 0 for _ in range(m))
        if len(neg) != sum(m for _, m, x in paired if x > 0):
            raise InternalCheckError(
                f"kernel from stratum {mu.index} into stratum {target.index}: negative and "
                "positive slices differ in size; data is not weakly symmetric"
            )
        slices.append(neg)
    return KernelForm(*slices)


def _induction_data(strat: Stratification, mu: Stratum, target: Stratum):
    """The source stabilizer H inside the target's, the kernel form of the
    induction from the class of mu, and the CosetSum of that kernel over the
    coset representatives of H, which every kernel sum of this induction
    shares."""
    w_target = once(strat, point_stabilizer_of, target.index)
    h = point_stabilizer(w_target, mu.rep)
    form = once(strat, kernel, mu, target)
    return h, form, coset_sum(form, coset_representatives(h, w_target))


def _induced(f: Poly, form: KernelForm, sums, mu: Stratum, target: Stratum) -> Poly:
    """kernel_sum of f over the kernel form and CosetSum of the induction of
    mu into the target; a sum that is not polynomial names the two strata."""
    try:
        return kernel_sum(f, form, sums)
    except InternalCheckError as exc:
        raise InternalCheckError(
            f"induction from stratum {mu.index} into stratum {target.index}: {exc}"
        ) from exc


def induct(strat: Stratification, f: Poly, mu: Stratum, target: Stratum) -> Poly:
    """Coset-sum induction of f from the class of mu into the target."""
    h, form, sums = once(strat, _induction_data, mu, target)
    for w in h.elements():
        if substitute(w, f) != f:
            raise InputError(
                "induction input must be invariant under the source stabilizer"
            )
    return _induced(f, form, sums, mu, target)


def _factored(form: KernelForm) -> tuple[dict[Weight, int], Fraction]:
    """(exponents, c) with form == c * prod_key key^exponents[key] over the
    rays of its linear forms.  c is a Fraction: each ray's scale, an int or
    a Fraction, multiplies or divides it; an int to the power -1 is a float."""
    exponents: dict[Weight, int] = {}
    c = Fraction(1)
    for forms, sign in ((form.numerator, 1), (form.denominator, -1)):
        for key, scale in map(ray, forms):
            exponents[key] = exponents.get(key, 0) + sign
            c = c * scale if sign > 0 else c / scale
    return {key: e for key, e in exponents.items() if e}, c


def epsilon(strat: Stratification, stratum: Stratum) -> dict[int, Fraction]:
    """Character by which the stratum stabilizer rescales the kernel, as
    {member index: +/-1} in the member order of set_stabilizer_of: the
    ratio of the scalars of k and w(k) factored over rays.  The polynomial
    ring is a UFD, so the ratio k / w(k) is constant exactly when the two
    exponent maps agree, which is the one check made here.  The rest follows:
    - sigma_w substitutes each linear form u -> M_w u;
    - sigma_a sigma_b = sigma_ab, because M_ab = M_a M_b;
    - the exponent check gives sigma_w(k) = k / eps(w), hence
      sigma_ab(k) = sigma_a(k / eps(b)) = k / (eps(a) eps(b)), and eps(e) = 1;
    - a homomorphism from a finite group into Q^x takes only the values +/-1."""
    wl = once(strat, set_stabilizer_of, stratum.index)
    form = once(strat, kernel, stratum, strat.top)
    exponents, scale = _factored(form)
    values: dict[int, Fraction] = {}
    for idx in wl.members:
        moved, moved_scale = _factored(form.transformed(strat.weyl.elements[idx]))
        if moved != exponents:
            raise InternalCheckError(
                f"stratum {stratum.index}: kernel ratio is not constant "
                f"for element {idx}: ray exponents {exponents} against {moved}"
            )
        values[idx] = scale / moved_scale
    return values


def _invariants(strat: Stratification, h: Subgroup, p: int, forms) -> GradedBasis:
    """invariant_basis(h, p, forms) as a builder for once, keyed by the
    subgroup: its members and its parent group, which hashes by identity."""
    return invariant_basis(h, p, forms)


def _reflections(strat: Stratification, h: Subgroup) -> int:
    """N(h), the number of members of h that are reflections (see j_graded,
    (e)), as a builder for once."""
    return sum(reflection_ray(w) is not None for w in h.elements())


def _basic_invariants(strat: Stratification, levi: Subgroup, e: int, u_basis) -> tuple[Poly, ...]:
    """The basic invariants of degree e of levi acting on Sym(U), U the span
    of u_basis, each cleared to a primitive integer polynomial
    (matrices.primitive) so that products of it run over ints: the rows of
    the degree-e invariants outside the span of the products of lower-degree
    ones, each row tested by coordinates on the running span.  The lower
    ones generate every invariant of degree below e, so their products of
    degree e span the sum of theta * Sym^{e - deg theta}(U)^levi.  Once
    there are rank U of them there are no more (Chevalley; see j_graded),
    and nothing is built.  As a builder for once."""
    lower = [(d, theta) for d in range(1, e)
             for theta in once(strat, _basic_invariants, levi, d, u_basis)]
    if e < 1 or len(lower) == len(u_basis):
        return ()
    n = strat.document.rank
    ambient = once(strat, _invariants, levi, e, u_basis)
    span = rref_span((theta * Poly(n, primitive(f.terms)) for d, theta in lower
                      for f in once(strat, _invariants, levi, e - d, u_basis).rows), e, n)
    basic = []
    for row in ambient.rows:
        if span.dim == ambient.dim:
            break
        if span.coordinates(row) is None:
            basic.append(Poly(n, primitive(row.terms)))
            span = rref_span((*span.rows, row), e, n)
    return tuple(basic)


def j_graded(strat: Stratification, stratum: Stratum, p: int) -> GradedBasis:
    """Degree-p slice of the induced submodule of lambda = stratum: the span
    of the inductions sum_{c in W_lambda/H} c(f * k_{mu->lambda}) of the
    H-invariants f of Sym(U_lambda), over the strata mu that lambda covers.
    Here k_{mu->lambda} is the kernel, W_lambda the point stabilizer, H its
    intersection with the stabilizer of mu's representative, and U_lambda the
    reduced variables; the cosets and kernel are those of induct.

    This is the span of sum_{w in W_lambda} w(f * k_{mu->lambda}) over all
    f in Sym(U_lambda) and every mu below lambda:
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
    (c) H fixes mu's representative and preserves zero(lambda), so it
        permutes the kernel's forms and k_{mu->lambda} is H-invariant.  Then
            sum_{w in W_lambda} w(f * k_{mu->lambda})
                = |H| sum_{c in W_lambda/H} c(avg_H(f) * k_{mu->lambda}),
        and avg_H maps Sym(U_lambda) onto its H-invariants.
    W_nu lies in W_lambda on every cover edge by (e), and it is checked here:
    the H of a cover nu is W_lambda meet W_nu, so |H| = |W_nu| exactly when
    W_nu lies in W_lambda.

    J_p is built as a module over R = Sym(U_lambda)^{W_lambda}: a cover is
    induced only when q = p - deg k <= N(W_lambda) - N(H), N counting a
    group's reflections.
    (d) Induction is R-linear: each c in W_lambda fixes a theta in R, so
        c(theta * f * k) = theta * c(f * k), and theta * f is H-invariant
        when f is.  Hence theta * J_{p-e} lies in J_p for theta in R_e.
    (e) Steinberg (Trans. AMS 112, 1964): W_lambda is generated by the
        reflections of W fixing lambda, each in a root inside U_lambda, and
        H by the reflections of W_lambda fixing mu's representative.  So
        w - I maps into U_lambda for w in W_lambda, and w is a reflection
        of the lattice exactly when it is one of U_lambda.
    (f) Chevalley (1955): R and Sym(U_lambda)^H are polynomial rings on
        rank U_lambda basic invariants, of degrees d_i(W_lambda) and d_i(H),
        with sum (d_i - 1) = N.  Sym(U_lambda)^H is Cohen-Macaulay and
        finite over the polynomial ring R, hence a free R-module on
        homogeneous generators, whose degrees have the generating
        polynomial prod (1 - t^{d_i(W_lambda)}) / prod (1 - t^{d_i(H)}), the
        quotient of the two Poincare series, of degree
        sum d_i(W_lambda) - sum d_i(H) = N(W_lambda) - N(H).
    (g) So an H-invariant of degree q > N(W_lambda) - N(H) is a sum of
        r * g over those generators g with r in R of positive degree, and r
        is a sum of products theta * s over the basic invariants theta of
        W_lambda and s in R.  By (d) its induction lies in the sum of
        theta * J_{p - deg theta} over deg theta <= p, which lies in J_p.
        That sum is added when some cover is skipped.
    Each J_p is kept by once; its rows are unique (RREF over Q), whichever
    spanning set gives them."""
    if p < 0:
        raise InputError("degree must be nonnegative")
    u_basis = strat.u_bases[stratum.index]
    levi = once(strat, point_stabilizer_of, stratum.index)
    reflections = once(strat, _reflections, levi)
    covers = []
    for j in strat.covers[stratum.index]:
        h, form, sums = once(strat, _induction_data, strat.strata[j], stratum)
        if h.order != once(strat, point_stabilizer_of, j).order:
            raise InternalCheckError(f"the point stabilizer of stratum {j} is not inside that "
                                     f"of stratum {stratum.index}, which covers it")
        covers.append((strat.strata[j], h, form, sums))
    generators = []
    skipped = False
    for mu, h, form, sums in covers:
        q = p - form.degree
        if q < 0:
            continue
        if q > reflections - once(strat, _reflections, h):
            skipped = True
            continue
        generators.extend(
            _induced(f, form, sums, mu, stratum)
            for f in once(strat, _invariants, h, q, u_basis).rows
        )
    if skipped:
        for e in range(1, p + 1):
            for theta in once(strat, _basic_invariants, levi, e, u_basis):
                generators.extend(theta * Poly(r.nvars, primitive(r.terms))
                                  for r in once(strat, j_graded, stratum, p - e).rows)
    return rref_span(generators, p, strat.document.rank)


def bps_space(strat: Stratification, stratum: Stratum) -> BpsSpace:
    """Graded BPS space of a stratum: the orthogonal complement of the induced
    submodule inside the reduced invariant ring, with its stabilizer action,
    DT table and Euler number."""
    b = once(strat, _invariant_form)
    u_basis = strat.u_bases[stratum.index]
    levi = once(strat, point_stabilizer_of, stratum.index)
    wl = once(strat, set_stabilizer_of, stratum.index)
    v_dim = stratum.dims.dim_v_fixed
    g_dim = stratum.dims.dim_g_fixed
    p_max = v_dim // 2

    pieces: dict[int, GradedBasis] = {}
    for p in range(p_max + 3):
        ambient = once(strat, _invariants, levi, p, u_basis)
        sub = once(strat, j_graded, stratum, p)
        if p <= p_max:
            pieces[p] = orthogonal_complement(sub, ambient, b)
        elif sub.dim != ambient.dim:
            raise InternalCheckError(
                f"induced submodule fails to fill degree {p} past the vanishing bound "
                f"at stratum {stratum.index} ({sub.dim} < {ambient.dim})"
            )

    traces: dict[int, tuple] = {}
    for idx in wl.members:
        w = strat.weyl.elements[idx]
        diagonal = []
        for p, basis in pieces.items():
            action = basis.action(w)
            if action is None:
                raise InternalCheckError(
                    f"stratum {stratum.index}: BPS piece of degree {p} is not "
                    f"stable under element {idx} of the stratum stabilizer"
                )
            diagonal.append(sum(row[i] for i, row in enumerate(action)))
        traces[idx] = tuple(diagonal)

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
    return BpsSpace(stratum, pieces, traces, dt_table, euler)


def isotypic_series(
    strat: Stratification, bps: BpsSpace, eps: dict[int, Fraction], cutoff: int
) -> tuple[Fraction, ...]:
    """Graded dimensions of the kernel-character isotypic part of the BPS
    space tensored with the polynomial ring of the stratum's flat.

    The polynomial ring of the flat F is realized by the forms of
    _flat_complement_forms, the ones verify_isomorphism multiplies by: their
    span is the b-orthogonal complement of U, which each stabilizer element
    w maps onto itself, since M_w keeps b and maps U onto itself.  That span
    maps W-equivariantly onto Q^n / U, the linear forms on F, so M_w
    restricted to it gives w's Molien term.
    M_w is restricted to the span of the row-reduced forms by
    GradedBasis.action; det(I - q A) does not depend on the basis."""
    if cutoff < 0:
        raise InputError("cutoff must be nonnegative")
    forms = once(strat, _flat_complement_forms, bps.stratum)
    dual = rref_span(map(Poly.linear, forms), 1, strat.document.rank)
    elements = []
    for idx, sign in eps.items():
        restricted = dual.action(strat.weyl.elements[idx])
        if restricted is None:
            raise InternalCheckError(
                f"stratum {bps.stratum.index}: the flat is not stable under element {idx} "
                "of the stratum stabilizer"
            )
        elements.append((restricted, [t / sign for t in bps.traces[idx]]))
    return molien_coefficients(elements, cutoff)


@dataclass(frozen=True)
class HilbertRow:
    degree: int
    target: Fraction
    total: Fraction
    match: bool


@dataclass(frozen=True)
class IsomorphismRow:
    degree: int
    target_dim: int
    domain_dim: int
    image_rank: int
    bijective: bool


@dataclass(frozen=True)
class AssociativityRow:
    chain: tuple[int, int, int]
    functions: int
    ok: bool


@dataclass(frozen=True)
class Ledger:
    """The rows of one verification ledger, and whether every row passed."""

    rows: tuple
    passed: bool


def target_series(strat: Stratification, cutoff: int) -> tuple[Fraction, ...]:
    """Graded dimensions of the full invariant ring of the Weyl group."""
    elements = [(w, (1,)) for w in strat.weyl.elements]
    return molien_coefficients(elements, cutoff)


def verify_hilbert(strat: Stratification, cutoff: int) -> Ledger:
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
    return Ledger(rows, all(r.match for r in rows))


def _flat_complement_forms(strat: Stratification, stratum: Stratum):
    """Forms spanning the invariant complement of the stratum's reduced
    variables; they realize the polynomial ring of the flat inside the
    ambient ring."""
    b = once(strat, _invariant_form)
    constraints = [mat_vec(b, u) for u in strat.u_bases[stratum.index]]
    return nullspace(constraints, strat.document.rank)


def verify_isomorphism(strat: Stratification, cutoff: int) -> Ledger:
    """Push an isotypic basis of every orbit's BPS-times-flat summand through
    induction and test that the images form a basis of the invariant ring in
    each degree."""
    n = strat.document.rank
    target = once(strat, target_series, cutoff)
    summands = [
        (s, once(strat, bps_space, s), once(strat, epsilon, s),
         once(strat, set_stabilizer_of, s.index), once(strat, _flat_complement_forms, s))
        for s in strat.orbit_representatives() if s.dims.r_lambda <= cutoff
    ]

    rows = []
    for p in range(cutoff + 1):
        images = []
        domain_dim = 0
        for s, bps, eps, wl, forms in summands:
            m = p - s.dims.r_lambda
            if m < 0:
                continue
            for a, basis in bps.pieces.items():
                if basis.dim == 0 or a > m:
                    continue
                products = list(power_products(forms, m - a, n))
                projections = []
                for f in basis.rows:
                    for g in products:
                        proj = orbit_sum(wl, f * g, eps)
                        if not proj.is_zero():
                            projections.append(proj)
                iso_basis = rref_span(projections, m, n)
                domain_dim += iso_basis.dim
                for vec in iso_basis.rows:
                    images.append(induct(strat, vec, s, strat.top))
        rank = rref_span(images, p, n).dim
        t = target[p]
        if t.denominator != 1:
            raise InternalCheckError(
                f"invariant-ring series has a non-integer coefficient {t} in degree {p}"
            )
        t_int = int(t)
        rows.append(IsomorphismRow(p, t_int, domain_dim, rank, t_int == domain_dim == rank))
    return Ledger(tuple(rows), all(r.bijective for r in rows))


# Associativity checks the first ASSOCIATIVITY_CHAINS chains, each on the first
# TEST_FUNCTIONS invariant averages of monomials up to TEST_FUNCTION_DEGREE.
ASSOCIATIVITY_CHAINS = 20
TEST_FUNCTIONS = 3
TEST_FUNCTION_DEGREE = 3


def _invariant_test_functions(strat, h: Subgroup):
    """Deterministic list of subgroup-invariant polynomials of small degree:
    the constant 1, then the distinct nonzero orbit sums of monomials."""
    n = strat.document.rank
    out = [Poly.constant(n, 1)]
    for d in range(1, TEST_FUNCTION_DEGREE + 1):
        for exps in monomials_of_degree(n, d):
            if len(out) >= TEST_FUNCTIONS:
                return out
            f = orbit_sum(h, Poly.monomial(n, exps))
            if not f.is_zero() and f not in out:
                out.append(f)
    return out


def _aligned(strat: Stratification, i: int, j: int) -> tuple[Stratum, list[Poly]]:
    """Stratum i with its representative nu sign-aligned along stratum j's,
    and the test functions of nu's point stabilizer, as a builder for once.
    nu is a generic representative of stratum i, so its point stabilizer is
    searched inside stratum i's set stabilizer (see point_stabilizer_of)."""
    nu = align_representative(strat.strata[i], strat.strata[j].rep, strat.all_supports())
    h = point_stabilizer(once(strat, set_stabilizer_of, i), nu)
    return (with_representative(strat, strat.strata[i], nu),
            _invariant_test_functions(strat, h))


def verify_associativity(strat: Stratification) -> Ledger:
    """Composition law on aligned chains: inducting in two stages agrees with
    inducting directly once the smallest representative is sign-aligned.
    The first ASSOCIATIVITY_CHAINS chains i <= j <= k in lexicographic order
    are used, the strict ones (i < j < k) before the degenerate ones; a
    stratum's index is below that of every stratum above it.

    The aligned stratum and its test functions depend on the pair (i, j)
    only, and are kept by once (_aligned).  An induction depends only on its
    polynomial, its source representative and its target, so each is
    computed once per call, when a chain first needs it: chains sharing
    (i, j) share the inner inductions, and for j == k the inner induction is
    the direct one."""
    count = len(strat.strata)
    chains = (
        (i, j, k)
        for strict in (True, False)
        for i in range(count)
        for j in range(i, count) if strat.leq(i, j)
        for k in range(j, count) if strat.leq(j, k)
        if (i != j and j != k) == strict
    )
    induced: dict[tuple, Poly] = {}

    def induced_once(f: Poly, mu: Stratum, target: Stratum) -> Poly:
        key = (frozenset(f.terms.items()), mu.rep, target.index)
        if key not in induced:
            induced[key] = induct(strat, f, mu, target)
        return induced[key]

    rows = []
    for chain in itertools.islice(chains, ASSOCIATIVITY_CHAINS):
        i, j, k = chain
        s2, s3 = strat.strata[j], strat.strata[k]
        s1_aligned, funcs = once(strat, _aligned, i, j)
        ok = all(
            induced_once(f, s1_aligned, s3)
            == induced_once(induced_once(f, s1_aligned, s2), s2, s3)
            for f in funcs
        )
        rows.append(AssociativityRow(chain, len(funcs), ok))
    return Ledger(tuple(rows), all(r.ok for r in rows))
