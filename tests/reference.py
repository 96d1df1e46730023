"""Reference computations that only the tests use: the transpose and the
integer inverse of a matrix, the saturated integer kernel of a set of forms,
the size of a weight multiset and its slices by the sign of the pairing with
a cocharacter, the dimension counts at a cocharacter from those slices, the
coordinates of a vector in the span of given rows and the matrix of a linear
map restricted to such a span, each from one augmented row reduction, the
whole group as a subgroup of itself, values of polynomials and kernel forms
at rational points, generic points that avoid a set of weight hyperplanes,
the inner product of two polynomials under a symmetric form computed term by
term, sums and multiples of polynomials, products and substitutions over
exponent tuples, row reduction over every monomial of a degree, the
associativity ledger's rows chain by chain, and the Molien sum one element
at a time over Fractions."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

from cohint import integrality
from cohint.arrangement import align_representative, with_representative
from cohint.errors import InternalCheckError
from cohint.lattice import Cocharacter, NumericInvariants, WeightMultiset
from cohint.matrices import (
    IntMatrix,
    QMatrix,
    det_one_minus_q,
    dot,
    hnf,
    identity,
    mat_vec,
    rref,
)
from cohint.polyalg import Poly, monomials_of_degree, pack, substitute, unpack
from cohint.weyl import Subgroup, WeylGroup, point_stabilizer


def full_subgroup(group: WeylGroup) -> Subgroup:
    """The whole group as a subgroup of itself."""
    return Subgroup(group, tuple(range(group.order)))


def transpose(m) -> tuple[tuple, ...]:
    return tuple(zip(*m)) if m else ()


def int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a matrix that is invertible over the integers (det = +/-1),
    read off the reduced row echelon form of [m | I]."""
    n = len(m)
    red, pivots = rref([tuple(row) + e for row, e in zip(m, identity(n))], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    inverse = [row[n:] for row in red]
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("matrix is not invertible over the integers")
    return tuple(tuple(int(x) for x in row) for row in inverse)


def int_kernel(rows, ncols: int) -> IntMatrix:
    """HNF basis of the saturated lattice {x in Z^ncols : row . x = 0 for all rows}."""
    rows = [r for r in rows if any(r)]
    m = len(rows)
    if m == 0:
        return identity(ncols)
    big = [tuple(rows[j][i] for j in range(m)) + tuple(1 if k == i else 0 for k in range(ncols))
           for i in range(ncols)]
    reduced = hnf(big)
    kernel = [row[m:] for row in reduced if all(x == 0 for x in row[:m])]
    return hnf(kernel)


def total(ws: WeightMultiset) -> int:
    """The number of weights in the multiset, with multiplicity."""
    return sum(m for _, m in ws)


def slice_weights(
    ws: WeightMultiset, lam: Cocharacter
) -> tuple[WeightMultiset, WeightMultiset, WeightMultiset]:
    """Partition a weight multiset by the sign of the pairing with lam; each
    part of a sorted, deduplicated multiset is itself one."""
    neg, zero, pos = [], [], []
    for w, m in ws:
        p = dot(lam, w)
        (neg if p < 0 else zero if p == 0 else pos).append((w, m))
    return WeightMultiset(tuple(neg)), WeightMultiset(tuple(zero)), WeightMultiset(tuple(pos))


def numeric_invariants(
    g_weights: WeightMultiset, v_weights: WeightMultiset, lam: Cocharacter
) -> NumericInvariants:
    """Fixed-space dimensions and the shifts d_lambda, r_lambda at a
    cocharacter, from the slices of the two weight multisets.  V is weakly
    symmetric, so it balances at every lam, as g does, and
    d + 2r = dim V - dim g."""
    _, v_zero, v_pos = slice_weights(v_weights, lam)
    _, g_zero, g_pos = slice_weights(g_weights, lam)
    dim_v, dim_g = total(v_zero), total(g_zero)
    return NumericInvariants(dim_v, dim_g, dim_v - dim_g, total(v_pos) - total(g_pos))


def solve_combination(basis_rows, target):
    """Coefficients c with sum(c_i * basis_i) == target, or None.

    Free coefficients (dependent basis rows) are set to zero.
    """
    k = len(basis_rows)
    n = len(target)
    if k == 0:
        return () if all(x == 0 for x in target) else None
    aug = [[basis_rows[i][j] for i in range(k)] + [target[j]] for j in range(n)]
    red, pivots = rref(aug, k + 1)
    if k in pivots:
        return None
    coeffs = [0] * k
    for i, p in enumerate(pivots):
        coeffs[p] = red[i][k]
    return tuple(coeffs)


def restrict_action(m, basis_rows) -> QMatrix:
    """Matrix of v -> m @ v on the subspace spanned by basis_rows.

    Row i holds the coordinates of the image of basis vector i; traces and
    characteristic polynomials of the restriction are read off directly.
    Raises ValueError when the subspace is not m-stable.
    """
    out = []
    for b in basis_rows:
        img = mat_vec(m, b)
        coeffs = solve_combination(basis_rows, img)
        if coeffs is None:
            raise ValueError("subspace is not stable under the given matrix")
        out.append(coeffs)
    return tuple(out)


def evaluate(f, point) -> Fraction:
    """The value of the polynomial f at the point."""
    value = Fraction(0)
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, unpack(e, f.nvars)):
            if k:
                v *= Fraction(x) ** k
        value += v
    return value


def evaluate_kernel(form, point) -> Fraction:
    """The value of the kernel form (a ratio of products of linear forms) at
    the point."""
    value = Fraction(1)
    for a in form.numerator:
        value *= Fraction(dot(a, point))
    for b in form.denominator:
        value /= Fraction(dot(b, point))
    return value


def generic_points(supports, n: int, count: int):
    """Deterministic rational points (1, t, t^2, ...) for t = 2, 3, ...
    avoiding all the given weight hyperplanes.  Each nonzero support vanishes
    at no more than n - 1 values of t, which bounds the search."""
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


def poly_inner(f, g, b) -> Fraction:
    """The inner product f(b.d)g induced from the symmetric form b on linear
    forms: sum_e (f o b)_e * e! * g_e.  On monomials it is the permanent of b
    over the factors of the two monomials; different degrees pair to 0."""
    image = substitute(b, f).terms
    return Fraction(sum(
        image[e] * prod(factorial(k) for k in unpack(e, f.nvars)) * c
        for e, c in g.terms.items() if e in image
    ))


def add(*polys: Poly) -> Poly:
    """The sum of polynomials in the same variables."""
    terms: dict = {}
    for f in polys:
        for m, c in f.terms.items():
            terms[m] = terms.get(m, 0) + c
    return Poly(polys[0].nvars, {m: c for m, c in terms.items() if c})


def scaled(f: Poly, c) -> Poly:
    """c * f."""
    return Poly(f.nvars, {m: c * v for m, v in f.terms.items() if c})


def subtract(f: Poly, g: Poly) -> Poly:
    """f - g."""
    return add(f, scaled(g, -1))


def power(f: Poly, k: int) -> Poly:
    """f^k by repeated squaring, with no square beyond the last one needed."""
    result = Poly.constant(f.nvars, 1)
    while k:
        if k & 1:
            result = result * f
        k >>= 1
        if k:
            f = f * f
    return result


def exponent_terms(f) -> dict:
    """The terms of f keyed by exponent tuples."""
    return {unpack(e, f.nvars): c for e, c in f.terms.items()}


def from_exponent_terms(nvars: int, terms: dict) -> Poly:
    """The polynomial whose terms, keyed by exponent tuples, are given."""
    return Poly(nvars, {pack(e): c for e, c in terms.items()})


def multiply(f, g) -> dict:
    """The terms of f * g keyed by exponent tuples, one term pair at a time:
    each pair adds its exponents entry by entry and multiplies its
    coefficients, and a sum that cancels drops out."""
    out: dict = {}
    for e1, c1 in exponent_terms(f).items():
        for e2, c2 in exponent_terms(g).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def substitute_terms(f, matrix) -> dict:
    """The terms of f with x_i -> sum_j matrix[j][i] x_j, keyed by exponent
    tuples: each term c*x^e is expanded one linear factor at a time with
    multiply, and the expansions are added."""
    n = f.nvars
    columns = [Poly.linear(tuple(matrix[j][i] for j in range(n))) for i in range(n)]
    out: dict = {}
    for e, c in exponent_terms(f).items():
        term = {(0,) * n: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = multiply(from_exponent_terms(n, term), columns[i])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def associativity_rows(strat) -> tuple:
    """The rows of integrality.verify_associativity computed chain by chain:
    every chain aligns its smallest stratum and builds its test functions
    afresh, and every function makes its three inductions, up to the first
    function whose direct and staged inductions differ."""
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
    for chain in itertools.islice(chains, integrality.ASSOCIATIVITY_CHAINS):
        i, j, k = chain
        s1, s2, s3 = strat.strata[i], strat.strata[j], strat.strata[k]
        nu = align_representative(s1, s2.rep, supports)
        s1_aligned = with_representative(strat, s1, nu)
        h = point_stabilizer(full_subgroup(strat.weyl), nu)
        ok = True
        funcs = integrality._invariant_test_functions(strat, h)
        for f in funcs:
            direct = integrality.induct(strat, f, s1_aligned, s3)
            staged = integrality.induct(
                strat, integrality.induct(strat, f, s1_aligned, s2), s2, s3)
            if direct != staged:
                ok = False
                break
        rows.append(integrality.AssociativityRow(chain, len(funcs), ok))
    return tuple(rows)


def rref_all_monomials(vectors, degree: int, nvars: int) -> tuple:
    """The rows, as polynomials, of the reduced row echelon form of the
    homogeneous polynomials over every monomial of the degree, the keys in
    descending order."""
    monomials = sorted((pack(e) for e in monomials_of_degree(nvars, degree)), reverse=True)
    rows, _ = rref([f.coefficient_vector(monomials) for f in vectors], len(monomials))
    return tuple(Poly(nvars, {m: c for m, c in zip(monomials, row) if c}) for row in rows)


def gauss_jordan(rows, ncols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Textbook Gauss-Jordan elimination over Fractions, pivots sought in the
    first ncols columns: (nonzero reduced rows, pivot columns).  Each pivot
    row is divided by its pivot, and its multiples clear the pivot column in
    every other row."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for j, row in enumerate(mat):
            if j != r and row[c]:
                mat[j] = [x - row[c] * y for x, y in zip(row, mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], tuple(pivots)


def series_inverse(d, cutoff: int) -> tuple[Fraction, ...]:
    """Power series coefficients of 1/d(q) through q^cutoff over Fractions;
    needs d[0] != 0."""
    inv = [Fraction(1) / Fraction(d[0])]
    for k in range(1, cutoff + 1):
        s = Fraction(0)
        for j in range(1, min(k, len(d) - 1) + 1):
            s += Fraction(d[j]) * inv[k - j]
        inv.append(-s * inv[0])
    return tuple(inv)


def molien_fractions(elements, cutoff: int) -> tuple[Fraction, ...]:
    """Series coefficients of (1/N) sum_i P_i(q) / det(I - q M_i) through
    q^cutoff, for pairs (M_i, coefficients of P_i), one element at a time:
    each element's det(I - q M_i) is inverted by series_inverse and its
    numerator added in, all over Fractions."""
    total = [Fraction(0)] * (cutoff + 1)
    for matrix, numerator in elements:
        inv = series_inverse(det_one_minus_q(matrix), cutoff)
        for a, s in enumerate(numerator):
            if s:
                for p in range(a, cutoff + 1):
                    total[p] += s * inv[p - a]
    scale = Fraction(1, len(elements))
    return tuple(x * scale for x in total)
