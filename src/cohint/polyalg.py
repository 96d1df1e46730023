"""Exact sparse multivariate polynomial algebra over Q.

Polynomials are dictionaries from exponent tuples to nonzero Fractions.  The
monomial order is graded lexicographic with x1 > x2 > ..., fixed globally so
row-echelon bases and their pivots are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .errors import InputError, InternalCheckError
from .lattice import Weight
from .matrices import QMatrix, dot, mat_vec, nullspace, rref, saturate_span, solve_combination
from .weyl import Subgroup, WeylElement

Exponents = tuple[int, ...]


class ExactDivisionError(ArithmeticError):
    """A polynomial was not divisible by the given linear form."""


class Poly:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Fraction]):
        self.nvars = nvars
        self.terms = terms

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        c = Fraction(c)
        return cls(nvars, {} if c == 0 else {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponents) -> "Poly":
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def linear(cls, coeffs: Sequence) -> "Poly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c != 0:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
        return cls(n, terms)

    # -- basic queries ------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, p: int) -> bool:
        return all(sum(e) == p for e in self.terms)

    def coefficient_vector(self, monomials: Sequence[Exponents]) -> tuple[Fraction, ...]:
        return tuple(self.terms.get(m, Fraction(0)) for m in monomials)

    def evaluate(self, point: Sequence) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= Fraction(x) ** k
            total += v
        return total

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, Fraction(0)) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return Poly(self.nvars, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scaled(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, Fraction(0)) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return Poly(self.nvars, acc)

    def __pow__(self, k: int) -> "Poly":
        result = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, p: int) -> tuple[Exponents, ...]:
    """All exponent tuples of total degree p, descending lexicographic."""
    if p < 0:
        return ()
    if nvars == 0:
        return ((),) if p == 0 else ()

    def gen(rest: int, total: int):
        if rest == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for tail in gen(rest - 1, total - first):
                yield (first,) + tail

    return tuple(gen(nvars, p))


def power_products(forms: Sequence[Sequence], d: int, nvars: int) -> Iterator[Poly]:
    """The products prod_i forms[i]^e_i of the linear forms over the exponents
    e of total degree d, in the order of monomials_of_degree(len(forms), d)."""
    linear = [Poly.linear(u) for u in forms]
    for exps in monomials_of_degree(len(forms), d):
        mono = Poly.constant(nvars, 1)
        for form, k in zip(linear, exps):
            if k:
                mono = mono * form ** k
        yield mono


def apply_linear_map(f: Poly, matrix) -> Poly:
    """Substitute x_i -> sum_j matrix[j][i] x_j (the action on linear forms
    that sends the i-th coordinate form to matrix applied to it)."""
    n = f.nvars
    images = [Poly.linear(tuple(matrix[j][i] for j in range(n))) for i in range(n)]
    powers: dict[tuple[int, int], Poly] = {}

    def power(i: int, k: int) -> Poly:
        key = (i, k)
        if key not in powers:
            powers[key] = images[i] ** k
        return powers[key]

    total = Poly.zero(n)
    for e, c in f.terms.items():
        term = Poly.constant(n, c)
        for i, k in enumerate(e):
            if k:
                term = term * power(i, k)
        total = total + term
    return total


def substitute(w: WeylElement, f: Poly) -> Poly:
    """Linear change of variables by the character action of w."""
    return apply_linear_map(f, w.matrix)


def average_over(h: Subgroup, f: Poly) -> Poly:
    total = Poly.zero(f.nvars)
    for w in h.elements():
        total = total + substitute(w, f)
    return total.scaled(Fraction(1, h.order))


def exact_divide(f: Poly, ell: Sequence) -> Poly:
    """Quotient q with q * ell == f; raises ExactDivisionError on a remainder."""
    coeffs = [Fraction(c) for c in ell]
    if all(c == 0 for c in coeffs):
        raise InputError("cannot divide by the zero form")
    pivot = next(i for i, c in enumerate(coeffs) if c != 0)
    num = dict(f.terms)
    quot: dict[Exponents, Fraction] = {}
    while num:
        lead = max(num, key=lambda t: (sum(t), t))
        if lead[pivot] == 0:
            raise ExactDivisionError(f"not divisible by linear form {tuple(ell)}")
        c = num[lead]
        qexp = tuple(k - (1 if i == pivot else 0) for i, k in enumerate(lead))
        qc = c / coeffs[pivot]
        quot[qexp] = qc
        for j, cj in enumerate(coeffs):
            if cj == 0:
                continue
            e = tuple(k + (1 if i == j else 0) for i, k in enumerate(qexp))
            s = num.get(e, Fraction(0)) - qc * cj
            if s:
                num[e] = s
            else:
                num.pop(e, None)
    return Poly(f.nvars, quot)


@dataclass(frozen=True)
class KernelForm:
    """Ratio of products of integer linear forms."""

    numerator: tuple[Weight, ...]
    denominator: tuple[Weight, ...]

    @property
    def degree(self) -> int:
        return len(self.numerator) - len(self.denominator)

    def evaluate(self, point: Sequence) -> Fraction:
        value = Fraction(1)
        for a in self.numerator:
            value *= Fraction(sum(x * y for x, y in zip(a, point)))
        for b in self.denominator:
            value /= Fraction(sum(x * y for x, y in zip(b, point)))
        return value

    def transformed(self, w: WeylElement) -> "KernelForm":
        return KernelForm(
            tuple(mat_vec(w.matrix, a) for a in self.numerator),
            tuple(mat_vec(w.matrix, b) for b in self.denominator),
        )


def _normalised(form: Sequence) -> tuple[tuple[int, ...], Fraction]:
    """(key, c) with form == c * key, where key is the primitive integer vector
    with positive first nonzero entry, so forms equal up to a nonzero multiple
    share one key."""
    coeffs = [Fraction(x) for x in form]
    lead = next((x for x in coeffs if x), None)
    if lead is None:
        raise InputError("cannot divide by the zero form")
    c = Fraction(gcd(*(x.numerator for x in coeffs)), lcm(*(x.denominator for x in coeffs)))
    if lead < 0:
        c = -c
    return tuple(int(x / c) for x in coeffs), c


def kernel_sum(f: Poly, k: KernelForm, cosets: Sequence[WeylElement]) -> Poly:
    """sum_w w(f * k) over the coset representatives, by clearing the least
    common denominator of the distinct linear forms and dividing each of its
    factors back out exactly."""
    n = f.nvars
    terms = []
    common: Counter = Counter()
    for w in cosets:
        term = substitute(w, f)
        for a in k.numerator:
            term = term * Poly.linear(mat_vec(w.matrix, a))
        factors: Counter = Counter()
        scale = Fraction(1)
        for b in k.denominator:
            key, c = _normalised(mat_vec(w.matrix, b))
            factors[key] += 1
            scale *= c
        common |= factors
        terms.append((term, factors, scale))
    total = Poly.zero(n)
    for term, factors, scale in terms:
        for key in (common - factors).elements():
            term = term * Poly.linear(key)
        total = total + term.scaled(1 / scale)
    for key in common.elements():
        try:
            total = exact_divide(total, key)
        except ExactDivisionError as exc:
            raise InternalCheckError(
                f"kernel sum is not polynomial: {exc}"
            ) from exc
    return total


@dataclass(frozen=True)
class GradedBasis:
    """Row-reduced basis of a space of homogeneous polynomials of one degree."""

    nvars: int
    degree: int
    monomials: tuple[Exponents, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def polys(self) -> tuple[Poly, ...]:
        return tuple(
            Poly(self.nvars, {m: c for m, c in zip(self.monomials, row) if c})
            for row in self.rows
        )

    def coordinates(self, f: Poly):
        """Coordinates of f in this basis, or None when f is outside the span."""
        monomials = set(self.monomials)
        if any(c for m, c in f.terms.items() if m not in monomials):
            return None
        vec = list(f.coefficient_vector(self.monomials))
        coords = [Fraction(0)] * len(self.rows)
        for i, p in enumerate(self.pivots):
            c = vec[p]
            if c:
                coords[i] = c
                for j, r in enumerate(self.rows[i]):
                    vec[j] -= c * r
        if any(vec):
            return None
        return tuple(coords)


def rref_span(vectors: Iterable[Poly], degree: int, nvars: int) -> GradedBasis:
    """Row-reduced span of homogeneous polynomials of the given degree."""
    monos = monomials_of_degree(nvars, degree)
    rows = []
    for f in vectors:
        if f.is_zero():
            continue
        if not f.is_homogeneous(degree):
            raise InputError(
                f"expected a homogeneous polynomial of degree {degree}, got degree {f.degree}"
            )
        rows.append(f.coefficient_vector(monos))
    reduced, pivots = rref(rows, len(monos))
    return GradedBasis(nvars, degree, monos, reduced, pivots)


def invariant_basis(h: Subgroup, p: int, forms: Sequence[Weight]) -> GradedBasis:
    """Basis of the degree-p invariants of H inside Sym^p(span of the forms)."""
    nvars = h.parent.rank
    basis = saturate_span([tuple(u) for u in forms], nvars)
    for w in h.elements():
        for b in basis:
            if solve_combination(basis, mat_vec(w.matrix, b)) is None:
                raise InputError("span of the forms is not stable under the subgroup")
    vectors = [average_over(h, mono) for mono in power_products(basis, p, nvars)]
    return rref_span(vectors, p, nvars)


def _dual(f: Poly, b: QMatrix, monomials: Sequence[Exponents]) -> tuple[Fraction, ...]:
    """The vector d over the monomials with <f, g>_b = sum_m d_m g_m for every
    g spanned by them: d_m = (f o b)_m * m!, where f o b = apply_linear_map(f, b)
    and m! = prod_i m_i!."""
    image = apply_linear_map(f, b).terms
    return tuple(
        image[m] * prod(factorial(k) for k in m) if m in image else Fraction(0)
        for m in monomials
    )


def poly_inner(f: Poly, g: Poly, b: QMatrix) -> Fraction:
    """The inner product f(b.d)g induced from the symmetric form b on linear
    forms: sum_e (f o b)_e * e! * g_e.  On monomials it is the permanent of b
    over the factors of the two monomials; different degrees pair to 0."""
    monomials = tuple(g.terms)
    return Fraction(dot(_dual(f, b, monomials), g.coefficient_vector(monomials)))


def orthogonal_complement(sub: GradedBasis, ambient: GradedBasis, b: QMatrix) -> GradedBasis:
    """Complement of sub inside ambient, orthogonal for poly_inner under b:
    the combinations of ambient rows that every sub row's dual vector kills."""
    sub_polys = sub.polys()
    if any(ambient.coordinates(f) is None for f in sub_polys):
        raise InputError("sub basis is not contained in the ambient space")
    if not sub_polys:
        return ambient
    duals = [_dual(f, b, ambient.monomials) for f in sub_polys]
    coeffs = nullspace([[dot(d, row) for row in ambient.rows] for d in duals], ambient.dim)
    combos = [[dot(c, column) for column in zip(*ambient.rows)] for c in coeffs]
    rows, pivots = rref(combos, len(ambient.monomials))
    return GradedBasis(ambient.nvars, ambient.degree, ambient.monomials, rows, pivots)
