"""Exact sparse multivariate polynomial algebra over Q.

Polynomials are dictionaries from packed monomial keys to nonzero exact
rationals, each an int or a Fraction: the two compare and hash alike by value,
so a coefficient's type never changes an equality, a key or a report.  Kernel
sums run over ints (see kernel_sum).

The key of x1^e1 ... xn^en is deg << B*n | e1 << B*(n-1) | ... | en with
deg = e1 + ... + en, a packed exponent vector (Monagan and Pearce, CASC 2007):
multiplying two monomials adds their keys.  With the degree in the top field,
integer order on keys is the graded lexicographic order with x1 > x2 > ...,
fixed globally so row-echelon bases and their pivots are reproducible.  No
exponent exceeds the degree, so the fields stay apart while the degree is
below 2^B; pack and Poly.__mul__ raise InternalCheckError past that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InternalCheckError
from .lattice import Weight, ray
from .matrices import IntMatrix, QMatrix, echelon, mat_vec, nullspace, quotient
from .weyl import Subgroup

Exponents = tuple[int, ...]
Coefficient = int | Fraction

B = 16
MASK = (1 << B) - 1


def pack(exps: Sequence[int]) -> int:
    """The key of the monomial with these exponents."""
    degree = key = sum(exps)
    for k in exps:
        key = key << B | k
    # a negative exponent leaves a negative key, and one of 2^B or more a
    # degree of 2^B or more
    if key < 0 or degree >> B:
        raise InternalCheckError(f"exponents {tuple(exps)} do not fit {B}-bit fields")
    return key


def unpack(key: int, nvars: int) -> Exponents:
    """The exponents of the monomial in nvars variables with this key."""
    return tuple(key >> B * (nvars - 1 - i) & MASK for i in range(nvars))


def _unit(nvars: int, i: int) -> int:
    """The key of the i-th variable: adding it raises that exponent by one."""
    return 1 << B * nvars | 1 << B * (nvars - 1 - i)


class ExactDivisionError(ArithmeticError):
    """A polynomial was not divisible by the given linear form."""


class Poly:
    """Sparse polynomial with exact rational coefficients, keyed by packed
    monomial keys (see pack)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[int, Coefficient]):
        self.nvars = nvars
        self.terms = terms

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {0: c} if c else {})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponents) -> "Poly":
        return cls(nvars, {pack(exps): 1})

    @classmethod
    def linear(cls, coeffs: Sequence) -> "Poly":
        n = len(coeffs)
        return cls(n, {_unit(n, i): c for i, c in enumerate(coeffs) if c})

    # -- basic queries ------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(self.terms) >> B * self.nvars if self.terms else -1

    def is_homogeneous(self, p: int) -> bool:
        """Whether every term has degree p: the keys of degree p are those
        from p << B*n up to (p + 1) << B*n."""
        shift = B * self.nvars
        return not self.terms or (
            p << shift <= min(self.terms) and max(self.terms) < (p + 1) << shift)

    def coefficient_vector(self, monomials: Sequence[int]) -> tuple[Coefficient, ...]:
        return tuple(self.terms.get(m, 0) for m in monomials)

    # -- arithmetic ---------------------------------------------------
    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[int, Coefficient] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        # The top key of the product, the sum of the two top keys, comes from
        # one term pair and never cancels; its degree field reaches 2^B
        # exactly when a lower field may have carried into its neighbour.
        if acc and max(acc) >> B * (self.nvars + 1):
            raise InternalCheckError(
                f"a product of degrees {self.degree} and {other.degree} overflows"
                f" the {B}-bit exponent fields")
        return Poly(self.nvars, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        # agrees with __eq__; nothing changes a Poly's terms once it is built
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(unpack(e, self.nvars))
                if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


@cache
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
    e of total degree d, in the order of monomials_of_degree(len(forms), d).
    Each power forms[i]^k is built once per call, as forms[i]^(k-1) times
    forms[i], when an exponent first asks for it."""
    powers = [[Poly.linear(u)] for u in forms]
    for exps in monomials_of_degree(len(forms), d):
        mono = None
        for column, k in zip(powers, exps):
            if k:
                while len(column) < k:
                    column.append(column[-1] * column[0])
                mono = column[k - 1] if mono is None else mono * column[k - 1]
        yield Poly.constant(nvars, 1) if mono is None else mono


@cache
def _plan(matrix: QMatrix) -> tuple:
    """How substitution by the matrix rewrites a polynomial in len(matrix)
    variables: (moves, None) when the matrix is an invertible monomial matrix
    (a signed permutation, say, as type-A and sl2 Weyl elements are): column
    i has one nonzero entry a_i, in row j_i, and the j_i are distinct; moves
    are the triples (shift of x_i's exponent field, unit key of x_{j_i},
    a_i).  Otherwise (None, powers), where powers[i] lists the powers image,
    image^2, ... of the image of the i-th coordinate form, so far only the
    first."""
    n = len(matrix)
    columns = [[(j, matrix[j][i]) for j in range(n) if matrix[j][i]] for i in range(n)]
    if all(len(column) == 1 for column in columns) and len({j for [(j, _)] in columns}) == n:
        return [(B * (n - 1 - i), _unit(n, j), a) for i, [(j, a)] in enumerate(columns)], None
    return None, [[Poly.linear(tuple(matrix[j][i] for j in range(n)))] for i in range(n)]


def substitute(matrix: QMatrix, f: Poly) -> Poly:
    """Substitute x_i -> sum_j matrix[j][i] x_j: the action on linear forms
    that sends the i-th coordinate form to the matrix applied to it, as a
    Weyl group element's matrix acts on characters, or as an inner
    product's form does in _dual.  The matrix must be a tuple of tuples, as
    IntMatrix and QMatrix are: its _plan is memoised by it for the whole
    process, so the plans kept are bounded by the number of distinct
    matrices substituted, and there is no size setting.

    With moves, c*x^e goes to c*prod a_i^e_i * prod x_{j_i}^e_i: the
    exponents only move, and the key of the image is the sum over i of e_i
    unit keys of x_{j_i}.  The j_i are distinct, so distinct monomials move
    to distinct monomials and no two terms meet, and the a_i are nonzero, so
    no coefficient vanishes.  With powers, each term is expanded from the
    powers of the images, image^k = image^(k-1) * image, each built once per
    plan: the lists grow as higher powers are needed, and the expanded terms
    are added into one dict, where terms that land on one monomial merge and
    cancel."""
    n = f.nvars
    moves, powers = _plan(matrix)
    if moves is not None:
        terms: dict[int, Coefficient] = {}
        for e, c in f.terms.items():
            moved = 0
            for shift, unit, a in moves:
                k = e >> shift & MASK
                if k:
                    moved += k * unit
                    if a != 1:
                        c *= a ** k
            terms[moved] = c
        return Poly(n, terms)
    acc: dict[int, Coefficient] = {}
    for e, c in f.terms.items():
        term = Poly.constant(n, c)
        for column, k in zip(powers, unpack(e, n)):
            if k:
                while len(column) < k:
                    column.append(column[-1] * column[0])
                term = term * column[k - 1]
        for m, v in term.terms.items():
            acc[m] = acc.get(m, 0) + v
    return Poly(n, {m: v for m, v in acc.items() if v})


def orbit_sum(
    h: Subgroup, f: Poly, character: Mapping[int, Coefficient] | None = None
) -> Poly:
    """sum_w w(f) over the elements w of h, or, given a +/-1 character on h's
    member indices, sum_w character(w) w(f): |h| times the average over h,
    left unscaled since no caller depends on the scale (a span and its
    row-reduced basis do not, nor does an equality of two linear images).
    Every substituted polynomial is added into one dict."""
    acc: dict[int, Coefficient] = {}
    for idx, w in zip(h.members, h.elements()):
        negate = character is not None and character[idx] < 0
        for e, c in substitute(w, f).terms.items():
            acc[e] = acc.get(e, 0) + (-c if negate else c)
    return Poly(f.nvars, {e: c for e, c in acc.items() if c})


def exact_divide(f: Poly, ell: Sequence) -> Poly:
    """Quotient q with q * ell == f; raises ExactDivisionError on a remainder.
    One pass down the degree k in the pivot, ell's first variable with a
    nonzero coefficient p: a term c of degree k gives the quotient term c / p,
    which changes only terms of degree k - 1; what is left at degree 0 is the
    remainder.  c / p is the int c // p when p divides c, so an integer f
    over a primitive integer ell (a ray key) has an integer quotient (Gauss's
    lemma), and a Fraction otherwise; when p is 1, it is c itself."""
    if not any(ell):
        raise InputError("cannot divide by the zero form")
    n = f.nvars
    pivot = next(i for i, c in enumerate(ell) if c)
    p = ell[pivot]
    shift, down = B * (n - 1 - pivot), _unit(n, pivot)
    rest = [(_unit(n, j), c) for j, c in enumerate(ell) if c and j != pivot]
    slices = [{} for _ in range(1 + max((e >> shift & MASK for e in f.terms), default=0))]
    for e, c in f.terms.items():
        slices[e >> shift & MASK][e] = c
    quot: dict[int, Coefficient] = {}
    for k in range(len(slices) - 1, 0, -1):
        below = slices[k - 1]
        for e, c in slices[k].items():
            if c:
                q = e - down
                quot[q] = qc = c if p == 1 else quotient(c, p)
                for unit, cj in rest:
                    m = q + unit
                    below[m] = below.get(m, 0) - qc * cj
    if any(slices[0].values()):
        raise ExactDivisionError(f"not divisible by linear form {tuple(ell)}")
    return Poly(f.nvars, quot)


@dataclass(frozen=True)
class KernelForm:
    """Ratio of products of integer linear forms."""

    numerator: tuple[Weight, ...]
    denominator: tuple[Weight, ...]

    @property
    def degree(self) -> int:
        return len(self.numerator) - len(self.denominator)

    def transformed(self, w: IntMatrix) -> "KernelForm":
        return KernelForm(
            tuple(mat_vec(w, a) for a in self.numerator),
            tuple(mat_vec(w, b) for b in self.denominator),
        )


@dataclass(frozen=True)
class CosetSum:
    """What sum_w w(f * k) over the coset representatives w needs besides f.
    common holds the rays of the least common denominator of the moved
    denominator forms, with multiplicity.  Each term (w, product, m) adds
    w(f) * product * m / (denominator * prod(common)): product is the
    product of w's numerator forms and of the common rays that w's own
    denominator lacks, multiplied out once per CosetSum, and m / denominator
    is the inverse of the scalar of w's denominator."""

    terms: tuple[tuple[IntMatrix, Poly, int], ...]
    denominator: int
    common: tuple[Weight, ...]

    def __len__(self) -> int:
        return len(self.terms)


def coset_sum(k: KernelForm, cosets: Sequence[IntMatrix]) -> CosetSum:
    """The CosetSum of the kernel k over the coset representatives."""
    moved = []
    common: Counter = Counter()
    for w in cosets:
        rays = [ray(mat_vec(w, b)) for b in k.denominator]
        factors = Counter(key for key, _ in rays)
        common |= factors
        moved.append((w, factors, 1 / prod((c for _, c in rays), start=Fraction(1))))
    denominator = lcm(*(inverse.denominator for _, _, inverse in moved))
    terms = tuple(
        (w,
         prod(map(Poly.linear, [*(mat_vec(w, a) for a in k.numerator),
                                *(common - factors).elements()]),
              start=Poly.constant(len(w), 1)),
         inverse.numerator * (denominator // inverse.denominator))
        for w, factors, inverse in moved
    )
    return CosetSum(terms, denominator, tuple(common.elements()))


def kernel_sum(f: Poly, k: KernelForm, cosets: Sequence[IntMatrix] | CosetSum) -> Poly:
    """sum_w w(f * k) over the coset representatives, by clearing the least
    common denominator of the distinct linear forms and dividing each of its
    factors back out exactly.  cosets may be the CosetSum that
    coset_sum(k, cosets) built, so that sums over one kernel share it; each
    coset then costs one substitution and one product, by its CosetSum
    product.

    The sum runs over ints: f's content denominator d is cleared once, so
    with integer Weyl matrices and forms every product and the sum are
    integer polynomials, each division by a primitive ray stays integral,
    and each output coefficient is one Fraction over d * denominator."""
    data = cosets if isinstance(cosets, CosetSum) else coset_sum(k, cosets)
    n = f.nvars
    d = lcm(*(c.denominator for c in f.terms.values()))
    cleared = Poly(n, {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()})
    acc: dict[int, Coefficient] = {}
    for w, product, multiplier in data.terms:
        for e, c in (substitute(w, cleared) * product).terms.items():
            acc[e] = acc.get(e, 0) + multiplier * c
    total = Poly(n, {e: c for e, c in acc.items() if c})
    for key in data.common:
        try:
            total = exact_divide(total, key)
        except ExactDivisionError as exc:
            raise InternalCheckError(
                f"kernel sum is not polynomial: {exc}"
            ) from exc
    scale = d * data.denominator
    return Poly(n, {e: Fraction(c, scale) for e, c in total.terms.items()})


@dataclass(frozen=True)
class GradedBasis:
    """Row-reduced basis of a space of homogeneous polynomials of one degree:
    the rows of its reduced row echelon form over the monomial keys in
    descending order, and their pivots, descending.  Each row has
    coefficient 1 at its pivot, which no other row contains."""

    nvars: int
    degree: int
    rows: tuple[Poly, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def combination(self, coords: Sequence[Coefficient]) -> Poly:
        """sum_i coords[i] * rows[i]."""
        acc: dict[int, Coefficient] = {}
        for c, row in zip(coords, self.rows):
            if c:
                for m, v in row.terms.items():
                    acc[m] = acc.get(m, 0) + c * v
        return Poly(self.nvars, {m: v for m, v in acc.items() if v})

    def coordinates(self, f: Poly):
        """Coordinates of f in this basis, or None when f is outside the span:
        the coordinate on a row is f's coefficient at that row's pivot, and f
        lies in the span when the combination with those coordinates is f."""
        coords = tuple(f.terms.get(m, 0) for m in self.pivots)
        return coords if self.combination(coords) == f else None

    def action(self, matrix: QMatrix) -> QMatrix | None:
        """The matrix of f -> substitute(matrix, f) on this basis: row i holds
        the coordinates of the image of rows[i], so the action of a product
        M_a M_b is action(M_b) times action(M_a).  None when an image leaves
        the span."""
        images = []
        for f in self.rows:
            coords = self.coordinates(substitute(matrix, f))
            if coords is None:
                return None
            images.append(coords)
        return tuple(images)


def rref_span(vectors: Iterable[Poly], degree: int, nvars: int) -> GradedBasis:
    """Row-reduced span of homogeneous polynomials of the given degree: the
    polynomials' own term dicts go to matrices.echelon, so no polynomial
    becomes a dense vector, and a repeated one, such as a repeated orbit
    sum, is dropped there.  The reduced rows come back as Polys with their
    pivot keys."""

    def terms() -> Iterator[dict[int, Coefficient]]:
        for f in vectors:
            if not f.is_homogeneous(degree):
                bad = next(m >> B * nvars for m in f.terms if m >> B * nvars != degree)
                raise InputError(f"expected a homogeneous polynomial of degree {degree}, "
                                 f"got a term of degree {bad}")
            yield f.terms

    reduced = echelon(terms())
    return GradedBasis(nvars, degree, tuple(Poly(nvars, row) for _, row in reduced),
                       tuple(pivot for pivot, _ in reduced))


def invariant_basis(h: Subgroup, p: int, forms: Sequence[Weight]) -> GradedBasis:
    """Basis of the degree-p invariants of H inside Sym^p(span of the forms).
    The work does not depend on the spanning set: the forms are replaced by
    the rows of their span's RREF, each cleared to a primitive integer vector
    (lattice.ray), and the orbit sums of the products of those rows span the
    invariants.  Neither Sym^p of the span nor its unique RREF over Q depends
    on the spanning set, or on the scale of the orbit sums.  The span is
    checked to be H-stable once per call: each w in H must have an action on
    it (GradedBasis.action), since substitute(w, .) sends the linear form
    with coefficients b to the one with coefficients M_w b."""
    nvars = h.parent.rank
    span = rref_span(map(Poly.linear, forms), 1, nvars)
    if any(span.action(w) is None for w in h.elements()):
        raise InputError("span of the forms is not stable under the subgroup")
    units = [_unit(nvars, i) for i in range(nvars)]
    rows = [ray(row.coefficient_vector(units))[0] for row in span.rows]
    vectors = [orbit_sum(h, mono) for mono in power_products(rows, p, nvars)]
    return rref_span(vectors, p, nvars)


def _dual(f: Poly, b: QMatrix) -> dict[int, Coefficient]:
    """The terms d with <f, g>_b = sum_m d_m g_m for every g: d_m = (f o b)_m
    * m!, where f o b = substitute(b, f) and m! = prod_i m_i!."""
    return {m: c * prod(factorial(k) for k in unpack(m, f.nvars))
            for m, c in substitute(b, f).terms.items()}


def orthogonal_complement(sub: GradedBasis, ambient: GradedBasis, b: QMatrix) -> GradedBasis:
    """Complement of sub inside ambient, orthogonal for the inner product
    f(b.d)g that b induces: the span of the combinations of ambient rows that
    every sub row's dual (see _dual) kills."""
    if any(ambient.coordinates(f) is None for f in sub.rows):
        raise InputError("sub basis is not contained in the ambient space")
    if not sub.rows:
        return ambient
    duals = [_dual(f, b) for f in sub.rows]
    pairings = [[sum(d[m] * c for m, c in row.terms.items() if m in d) for row in ambient.rows]
                for d in duals]
    combos = map(ambient.combination, nullspace(pairings, ambient.dim))
    return rref_span(combos, ambient.degree, ambient.nvars)
