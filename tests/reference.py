"""Reference computations that only the tests use: values of polynomials and
kernel forms at rational points, generic points that avoid a set of weight
hyperplanes, and the inner product of two polynomials under a symmetric form
computed term by term."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from cohint.errors import InternalCheckError
from cohint.matrices import dot
from cohint.polyalg import apply_linear_map


def evaluate(f, point) -> Fraction:
    """The value of the polynomial f at the point."""
    total = Fraction(0)
    for e, c in f.terms.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= Fraction(x) ** k
        total += v
    return total


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
    image = apply_linear_map(f, b).terms
    return Fraction(sum(
        image[e] * prod(factorial(k) for k in e) * c for e, c in g.terms.items() if e in image
    ))
