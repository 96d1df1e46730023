"""Exact integer and rational matrix arithmetic.

Everything here works on tuples of tuples so results are hashable and can be
used as canonical dictionary keys (deduplicating flats, group elements).  No
floating point anywhere.  A rational entry is an ``int`` or a
``fractions.Fraction``: the two compare and hash alike by value.  Products
and pairings sum ``map(mul, ...)``, which runs the loop over the entries in
C; they are the inner loops of the strata closure and of the group's action
on weights.  Row reduction runs over primitive integer rows and divides once
per pivot row at the end (see ``rref``).  ``hnf`` is the canonical basis of
an integer row lattice, which names a flat; the strata closure reads each new
flat off one HNF (see ``arrangement.enumerate_strata``).  ``rref`` serves
``nullspace``; graded polynomial spans are reduced on their own terms (see
``polyalg.rref_span``).  The Molien determinant det(I - q m) of an integer
matrix stays in ints, and so does its series inverse (see
``weyl.molien_coefficients``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

IntMatrix = tuple[tuple[int, ...], ...]
QMatrix = tuple[tuple[int | Fraction, ...], ...]
IntVector = tuple[int, ...]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple[tuple, ...]:
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    """Column-vector action ``m @ v``."""
    return tuple(sum(map(mul, row, v)) for row in m)


def dot(u: Sequence, v: Sequence) -> int | Fraction:
    return sum(map(mul, u, v))


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries; a zero row (gcd 0) is kept."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def quotient(x: int | Fraction, p: int) -> int | Fraction:
    """x / p: the int x // p when p divides x, a Fraction otherwise."""
    q, r = divmod(x, p)
    return Fraction(x, p) if r else q


def rref(rows: Iterable[Sequence], ncols: int) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns).
    Pivots are sought in the first ncols columns; later columns ride along.

    Fraction-free: each row is cleared to integers with one lcm of its
    denominators.  Eliminating column c with pivot p in row r takes
    row_i <- p * row_i - a * row_r, a = row_i[c], and divides the new row by
    the gcd of its entries, so every row stays a primitive integer row.  Each
    pivot row is divided by its pivot once at the end, an entry becoming an
    int when p divides it and a Fraction otherwise.  The reduced row echelon
    form over Q is unique, so the rows equal those of elimination over
    Fractions entry for entry."""
    mat = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        mat.append(_primitive([x.numerator * (d // x.denominator) for x in row]))
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[c]
        for i, row in enumerate(mat):
            a = row[c]
            if a and i != r:
                mat[i] = _primitive([p * x - a * y for x, y in zip(row, top)])
        pivots.append(c)
        r += 1
    reduced = tuple(
        tuple(quotient(x, row[c]) for x in row) for row, c in zip(mat, pivots)
    )
    return reduced, tuple(pivots)


def nullspace(rows: Iterable[Sequence], ncols: int) -> QMatrix:
    """Deterministic basis of {v : row . v = 0 for every row}."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def hnf(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Canonical row Hermite normal form (positive pivots, reduced above)."""
    mat = [list(map(int, row)) for row in rows if any(row)]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(mat[i][c]), i))
            mat[r], mat[i0] = mat[i0], mat[r]
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        done = False
            if done:
                break
        if mat[r][c] == 0:
            continue
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r] if any(row))


def det_one_minus_q(m: Sequence[Sequence]) -> tuple[int | Fraction, ...]:
    """Coefficients d[0..n] of det(I - q m) = sum d[k] q^k, by Faddeev-LeVerrier
    in increasing powers of q: d[0] = 1 and, with A_1 = m,
    d[k] = -tr(A_k) / k and A_{k+1} = m (A_k + d[k] I).  Each d[k] is a
    quotient (see quotient), so an integer m, a Weyl element, keeps every
    A_k and d[k] an int: its characteristic polynomial has integer
    coefficients."""
    n = len(m)
    d = [1]
    a = m
    for k in range(1, n + 1):
        d.append(quotient(-sum(a[i][i] for i in range(n)), k))
        if k < n:
            a = mat_mul(m, [[x + d[k] if i == j else x for j, x in enumerate(row)]
                            for i, row in enumerate(a)])
    return tuple(d)
