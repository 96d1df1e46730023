"""Exact integer and rational matrix arithmetic.

Everything here works on tuples of tuples so results are hashable and can be
used as canonical dictionary keys (deduplicating flats, group elements).  No
floating point anywhere.  A rational entry is an ``int`` or a
``fractions.Fraction``: the two compare and hash alike by value.  Products
and pairings sum ``map(mul, ...)``, which runs the loop over the entries in
C; they are the inner loops of the strata closure and of the group's action
on weights.  There is one row reduction over Q, ``echelon``: it runs on
sparse rows ``{key: coefficient}``, fraction-free over primitive integer
rows, and divides once per pivot row at the end.  Graded polynomial spans
hand it their term dicts (``polyalg.rref_span``); ``rref`` hands it dense
rows for ``nullspace``.  ``hnf`` is the canonical basis of an integer row
lattice, which names a flat; the strata closure reads each new flat off one
HNF (see ``arrangement.enumerate_strata``).  The Molien determinant
det(I - q m) of an integer matrix stays in ints, and so does its series
inverse (see ``weyl.molien_coefficients``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

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


def quotient(x: int | Fraction, p: int) -> int | Fraction:
    """x / p: the int x // p when p divides x, a Fraction otherwise."""
    q, r = divmod(x, p)
    return Fraction(x, p) if r else q


def primitive(row: Mapping[int, int | Fraction]) -> dict[int, int]:
    """A nonzero sparse row {key: coefficient} cleared to the primitive
    integer row whose leading (largest-key) coefficient is positive: one lcm
    of the denominators, then one division by the signed gcd."""
    d = lcm(*(c.denominator for c in row.values()))
    cleared = {k: c.numerator * (d // c.denominator) for k, c in row.items()}
    g = gcd(*cleared.values())
    if cleared[max(cleared)] < 0:
        g = -g
    return cleared if g == 1 else {k: c // g for k, c in cleared.items()}


def echelon(rows: Iterable[Mapping[int, int | Fraction]],
            floor: int = 0) -> list[tuple[int, dict[int, int | Fraction]]]:
    """Reduced row echelon form over Q of sparse rows {key: nonzero
    coefficient}, a row's pivot being its largest key: the nonzero rows as
    (pivot, row) pairs, pivots descending, each row's keys descending.  Keys
    below floor ride along and are never pivots; a row with no key from
    floor up is dropped.

    Fraction-free (Bareiss, Math. Comp. 22, 1968).  Each row is cleared by
    primitive and dropped when an equal row came before it.  The rest is
    reduced at its leading key by the kept row with that pivot (see
    _eliminate) until that key is no pivot, and kept.  Then each kept row is
    reduced at the smaller pivots it holds, smallest pivot first, so that
    every row it is reduced by is final, and divided once by its pivot, an
    entry becoming an int when the pivot divides it and a Fraction otherwise
    (quotient).  The reduced row echelon form over Q is unique, so the rows
    equal those of elimination over Fractions entry for entry."""
    kept: dict[int, dict[int, int]] = {}
    seen: set[frozenset] = set()
    for row in rows:
        if not row:
            continue
        row = primitive(row)
        key = frozenset(row.items())
        if key in seen:
            continue
        seen.add(key)
        while row and (lead := max(row)) >= floor:
            top = kept.get(lead)
            if top is None:
                kept[lead] = row
                break
            row = _eliminate(row, top, lead)
    pivots = sorted(kept)
    for pivot in pivots:
        row = kept[pivot]
        for m in [m for m in row if m != pivot and m in kept]:
            row = _eliminate(row, kept[m], m)
        kept[pivot] = row
    reduced = []
    for pivot in reversed(pivots):
        row = kept[pivot]
        p = row[pivot]
        reduced.append((pivot, {m: row[m] if p == 1 else quotient(row[m], p)
                                for m in sorted(row, reverse=True)}))
    return reduced


def _eliminate(row: dict[int, int], top: dict[int, int], m: int) -> dict[int, int]:
    """(p * row - a * top) / gcd, with p and a the coefficients of top and
    row at m over their gcd, and gcd the content of the result: a primitive
    integer row without the key m, empty when row was a multiple of top.
    row itself may be updated in place."""
    p, a = top[m], row[m]
    g = gcd(p, a)
    p, a = p // g, a // g
    if p != 1:
        row = {k: p * c for k, c in row.items()}
    for k, c in top.items():
        v = row.get(k, 0) - a * c
        if v:
            row[k] = v
        else:
            del row[k]
    g = gcd(*row.values())
    return {k: c // g for k, c in row.items()} if g > 1 else row


def rref(rows: Iterable[Sequence], ncols: int) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns).
    Pivots are sought in the first ncols columns; later columns ride along.
    The rows go to echelon with column c of an n-wide row as key n - 1 - c,
    so the leftmost column leads, and floor n - ncols.  The ride-along
    entries are unique when the rows are independent in the first ncols
    columns, as in [m | I]; otherwise they come from the earliest rows that
    reach each pivot."""
    mat = list(rows)
    n = len(mat[0]) if mat else ncols
    reduced = echelon(({n - 1 - c: x for c, x in enumerate(row) if x} for row in mat),
                      n - ncols)
    return (tuple(tuple(row.get(k, 0) for k in range(n - 1, -1, -1)) for _, row in reduced),
            tuple(n - 1 - pivot for pivot, _ in reduced))


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
