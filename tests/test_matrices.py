"""Row reduction over Q: rref against sympy's and against a Gauss-Jordan
elimination over Fractions, echelon's sparse rows, ride-along keys and
clearing, the narrow pivot range that int_inverse uses, int-or-Fraction
entries, and the nullspace and reference.solve_combination round trips built
on rref."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohint.matrices import echelon, identity, mat_mul, nullspace, primitive, rref

from reference import gauss_jordan, int_inverse, solve_combination

try:
    import sympy
except ImportError:  # the sympy oracle is optional
    sympy = None

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, max_rows=6, max_width=5):
    """(rows, width): random rational rows with zero rows and repeated or
    scaled copies of earlier rows mixed in; entries are ints or Fractions."""
    width = draw(st.integers(0, max_width))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["random", "zero", "copy"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "copy" and rows:
            scale = draw(rationals.filter(bool))
            rows.append([scale * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(rationals, min_size=width, max_size=width)))
    rows = [[int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in row]
            for row in rows]
    return rows, width


def sympy_rref(rows, width):
    """sympy's nonzero reduced rows (as Fractions) and pivot columns."""
    if not rows or not width:
        return [], ()
    matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in rows])
    reduced, pivots = matrix.rref()
    return [[Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
            for i in range(len(pivots))], tuple(pivots)


def rank(rows):
    return len(rref(rows, len(rows[0]) if rows else 0)[1])


def assert_int_exactly_when_integral(reduced):
    for row in reduced:
        for x in row:
            assert type(x) in (int, Fraction)
            assert (type(x) is int) == (Fraction(x).denominator == 1), x


class TestRref:
    @pytest.mark.skipif(sympy is None, reason="sympy is not installed")
    @given(matrices())
    @settings(max_examples=120, deadline=None)
    def test_matches_sympy(self, data):
        rows, width = data
        reduced, pivots = rref(rows, width)
        expected, expected_pivots = sympy_rref(rows, width)
        assert pivots == expected_pivots
        assert [list(row) for row in reduced] == expected

    @given(matrices())
    @settings(max_examples=120, deadline=None)
    def test_matches_gauss_jordan(self, data):
        rows, width = data
        reduced, pivots = rref(rows, width)
        expected, expected_pivots = gauss_jordan(rows, width)
        assert pivots == expected_pivots
        assert [list(row) for row in reduced] == expected

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_entries_are_ints_exactly_when_integral(self, data):
        rows, width = data
        assert_int_exactly_when_integral(rref(rows, width)[0])

    def test_zero_duplicate_and_empty_rows(self):
        rows = [[0, 0, 0], [2, 4, 6], [0, 0, 0], [1, 2, 3], [Fraction(1, 3), 1, 0]]
        assert rref(rows, 3) == (((1, 0, 9), (0, 1, -3)), (0, 1))
        assert rref([[0, 0], [0, 0]], 2) == ((), ())
        assert rref([], 3) == ((), ())
        assert rref([(), ()], 0) == ((), ())

    def test_pivots_are_divided_out(self):
        reduced, pivots = rref([[2, 3], [4, 7]], 2)
        assert (reduced, pivots) == (((1, 0), (0, 1)), (0, 1))
        reduced, _ = rref([[3, 1, 2]], 3)
        assert reduced == ((1, Fraction(1, 3), Fraction(2, 3)),)
        assert_int_exactly_when_integral(reduced)

    def test_rows_of_fractions_are_cleared(self):
        reduced, pivots = rref([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 1]], 2)
        assert (reduced, pivots) == (((1, 0), (0, 1)), (0, 1))


class TestEchelon:
    def test_sparse_rows_by_largest_key(self):
        rows = [{9: 2, 4: 3}, {4: Fraction(1, 2), 0: 1}, {9: -4, 4: -6}, {}]
        assert echelon(rows) == [(9, {9: 1, 0: -3}), (4, {4: 1, 0: 2})]
        assert echelon([]) == []

    def test_keys_below_floor_ride_along(self):
        rows = [{5: 2, 1: 3}, {5: 4, 1: 6, 0: 1}, {0: 7}]
        assert echelon(rows, floor=1) == [(5, {5: 1, 1: Fraction(3, 2)})]
        assert echelon(rows, floor=6) == []

    def test_primitive_has_a_positive_leading_coefficient(self):
        assert primitive({3: Fraction(-1, 2), 1: Fraction(1, 3)}) == {3: 3, 1: -2}
        assert primitive({2: 4, 7: -6}) == {2: -2, 7: 3}
        assert primitive({0: Fraction(5, 7)}) == {0: 1}
        assert all(type(c) is int for c in primitive({1: Fraction(2, 3), 0: 4}).values())


class TestNarrowPivotRange:
    """int_inverse reduces [m | I] with ncols = n: pivots fall only in the
    first ncols columns, and the columns past them ride along."""

    def test_pivots_stop_at_ncols(self):
        reduced, pivots = rref([[1, 2, 1, 0], [2, 4, 0, 1]], 2)
        assert pivots == (0,)
        assert reduced == ((1, 2, 1, 0),)

    def test_a_zero_left_block_has_no_pivot(self):
        assert rref([[0, 0, 1], [0, 0, 2]], 2) == ((), ())

    def test_columns_past_ncols_carry_the_inverse(self):
        m = ((2, 1), (1, 1))
        reduced, pivots = rref([row + e for row, e in zip(m, identity(2))], 2)
        assert pivots == (0, 1)
        assert tuple(row[2:] for row in reduced) == ((1, -1), (-1, 2))

    @given(matrices(max_width=6), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_left_block_is_the_rref_of_the_left_columns(self, data, ncols):
        rows, width = data
        ncols = min(ncols, width)
        reduced, pivots = rref(rows, ncols)
        left, left_pivots = rref([row[:ncols] for row in rows], ncols)
        assert pivots == left_pivots
        assert all(p < ncols for p in pivots)
        assert tuple(row[:ncols] for row in reduced) == left
        # every reduced row is a combination of the input rows
        if reduced:
            assert rank(list(rows) + list(reduced)) == rank(rows)
        assert_int_exactly_when_integral(reduced)

    @pytest.mark.parametrize("m", [((1, 0), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (-1, 0)),
                                   ((1, 2, 0), (0, 1, 3), (0, 0, -1))])
    def test_int_inverse(self, m):
        inverse = int_inverse(m)
        assert mat_mul(m, inverse) == identity(len(m))
        assert all(type(x) is int for row in inverse for x in row)

    def test_int_inverse_rejects_singular_and_non_unimodular(self):
        with pytest.raises(ValueError, match="singular"):
            int_inverse(((1, 2), (2, 4)))
        with pytest.raises(ValueError, match="over the integers"):
            int_inverse(((2, 0), (0, 1)))


class TestRoundTrips:
    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_nullspace(self, data):
        rows, width = data
        basis = nullspace(rows, width)
        assert len(basis) == width - rank(rows)
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        if basis:
            assert rank(list(basis)) == len(basis)

    @given(matrices(), st.lists(rationals, min_size=6, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_solve_combination_of_a_combination(self, data, coefficients):
        rows, width = data
        target = [sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(width)]
        solution = solve_combination(rows, target)
        assert solution is not None
        assert [sum(c * row[j] for c, row in zip(solution, rows)) for j in range(width)] == target

    @given(matrices(), st.lists(rationals, min_size=5, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_solve_combination_outside_the_span(self, data, target):
        rows, width = data
        target = target[:width]
        inside = rank(list(rows) + [target]) == rank(rows) if rows else not any(target)
        assert (solve_combination(rows, target) is not None) == inside

    def test_free_coefficients_are_zero(self):
        assert solve_combination([[1, 0], [2, 0], [0, 1]], [3, 4]) == (3, 0, 4)
        assert solve_combination([[1, 0]], [0, 1]) is None
        assert solve_combination([], [0, 0]) == ()
        assert solve_combination([], [0, 1]) is None
