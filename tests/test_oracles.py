"""Independent-library oracles: the exact series and kernel-sum arithmetic is
recomputed with sympy's rational-function machinery, and the integer lattice
kernels are checked against brute-force membership."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohint import (
    KernelForm,
    Poly,
    enumerate_group,
    kernel_sum,
    molien_coefficients,
    once,
    point_stabilizer_of,
    substitute,
)
from cohint import integrality as I
from cohint.matrices import det_one_minus_q
from cohint.polyalg import coset_sum, invariant_basis, monomials_of_degree, orbit_sum, unpack
from cohint.weyl import coset_representatives, point_stabilizer

from conftest import build, is_monomial_matrix
from reference import add, full_subgroup, int_kernel, power, scaled, solve_combination

sympy = pytest.importorskip("sympy")


def to_sympy(poly, xs):
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.prod([x**k for x, k in zip(xs, unpack(e, poly.nvars))])
        for e, c in poly.terms.items()
    )


def form_to_sympy(weight, xs):
    return sum(int(a) * x for a, x in zip(weight, xs))


entries = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3, max_denominator=5))
square_matrices = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(entries, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n).map(tuple))


class TestSeriesOracles:
    @pytest.mark.parametrize("key", ["gl2-cotangent", "trivial:sl3", "adjoint:gl3"])
    def test_det_expansion_matches_sympy(self, key):
        _, strat = build(key)
        q = sympy.symbols("q")
        for w in strat.weyl.elements:
            mine = det_one_minus_q(w)
            m = sympy.Matrix(w)
            theirs = sympy.Poly(
                (sympy.eye(m.rows) - q * m).det(), q
            ).all_coeffs()[::-1]
            for j, c in enumerate(mine):
                expected = theirs[j] if j < len(theirs) else 0
                assert c == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))

    @settings(max_examples=150, deadline=None)
    @given(square_matrices)
    @example(())
    @example(((0, 0), (0, 0)))
    @example(((1, 2), (2, 4)))
    @example(((1, 1), (0, 1)))
    @example(((2, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1)))
    @example(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
    def test_det_expansion_of_any_matrix(self, m):
        # singular (a zero row, proportional rows, a nilpotent shift) and
        # infinite-order (a shear, a diagonal scaling) matrices among them
        q = sympy.symbols("q")
        n = len(m)
        mat = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                  for row in m for x in row])
        theirs = sympy.Poly((sympy.eye(n) - q * mat).det(), q).all_coeffs()[::-1]
        theirs += [0] * (n + 1 - len(theirs))
        assert det_one_minus_q(m) == tuple(
            Fraction(int(sympy.numer(c)), int(sympy.denom(c))) for c in theirs)

    @pytest.mark.parametrize("key", ["gl2-cotangent", "trivial:sl3"])
    def test_molien_series_matches_sympy(self, key):
        _, strat = build(key)
        q = sympy.symbols("q")
        weyl = strat.weyl
        mine = molien_coefficients([(w, (1,)) for w in weyl.elements], 8)
        expr = (
            sum(
                1 / (sympy.eye(weyl.rank) - q * sympy.Matrix(w)).det()
                for w in weyl.elements
            )
            / weyl.order
        )
        series = sympy.series(sympy.together(expr), q, 0, 9).removeO()
        for k, c in enumerate(mine):
            expected = sympy.Rational(sympy.expand(series).coeff(q, k))
            assert c == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))


def sympy_kernel_sum(f, form, cosets, xs):
    """sum_w w(f * k) over the cosets as one cancelled sympy rational function."""
    total = 0
    for w in cosets:
        moved = form.transformed(w)
        num = sympy.prod([form_to_sympy(a, xs) for a in moved.numerator] or [1])
        den = sympy.prod([form_to_sympy(b, xs) for b in moved.denominator] or [1])
        total += to_sympy(substitute(w, f), xs) * num / den
    return sympy.cancel(sympy.together(total))


def induction_data(strat, source, target):
    """The source stabilizer inside the target's and its coset representatives."""
    stab = point_stabilizer(full_subgroup(strat.weyl), source.rep)
    w_target = once(strat, point_stabilizer_of, target.index)
    h = strat.weyl.subgroup(set(stab.members) & set(w_target.members))
    return h, coset_representatives(h, w_target)


class TestKernelSumOracle:
    def test_induction_matches_rational_functions(self):
        _, strat = build("trivial:sl3")
        dense = strat.strata[0]
        form = I.kernel(strat, dense, strat.top)
        xs = sympy.symbols("x1 x2")
        h, cosets = induction_data(strat, dense, strat.top)
        for exps in monomials_of_degree(2, 5)[:3]:
            f = add(*(substitute(w, Poly.monomial(2, exps)) for w in h.elements()))
            mine = to_sympy(I.induct(strat, f, dense, strat.top), xs)
            total = sympy_kernel_sum(f, form, cosets, xs)
            assert sympy.simplify(total - mine) == 0

    def test_adjoint_sl3_takes_the_expanded_substitution(self):
        # sl3's Weyl group acts on its rank-2 lattice by matrices that are not
        # monomial, so these sums go through the expanded substitution path
        _, strat = build("adjoint:sl3")
        xs = sympy.symbols("x1 x2")
        checked = 0
        for s in strat.strata:
            if s.index == strat.top.index:
                continue
            h, cosets = induction_data(strat, s, strat.top)
            form = I.kernel(strat, s, strat.top)
            if not any(not is_monomial_matrix(w) for w in cosets):
                continue
            for f in invariant_basis(h, 2, strat.u_bases[strat.top.index]).rows:
                mine = to_sympy(I.induct(strat, f, s, strat.top), xs)
                assert sympy.expand(sympy_kernel_sum(f, form, cosets, xs) - mine) == 0
                checked += 1
        assert checked

    def test_non_integral_coefficients(self):
        # f's coefficients have the denominators 3, 5 and |H|: kernel_sum
        # clears their least common multiple once and divides it back out
        _, strat = build("gl2-cotangent:2")
        xs = sympy.symbols("x1 x2")
        for s in strat.strata:
            if s.index == strat.top.index:
                continue
            h, cosets = induction_data(strat, s, strat.top)
            form = I.kernel(strat, s, strat.top)
            f = add(scaled(orbit_sum(h, Poly.monomial(2, (2, 1))), Fraction(2, 3 * h.order)),
                    scaled(orbit_sum(h, Poly.monomial(2, (0, 1))), Fraction(-1, 5 * h.order)))
            assert any(Fraction(c).denominator != 1 for c in f.terms.values())
            mine = to_sympy(I.induct(strat, f, s, strat.top), xs)
            assert sympy.expand(sympy_kernel_sum(f, form, cosets, xs) - mine) == 0

    def test_ray_scalars_differ_across_cosets(self):
        # the rays of w(2, -2, 0) and w(3, 0, -3) carry the scalars +-2 and +-3,
        # so the cosets' denominators are 6 or -6: the terms go over the
        # common denominator 6 with multipliers of both signs
        s3 = enumerate_group((((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                              ((1, 0, 0), (0, 0, 1), (0, 1, 0))), 3)
        k = KernelForm(((1, 0, 0), (0, 1, 0)), ((2, -2, 0), (3, 0, -3)))
        data = coset_sum(k, s3.elements)
        assert data.denominator == 6
        assert {m for *_, m in data.terms} == {1, -1}
        xs = sympy.symbols("x1 x2 x3")
        for f in (power(Poly.linear((1, 2, 0)), 2),
                  Poly.linear((Fraction(1, 2), 0, -3)) * Poly.linear((1, 1, 1))):
            mine = to_sympy(kernel_sum(f, k, s3.elements), xs)
            assert sympy.expand(sympy_kernel_sum(f, k, s3.elements, xs) - mine) == 0


int_rows = st.lists(
    st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3
)


class TestIntegerKernelOracle:
    @settings(max_examples=60, deadline=None)
    @given(int_rows)
    def test_kernel_vectors_annihilate_and_saturate(self, rows):
        kernel = int_kernel(rows, 3)
        for k in kernel:
            assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in rows)
        # brute force: every small integer solution is an integer combination
        for x1 in range(-2, 3):
            for x2 in range(-2, 3):
                for x3 in range(-2, 3):
                    v = (x1, x2, x3)
                    if any(sum(a * b for a, b in zip(row, v)) for row in rows):
                        continue
                    coeffs = solve_combination(kernel, v)
                    assert coeffs is not None
                    assert all(c.denominator == 1 for c in coeffs)
