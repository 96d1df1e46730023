"""Independent-library oracles: the exact series and kernel-sum arithmetic is
recomputed with sympy's rational-function machinery, and the integer lattice
kernels are checked against brute-force membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohint import Poly, molien_coefficients, substitute
from cohint import integrality as I
from cohint.matrices import det_one_minus_q, int_kernel, solve_combination
from cohint.polyalg import monomials_of_degree
from cohint.weyl import coset_representatives, point_stabilizer

from conftest import build

sympy = pytest.importorskip("sympy")


def to_sympy(poly, xs):
    return sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.prod([x**k for x, k in zip(xs, e)])
        for e, c in poly.terms.items()
    )


def form_to_sympy(weight, xs):
    return sum(int(a) * x for a, x in zip(weight, xs))


class TestSeriesOracles:
    @pytest.mark.parametrize("key", ["gl2-cotangent", "trivial:sl3", "adjoint:gl3"])
    def test_det_expansion_matches_sympy(self, key):
        _, strat = build(key)
        q = sympy.symbols("q")
        for w in strat.weyl.elements:
            mine = det_one_minus_q(w.matrix)
            m = sympy.Matrix(w.matrix)
            theirs = sympy.Poly(
                (sympy.eye(m.rows) - q * m).det(), q
            ).all_coeffs()[::-1]
            for j, c in enumerate(mine):
                expected = theirs[j] if j < len(theirs) else 0
                assert c == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))

    @pytest.mark.parametrize("key", ["gl2-cotangent", "trivial:sl3"])
    def test_molien_series_matches_sympy(self, key):
        _, strat = build(key)
        q = sympy.symbols("q")
        weyl = strat.weyl
        mine = molien_coefficients([(w.matrix, (1,)) for w in weyl.elements], 8)
        expr = (
            sum(
                1 / (sympy.eye(weyl.rank) - q * sympy.Matrix(w.matrix)).det()
                for w in weyl.elements
            )
            / weyl.order
        )
        series = sympy.series(sympy.together(expr), q, 0, 9).removeO()
        for k, c in enumerate(mine):
            expected = sympy.Rational(sympy.expand(series).coeff(q, k))
            assert c == Fraction(int(sympy.numer(expected)), int(sympy.denom(expected)))


class TestKernelSumOracle:
    def test_induction_matches_rational_functions(self):
        _, strat = build("trivial:sl3")
        dense = strat.strata[0]
        form = I.kernel(strat, dense, strat.top)
        xs = sympy.symbols("x1 x2")
        stab = point_stabilizer(strat.weyl, dense.rep)
        h = strat.weyl.subgroup(
            set(stab.members) & set(strat.point_stabilizers[strat.top_index].members)
        )
        cosets = coset_representatives(h, strat.point_stabilizers[strat.top_index])
        for exps in monomials_of_degree(2, 5)[:3]:
            f = Poly.zero(2)
            for w in h.elements():
                f = f + substitute(w, Poly.monomial(2, exps))
            mine = to_sympy(I.induct(strat, f, dense, strat.top), xs)
            total = 0
            for w in cosets:
                m = w.matrix
                moved = form.transformed(w)
                wf = to_sympy(substitute(w, f), xs)
                num = sympy.prod([form_to_sympy(a, xs) for a in moved.numerator] or [1])
                den = sympy.prod([form_to_sympy(b, xs) for b in moved.denominator] or [1])
                total += wf * num / den
            assert sympy.simplify(sympy.cancel(sympy.together(total)) - mine) == 0


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
