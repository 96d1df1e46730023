from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohint import (
    InputError,
    InternalCheckError,
    KernelForm,
    Poly,
    enumerate_group,
    exact_divide,
    invariant_basis,
    kernel_sum,
    orthogonal_complement,
    polyalg,
    rref_span,
    substitute,
)
from cohint.matrices import dot, mat_vec
from cohint.polyalg import ExactDivisionError, average_over, monomials_of_degree, poly_inner
from cohint.weyl import averaged_form

from conftest import build

SWAP = ((0, 1), (1, 0))
S2 = enumerate_group((SWAP,), 2)
SIGN1 = enumerate_group((((-1,),),), 1)
IDENTITY_FORM = tuple(
    tuple(Fraction(1) if i == j else Fraction(0) for j in range(2)) for i in range(2)
)


def x(i, n=2):
    return Poly.linear(tuple(1 if j == i else 0 for j in range(n)))


def swap_element():
    return next(w for w in S2.elements if w.matrix == SWAP)


small_polys = st.builds(
    lambda terms: Poly(2, {e: Fraction(c) for e, c in terms.items() if c}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5),
        max_size=4,
    ),
)


class TestPolyBasics:
    def test_zero_and_degree(self):
        assert Poly.zero(2).is_zero()
        assert Poly.zero(2).degree == -1
        assert (x(0) ** 3).degree == 3

    def test_arithmetic(self):
        f = x(0) + x(1)
        g = x(0) - x(1)
        assert f * g == x(0) ** 2 - x(1) ** 2
        assert f - f == Poly.zero(2)

    def test_evaluate(self):
        f = x(0) ** 2 + x(1).scaled(3)
        assert f.evaluate((2, 5)) == 19

    def test_monomials_order(self):
        assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
        assert monomials_of_degree(0, 0) == ((),)
        assert monomials_of_degree(0, 2) == ()


class TestSubstitute:
    def test_identity(self):
        e = S2.elements[S2.identity_index]
        f = x(0) ** 2 + x(1)
        assert substitute(e, f) == f

    def test_swap(self):
        f = x(0) ** 2 + x(1)
        assert substitute(swap_element(), f) == x(1) ** 2 + x(0)

    def test_sign_flip(self):
        w = next(w for w in SIGN1.elements if w.matrix == ((-1,),))
        f = Poly.linear((1,)) ** 3
        assert substitute(w, f) == -Poly.linear((1,)) ** 3

    @settings(max_examples=40, deadline=None)
    @given(small_polys, small_polys)
    def test_respects_products(self, f, g):
        w = swap_element()
        assert substitute(w, f * g) == substitute(w, f) * substitute(w, g)


class TestExactDivide:
    def test_difference_of_squares(self):
        f = x(0) ** 2 - x(1) ** 2
        assert exact_divide(f, (1, -1)) == x(0) + x(1)

    def test_not_divisible(self):
        with pytest.raises(ExactDivisionError):
            exact_divide(x(0), (0, 1))

    def test_mixed_terms(self):
        f = (x(0) * x(1)).scaled(2) + x(1) ** 2
        assert exact_divide(f, (0, 1)) == x(0).scaled(2) + x(1)

    def test_zero_form_rejected(self):
        with pytest.raises(InputError):
            exact_divide(x(0), (0, 0))

    @settings(max_examples=40, deadline=None)
    @given(small_polys, st.sampled_from([(1, 0), (1, -1), (2, 3), (0, 1)]))
    def test_roundtrip(self, q, ell):
        product = q * Poly.linear(ell)
        assert exact_divide(product, ell) == q


class TestKernelSum:
    def test_surjection_generator(self):
        k = KernelForm(((1, 0),), ((1, -1),))
        assert kernel_sum(x(0), k, S2.elements) == x(0) + x(1)

    def test_product_is_reached(self):
        # the twisted sum acts as the identity on x1*x2, so the product of the
        # variables is in the image (with scalar input giving scalar output)
        k = KernelForm(((1, 0),), ((1, -1),))
        f = x(0) * x(1)
        assert kernel_sum(f, k, S2.elements) == f
        assert kernel_sum(f.scaled(Fraction(1, 2)), k, S2.elements) == f.scaled(Fraction(1, 2))

    def test_rank1_cancellation(self):
        k = KernelForm((), ((-2,),))
        f = Poly.constant(1, 1)
        assert kernel_sum(f, k, SIGN1.elements) == Poly.zero(1)

    def test_divisibility_failure_is_internal_error(self):
        k = KernelForm((), ((1, 0),))
        ident = S2.subgroup([S2.identity_index])
        with pytest.raises(InternalCheckError):
            kernel_sum(Poly.constant(2, 1), k, ident.elements())

    def test_representative_independence(self):
        # numerator/denominator stable under the swap, so either coset system
        # of the full group inside itself gives the same sum
        k = KernelForm(((-1, 0), (0, -1)), ())
        f = x(0) + x(1)
        ident = S2.elements[S2.identity_index]
        other = swap_element()
        assert kernel_sum(f, k, (ident,)) == kernel_sum(f, k, (other,))

    def test_evaluation_oracle(self):
        k = KernelForm(((1, 0),), ((1, -1),))
        f = x(0) ** 2 + (x(0) * x(1)).scaled(3)
        assert_matches_direct_sum(f, k, S2.elements)

    def test_forms_equal_up_to_a_scalar_share_one_factor(self, monkeypatch):
        # the swap sends 2x1 - 2x2 to -2x1 + 2x2: one factor x1 - x2 with
        # scalars 2 and -2, so the common denominator has degree 1, not 2
        divisors = []
        divide = polyalg.exact_divide

        def recording(f, ell):
            divisors.append(tuple(ell))
            return divide(f, ell)

        monkeypatch.setattr(polyalg, "exact_divide", recording)
        k = KernelForm(((1, 0),), ((2, -2),))
        f = x(0) ** 2 + (x(0) * x(1)).scaled(3)
        assert_matches_direct_sum(f, k, S2.elements)
        assert divisors == [(1, -1)]

    def test_rational_denominator_form(self):
        k = KernelForm(((0, 1),), ((Fraction(1, 2), Fraction(-3, 4)),))
        f = x(0) ** 2 - x(1) ** 2
        ident = S2.subgroup([S2.identity_index])
        with pytest.raises(InternalCheckError):
            kernel_sum(f, k, ident.elements())
        g = f * Poly.linear((2, -3))
        assert_matches_direct_sum(g, k, ident.elements())

    def test_repeated_form_needs_its_multiplicity(self):
        # (x1 - x2) twice in every coset's denominator: the common denominator
        # is (x1 - x2)^2, and the sum is polynomial only after both divisions
        k = KernelForm(((1, -1), (1, 0)), ((1, -1), (-1, 1)))
        f = x(0) ** 3 + (x(0) * x(1)).scaled(Fraction(1, 2))
        assert_matches_direct_sum(f, k, S2.elements)
        assert kernel_sum(Poly.constant(2, 1), k, S2.elements) == Poly.constant(2, -1)

    def test_distinct_forms_across_cosets(self):
        s3 = enumerate_group((((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                              ((1, 0, 0), (0, 0, 1), (0, 1, 0))), 3)
        k = KernelForm(((1, 0, 0), (0, 1, 0)), ((2, -2, 0), (1, 0, -1)))
        f = Poly.linear((1, 2, 0)) ** 2
        assert_matches_direct_sum(f, k, s3.elements)


def assert_matches_direct_sum(f, k, cosets, count=6):
    """kernel_sum agrees with the exact value of sum_w w(f * k) at generic points."""
    result = kernel_sum(f, k, cosets)
    forms = [mat_vec(w.matrix, b) for w in cosets for b in k.denominator]
    points = []
    t = 2
    while len(points) < count:
        pt = tuple(t ** i for i in range(f.nvars))
        if all(dot(pt, u) != 0 for u in forms):
            points.append(pt)
        t += 1
    for pt in points:
        direct = sum(
            (substitute(w, f).evaluate(pt) * k.transformed(w).evaluate(pt) for w in cosets),
            Fraction(0),
        )
        assert result.evaluate(pt) == direct


class TestRrefSpan:
    def test_dependent_rows_collapse(self):
        f = x(0) + x(1)
        basis = rref_span([f, f.scaled(2)], 1, 2)
        assert basis.dim == 1

    def test_empty(self):
        assert rref_span([], 3, 2).dim == 0

    def test_two_dimensional(self):
        basis = rref_span([x(0), x(1), x(0) + x(1)], 1, 2)
        assert basis.dim == 2

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InputError):
            rref_span([x(0) + Poly.constant(2, 1)], 1, 2)

    def test_coordinates_roundtrip(self):
        basis = rref_span([x(0) + x(1), x(0) - x(1)], 1, 2)
        f = x(0).scaled(5)
        coords = basis.coordinates(f)
        rebuilt = Poly.zero(2)
        for c, g in zip(coords, basis.polys()):
            rebuilt = rebuilt + g.scaled(c)
        assert rebuilt == f
        assert basis.coordinates(x(0) ** 2) is None


class TestInvariantBasis:
    def test_symmetric_polynomials_degree_two(self):
        basis = invariant_basis(S2.full_subgroup(), 2, ((1, 0), (0, 1)))
        assert basis.dim == 2

    def test_trivial_group_full_ring(self):
        trivial = SIGN1.subgroup([SIGN1.identity_index])
        assert invariant_basis(trivial, 3, ((1,),)).dim == 1

    def test_odd_degree_sign_invariants_vanish(self):
        assert invariant_basis(SIGN1.full_subgroup(), 1, ((1,),)).dim == 0

    def test_unstable_span_rejected(self):
        with pytest.raises(InputError, match="stable"):
            invariant_basis(S2.full_subgroup(), 1, ((1, 0),))

    def test_degree_zero_is_constants(self):
        assert invariant_basis(S2.full_subgroup(), 0, ()).dim == 1


class TestOrthogonalComplement:
    def test_full_sub_gives_zero(self):
        ambient = rref_span([x(0), x(1)], 1, 2)
        assert orthogonal_complement(ambient, ambient, IDENTITY_FORM).dim == 0

    def test_line_complement(self):
        ambient = rref_span([x(0), x(1)], 1, 2)
        sub = rref_span([x(0) + x(1)], 1, 2)
        comp = orthogonal_complement(sub, ambient, IDENTITY_FORM)
        assert comp.dim == 1
        # up to scale, the complement of the diagonal is the antidiagonal
        f = comp.polys()[0]
        assert exact_divide(f, (1, -1)).degree == 0

    def test_empty_sub_gives_ambient(self):
        ambient = rref_span([x(0), x(1)], 1, 2)
        empty = rref_span([], 1, 2)
        assert orthogonal_complement(empty, ambient, IDENTITY_FORM).rows == ambient.rows

    def test_dimensions_add_and_orthogonality_exact(self):
        ambient = rref_span([m_poly for m_poly in map(lambda e: Poly.monomial(2, e), monomials_of_degree(2, 3))], 3, 2)
        sub = rref_span([x(0) ** 3, x(0) * x(1) ** 2], 3, 2)
        comp = orthogonal_complement(sub, ambient, IDENTITY_FORM)
        assert sub.dim + comp.dim == ambient.dim
        for f in comp.polys():
            for g in sub.polys():
                assert poly_inner(f, g, IDENTITY_FORM) == 0

    def test_not_contained_rejected(self):
        ambient = rref_span([x(0)], 1, 2)
        sub = rref_span([x(1)], 1, 2)
        with pytest.raises(InputError, match="contained"):
            orthogonal_complement(sub, ambient, IDENTITY_FORM)


def permanent_inner(f, g, b):
    """Reference pairing: on monomials, the sum over the matchings of the
    factors of the first with those of the second of the product of the
    entries of b, expanded recursively on the first variable."""

    def monomial_inner(e1, e2):
        if sum(e1) != sum(e2):
            return Fraction(0)
        if sum(e1) == 0:
            return Fraction(1)
        i = next(k for k, v in enumerate(e1) if v)
        e1r = tuple(v - (k == i) for k, v in enumerate(e1))
        return sum(
            (vj * b[i][j] * monomial_inner(e1r, tuple(v - (k == j) for k, v in enumerate(e2)))
             for j, vj in enumerate(e2) if vj),
            Fraction(0),
        )

    return sum(
        (c1 * c2 * monomial_inner(e1, e2)
         for e1, c1 in f.terms.items() for e2, c2 in g.terms.items()),
        Fraction(0),
    )


SL3_FORM = averaged_form(build("adjoint:sl3")[1].weyl)
RATIONAL_FORM = tuple(
    tuple(Fraction(v) for v in row)
    for row in ((2, Fraction(1, 2), -1), (Fraction(1, 2), Fraction(-3, 4), 3), (-1, 3, 5))
)


def dense(nvars, degree, coefficient):
    """Every monomial of the degree, with coefficient(i) on the i-th."""
    return Poly(nvars, {
        m: Fraction(coefficient(i))
        for i, m in enumerate(monomials_of_degree(nvars, degree)) if coefficient(i)
    })


class TestPairing:
    @pytest.mark.parametrize("form", [SL3_FORM, RATIONAL_FORM], ids=["sl3", "rational3x3"])
    @pytest.mark.parametrize("degree", range(6))
    def test_matches_the_permanent(self, form, degree):
        n = len(form)
        f = dense(n, degree, lambda i: i + 1)
        g = dense(n, degree, lambda i: (-1) ** i * Fraction(i * i + 1, i + 2))
        monos = [Poly.monomial(n, m) for m in monomials_of_degree(n, degree)[:4]]
        for a in [f, g, *monos]:
            for c in [g, *monos]:
                assert poly_inner(a, c, form) == permanent_inner(a, c, form)
        assert poly_inner(f, dense(n, degree + 1, lambda i: 1), form) == 0

    def test_complement_under_the_sl3_form(self):
        ambient = rref_span(
            [Poly.monomial(2, m) for m in monomials_of_degree(2, 4)], 4, 2
        )
        sub = rref_span([x(0) ** 4 + x(0) * x(1) ** 3, (x(0) - x(1).scaled(2)) ** 4], 4, 2)
        comp = orthogonal_complement(sub, ambient, SL3_FORM)
        assert comp.dim == ambient.dim - sub.dim
        for f in comp.polys():
            for g in sub.polys():
                assert permanent_inner(f, g, SL3_FORM) == 0
                assert permanent_inner(g, f, SL3_FORM) == 0


class TestAverageOver:
    def test_symmetrization(self):
        f = x(0) ** 2
        avg = average_over(S2.full_subgroup(), f)
        assert avg == (x(0) ** 2 + x(1) ** 2).scaled(Fraction(1, 2))
