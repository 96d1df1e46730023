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
    integrality,
    once,
    orthogonal_complement,
    point_stabilizer_of,
    polyalg,
    rref_span,
    set_stabilizer_of,
    substitute,
)
from cohint.catalog import GROUPS
from cohint.matrices import dot, identity, mat_mul, mat_vec
from cohint.polyalg import (
    ExactDivisionError,
    coset_sum,
    monomials_of_degree,
    orbit_sum,
    pack,
    unpack,
)
from cohint.weyl import averaged_form, point_stabilizer

from conftest import CATALOG_INSTANCES, build, gl_document, is_monomial_matrix
from reference import (
    add,
    evaluate,
    evaluate_kernel,
    exponent_terms,
    from_exponent_terms,
    full_subgroup,
    multiply,
    poly_inner,
    power,
    rref_all_monomials,
    scaled,
    substitute_terms,
    subtract,
)

SWAP = ((0, 1), (1, 0))
S2 = enumerate_group((SWAP,), 2)
SIGN1 = enumerate_group((((-1,),),), 1)
IDENTITY_FORM = tuple(
    tuple(Fraction(1) if i == j else Fraction(0) for j in range(2)) for i in range(2)
)


def x(i, n=2):
    return Poly.linear(tuple(1 if j == i else 0 for j in range(n)))


def swap_element():
    return next(w for w in S2.elements if w == SWAP)


SL3 = enumerate_group(GROUPS["sl3"]["generators"], 2)
SL3_ROTATION = next(w for w in SL3.elements if w == ((0, -1), (1, -1)))


small_polys = st.builds(
    lambda terms: from_exponent_terms(2, {e: Fraction(c) for e, c in terms.items() if c}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5),
        max_size=4,
    ),
)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rational_polys = st.builds(
    lambda terms: from_exponent_terms(2, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        rationals.filter(bool),
        max_size=4,
    ),
)
rational_forms = st.tuples(rationals, rationals)


@st.composite
def homogeneous_polys(draw):
    """(nvars, degree, polynomials of that degree, zeros included)."""
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    terms = st.dictionaries(st.sampled_from(monomials_of_degree(nvars, degree)),
                            st.fractions(min_value=-3, max_value=3, max_denominator=4),
                            max_size=4)
    polys = [from_exponent_terms(nvars, {e: c for e, c in t.items() if c})
             for t in draw(st.lists(terms, max_size=5))]
    return nvars, degree, polys


class TestPolyBasics:
    def test_zero_and_degree(self):
        assert Poly.constant(2, 0).is_zero()
        assert Poly.constant(2, 0).degree == -1
        assert power(x(0), 3).degree == 3

    def test_arithmetic(self):
        f = add(x(0), x(1))
        g = subtract(x(0), x(1))
        assert f * g == subtract(power(x(0), 2), power(x(1), 2))
        assert subtract(f, f) == Poly.constant(2, 0)

    def test_evaluate(self):
        f = add(power(x(0), 2), scaled(x(1), 3))
        assert evaluate(f, (2, 5)) == 19

    def test_monomials_order(self):
        assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
        assert monomials_of_degree(0, 0) == ((),)
        assert monomials_of_degree(0, 2) == ()


GL3 = build("adjoint:gl3")[1].weyl
three_var_polys = st.builds(
    lambda terms: from_exponent_terms(3, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.one_of(st.integers(-6, 6), rationals).filter(bool),
        max_size=5,
    ),
)
POINTS3 = ((2, 3, 5), (-1, 4, Fraction(1, 3)), (7, -2, 1), (Fraction(-5, 2), 1, 6))


class TestPackedKeys:
    """Keys against exponent tuples: the products of the packed
    representation agree with reference.multiply, which adds exponent tuples
    entry by entry, and the substitutions, quotients and kernel sums with
    evaluation at rational points."""

    def test_key_order_is_graded_lex(self):
        for n in range(4):
            monos = [m for p in range(5, -1, -1) for m in monomials_of_degree(n, p)]
            keys = [pack(m) for m in monos]
            assert keys == sorted(keys, reverse=True)
            assert [unpack(k, n) for k in keys] == monos

    def test_unit_keys(self):
        assert Poly.linear((0, 5, 0)).terms == {pack((0, 1, 0)): 5}
        assert Poly.constant(3, 7).terms == {pack((0, 0, 0)): 7}
        assert (power(x(0, 3), 2) * x(2, 3)).degree == 3

    def test_repr_in_graded_lex_order(self):
        f = add(power(x(1, 3), 2), x(0, 3), scaled(x(0, 3) * x(2, 3), -3), Poly.constant(3, 4))
        assert repr(f) == "Poly(-3*x1*x3 + 1*x2^2 + 1*x1 + 4)"

    @settings(max_examples=60, deadline=None)
    @given(three_var_polys, three_var_polys, st.integers(0, 3))
    def test_products_and_powers(self, f, g, k):
        assert exponent_terms(f * g) == multiply(f, g)
        expected = {(0, 0, 0): 1}
        for _ in range(k):
            expected = multiply(from_exponent_terms(3, expected), f)
        assert exponent_terms(power(f, k)) == expected

    @settings(max_examples=40, deadline=None)
    @given(three_var_polys, st.integers(0, 5), small_polys, st.integers(0, 5))
    def test_substitute_on_both_paths(self, f, i, g, j):
        # every gl3 element moves exponents; sl3 has expanded elements
        for w, h, points in ((GL3.elements[i], f, POINTS3),
                             (SL3.elements[j], g, [p[:2] for p in POINTS3])):
            image = substitute(w, h)
            for point in points:
                assert evaluate(image, point) == evaluate(h, mat_vec(tuple(zip(*w)), point))

    @settings(max_examples=40, deadline=None)
    @given(three_var_polys, st.sampled_from([(1, 0, 0), (0, 1, -1), (2, 0, 3), (1, -1, 1)]))
    def test_exact_divide_undoes_the_reference_product(self, q, ell):
        product = from_exponent_terms(3, multiply(q, Poly.linear(ell)))
        quotient = exact_divide(product, ell)
        assert exponent_terms(quotient) == exponent_terms(q)

    @settings(max_examples=30, deadline=None)
    @given(three_var_polys, st.lists(st.sampled_from([(1, 0, 0), (0, 2, -1), (1, 1, 1)]),
                                     max_size=2),
           st.lists(st.sampled_from([(1, -1, 0), (0, 1, -1), (2, 0, -2)]), min_size=1,
                    max_size=2),
           st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    def test_kernel_sum_over_gl3_cosets(self, g, numerator, denominator, picks):
        f = g
        for b in denominator:
            f = f * Poly.linear(b)
        k = KernelForm(tuple(numerator), tuple(denominator))
        assert_matches_direct_sum(f, k, [GL3.elements[i] for i in picks])

    def test_product_degree_guard(self):
        half = 1 << 15
        high = Poly.monomial(2, (half, 0))
        assert exponent_terms(high * Poly.monomial(2, (0, half - 1))) == {(half, half - 1): 1}
        with pytest.raises(InternalCheckError, match="overflows the 16-bit exponent fields"):
            high * Poly.monomial(2, (0, half))
        with pytest.raises(InternalCheckError):
            high * high
        with pytest.raises(InternalCheckError):
            power(x(1), 1 << 16)
        # no square beyond the last one the power needs
        assert exponent_terms(power(x(1), half + 1)) == {(0, half + 1): 1}

    def test_pack_guard(self):
        assert unpack(pack(((1 << 16) - 1, 0)), 2) == ((1 << 16) - 1, 0)
        for exps in (((1 << 16), 0), (0, 0, 1 << 16), ((1 << 15), (1 << 15)), (2, -1)):
            with pytest.raises(InternalCheckError, match="do not fit 16-bit fields"):
                pack(exps)
        with pytest.raises(InternalCheckError):
            Poly.monomial(1, (1 << 16,))


class TestSubstitute:
    def test_identity(self):
        e = S2.elements[S2.identity_index]
        f = add(power(x(0), 2), x(1))
        assert substitute(e, f) == f

    def test_swap(self):
        f = add(power(x(0), 2), x(1))
        assert substitute(swap_element(), f) == add(power(x(1), 2), x(0))

    def test_sign_flip(self):
        w = next(w for w in SIGN1.elements if w == ((-1,),))
        f = power(Poly.linear((1,)), 3)
        assert substitute(w, f) == scaled(power(Poly.linear((1,)), 3), -1)

    @settings(max_examples=40, deadline=None)
    @given(small_polys, small_polys)
    def test_respects_products(self, f, g):
        # a monomial matrix and one that is expanded
        for w in (swap_element(), SL3_ROTATION):
            assert substitute(w, f * g) == substitute(w, f) * substitute(w, g)


GL4 = enumerate_group(gl_document(4, "adjoint", 1, 0)["weyl_generators"], 4)
# the signed permutations of rank 3, generated by two swaps and a sign change
B3 = enumerate_group((((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
                      ((-1, 0, 0), (0, 1, 0), (0, 0, 1))), 3)


def polys_in(nvars):
    return st.builds(
        lambda terms: from_exponent_terms(nvars, terms),
        st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nvars),
            st.one_of(st.integers(-6, 6), rationals).filter(bool),
            max_size=5,
        ),
    )


class TestSubstitutionPlan:
    """substitute reads each matrix once, into a plan memoised by the matrix:
    exponent moves for the signed permutations of gl3, gl4 and B3, column
    images for the four dense elements of sl3."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_every_element_against_the_term_by_term_expansion(self, data):
        assert any(-1 in row for w in B3.elements for row in w)
        assert any(-1 in row for w in SL3.elements for row in w)
        for group in (GL3, GL4, SL3, B3):
            f = data.draw(polys_in(group.rank))
            for w in group.elements:
                assert exponent_terms(substitute(w, f)) == substitute_terms(f, w)

    def test_built_on_the_first_substitution_only(self):
        # two separate enumerations of one group hold equal matrices, which
        # share one plan each
        groups = [enumerate_group(GROUPS["sl3"]["generators"], 2) for _ in range(2)]
        f = subtract(power(x(0), 2), scaled(x(1), 3))
        expected = [substitute_terms(f, w) for w in groups[0].elements]
        polyalg._plan.cache_clear()
        for group in groups:
            assert [exponent_terms(substitute(w, f)) for w in group.elements] == expected
        distinct = set(groups[0].elements + groups[1].elements)
        assert len(distinct) == 6
        assert polyalg._plan.cache_info().misses == len(distinct)

    def test_moves_only_for_invertible_monomial_matrices(self):
        # both columns of the singular one have their entry in row 0, so two
        # monomials can land on one; it is expanded instead
        assert polyalg._plan(((1, 1), (0, 0)))[0] is None
        assert polyalg._plan(((0, -1), (2, 0)))[1] is None


class TestSubstituteAnyMatrix:
    """substitute(M, f) is f composed with M transposed; the monomial
    matrices, which only move exponents, and the others, which are expanded,
    both agree with that evaluation oracle."""

    POINTS = ((2, 3, 5), (-1, 4, Fraction(1, 3)), (7, -2, 1), (0, 1, -6))

    @staticmethod
    def assert_matches_oracle(f, matrix, points):
        image = substitute(matrix, f)
        for point in points:
            moved = mat_vec(tuple(zip(*matrix)), point)
            assert evaluate(image, point) == evaluate(f, moved)

    def test_every_gl3_element_moves_exponents(self, monkeypatch):
        gl3 = build("adjoint:gl3")[1].weyl
        f = add(dense(3, 4, lambda i: (-1) ** i * (i + 1)), power(x(2, 3), 2),
                Poly.constant(3, -7))
        # the monomial path multiplies no polynomials
        monkeypatch.setattr(Poly, "__mul__", lambda self, other: pytest.fail("expanded"))
        for w in gl3.elements:
            assert is_monomial_matrix(w)
            self.assert_matches_oracle(f, w, self.POINTS)

    def test_every_sl3_element(self):
        sl3 = build("adjoint:sl3")[1].weyl
        assert sum(not is_monomial_matrix(w) for w in sl3.elements) == 4
        f = add(dense(2, 5, lambda i: Fraction(i - 2, i + 1)), power(x(0), 3) * x(1),
                scaled(x(1), -1))
        for w in sl3.elements:
            self.assert_matches_oracle(f, w, [p[:2] for p in self.POINTS])

    def test_singular_monomial_matrix_merges_and_cancels(self):
        matrix = ((1, 1), (0, 0))
        assert substitute(matrix, subtract(x(0), x(1))) == Poly.constant(2, 0)
        f = add(power(x(0), 2), scaled(x(0) * x(1), -3), power(x(1), 2))
        assert substitute(matrix, f) == scaled(power(x(0), 2), -1)
        self.assert_matches_oracle(f, matrix, [p[:2] for p in self.POINTS])

    def test_rational_diagonal_form(self):
        b = ((Fraction(1, 2), 0, 0), (0, Fraction(-3, 4), 0), (0, 0, Fraction(5, 3)))
        f = add(power(x(0, 3), 2) * x(1, 3), scaled(x(1, 3) * power(x(2, 3), 3), Fraction(2, 7)))
        assert substitute(b, f) == add(
            scaled(power(x(0, 3), 2) * x(1, 3), Fraction(-3, 16)),
            scaled(x(1, 3) * power(x(2, 3), 3),
                   Fraction(2, 7) * Fraction(-3, 4) * Fraction(125, 27)),
        )
        self.assert_matches_oracle(f, b, self.POINTS)


class TestExactDivide:
    def test_difference_of_squares(self):
        f = subtract(power(x(0), 2), power(x(1), 2))
        assert exact_divide(f, (1, -1)) == add(x(0), x(1))

    def test_not_divisible(self):
        with pytest.raises(ExactDivisionError):
            exact_divide(x(0), (0, 1))

    def test_mixed_terms(self):
        f = add(scaled(x(0) * x(1), 2), power(x(1), 2))
        assert exact_divide(f, (0, 1)) == add(scaled(x(0), 2), x(1))

    def test_zero_form_rejected(self):
        with pytest.raises(InputError):
            exact_divide(x(0), (0, 0))

    def test_remainder_only_at_pivot_degree_zero(self):
        # x1^2 + x1 x2 + x2^2 = (x1 + x2)(x1) + x2^2: every term of positive
        # degree in x1 divides, and the remainder x2^2 has x1-degree 0
        f = add(power(x(0), 2), x(0) * x(1), power(x(1), 2))
        with pytest.raises(ExactDivisionError, match=r"^not divisible by linear form \(1, 0\)$"):
            exact_divide(f, (1, 0))
        with pytest.raises(ExactDivisionError):
            exact_divide(f, (1, -1))

    def test_fourth_power_roundtrip(self):
        g = add(scaled(x(0), 3) * x(1), scaled(power(x(1), 2), -1), power(x(0), 2))
        f = power(subtract(x(0), x(1)), 4) * g
        for k in range(4, 0, -1):
            f = exact_divide(f, (1, -1))
            assert f == power(subtract(x(0), x(1)), k - 1) * g
        with pytest.raises(ExactDivisionError):
            exact_divide(f, (1, -1))

    def test_integer_polynomial_over_a_ray_key_has_int_coefficients(self):
        q = Poly.linear((3, 5)) * power(Poly.linear((2, -7)), 2)
        for key in ((1, -1), (2, 3), (0, 1)):
            quotient = exact_divide(q * Poly.linear(key), key)
            assert quotient == q
            assert all(type(c) is int for c in quotient.terms.values())

    def test_integer_polynomial_with_a_remainder_still_raises(self):
        f = add(power(x(0), 2), power(x(1), 2))
        for ell in ((1, 1), (2, 1), (1, -3)):
            with pytest.raises(ExactDivisionError):
                exact_divide(f, ell)

    def test_non_primitive_form_gives_fractions(self):
        quotient = exact_divide(subtract(power(x(0), 2), power(x(1), 2)), (2, -2))
        assert quotient == scaled(add(x(0), x(1)), Fraction(1, 2))
        assert exponent_terms(quotient) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}

    def test_rational_form_divides(self):
        ell = (Fraction(1, 2), Fraction(-3, 4))
        q = add(power(x(0), 2), scaled(x(0) * x(1), Fraction(2, 3)), Poly.constant(2, -5))
        assert exact_divide(q * Poly.linear(ell), ell) == q
        with pytest.raises(ExactDivisionError):
            exact_divide(add(q * Poly.linear(ell), x(1)), ell)

    @settings(max_examples=40, deadline=None)
    @given(small_polys, st.sampled_from([(1, 0), (1, -1), (2, 3), (0, 1)]))
    def test_roundtrip(self, q, ell):
        product = q * Poly.linear(ell)
        assert exact_divide(product, ell) == q


class TestKernelSum:
    def test_surjection_generator(self):
        k = KernelForm(((1, 0),), ((1, -1),))
        assert kernel_sum(x(0), k, S2.elements) == add(x(0), x(1))

    def test_product_is_reached(self):
        # the twisted sum acts as the identity on x1*x2, so the product of the
        # variables is in the image (with scalar input giving scalar output)
        k = KernelForm(((1, 0),), ((1, -1),))
        f = x(0) * x(1)
        assert kernel_sum(f, k, S2.elements) == f
        half = scaled(f, Fraction(1, 2))
        assert kernel_sum(half, k, S2.elements) == half

    def test_rank1_cancellation(self):
        k = KernelForm((), ((-2,),))
        f = Poly.constant(1, 1)
        assert kernel_sum(f, k, SIGN1.elements) == Poly.constant(1, 0)

    def test_divisibility_failure_is_internal_error(self):
        k = KernelForm((), ((1, 0),))
        ident = S2.subgroup([S2.identity_index])
        with pytest.raises(InternalCheckError):
            kernel_sum(Poly.constant(2, 1), k, ident.elements())

    def test_representative_independence(self):
        # numerator/denominator stable under the swap, so either coset system
        # of the full group inside itself gives the same sum
        k = KernelForm(((-1, 0), (0, -1)), ())
        f = add(x(0), x(1))
        ident = S2.elements[S2.identity_index]
        other = swap_element()
        assert kernel_sum(f, k, (ident,)) == kernel_sum(f, k, (other,))

    def test_evaluation_oracle(self):
        k = KernelForm(((1, 0),), ((1, -1),))
        f = add(power(x(0), 2), scaled(x(0) * x(1), 3))
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
        f = add(power(x(0), 2), scaled(x(0) * x(1), 3))
        assert_matches_direct_sum(f, k, S2.elements)
        assert divisors == [(1, -1)]

    def test_rational_denominator_form(self):
        k = KernelForm(((0, 1),), ((Fraction(1, 2), Fraction(-3, 4)),))
        f = subtract(power(x(0), 2), power(x(1), 2))
        ident = S2.subgroup([S2.identity_index])
        with pytest.raises(InternalCheckError):
            kernel_sum(f, k, ident.elements())
        g = f * Poly.linear((2, -3))
        assert_matches_direct_sum(g, k, ident.elements())

    def test_repeated_form_needs_its_multiplicity(self):
        # (x1 - x2) twice in every coset's denominator: the common denominator
        # is (x1 - x2)^2, and the sum is polynomial only after both divisions
        k = KernelForm(((1, -1), (1, 0)), ((1, -1), (-1, 1)))
        f = add(power(x(0), 3), scaled(x(0) * x(1), Fraction(1, 2)))
        assert_matches_direct_sum(f, k, S2.elements)
        assert kernel_sum(Poly.constant(2, 1), k, S2.elements) == Poly.constant(2, -1)

    def test_distinct_forms_across_cosets(self):
        s3 = enumerate_group((((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                              ((1, 0, 0), (0, 0, 1), (0, 1, 0))), 3)
        k = KernelForm(((1, 0, 0), (0, 1, 0)), ((2, -2, 0), (1, 0, -1)))
        f = power(Poly.linear((1, 2, 0)), 2)
        assert_matches_direct_sum(f, k, s3.elements)

    def test_common_denominator_of_distinct_scalars(self):
        # kernel_sum reads only the matrices, so matrices of no group will
        # do.  Scaling by 2 and 3 gives the denominator form 2(x1 + x2) the
        # scalars 4 and 6, so the two terms go over the common
        # denominator 12 with multipliers 3 and 2 (the scalars of invertible
        # integer matrices differ only in sign)
        cosets = [((c, 0), (0, c)) for c in (2, 3)]
        k = KernelForm(((1, 0),), ((2, 2),))
        data = coset_sum(k, cosets)
        assert (data.denominator, [m for *_, m in data.terms]) == (12, [3, 2])
        assert kernel_sum(x(1) * add(x(0), x(1)), k, data) == (
            scaled(x(0) * x(1), Fraction(13, 2)))
        assert_matches_direct_sum(x(1) * add(x(0), x(1)), k, cosets)

    def test_a_prepared_coset_sum_gives_the_same_sum(self):
        k = KernelForm(((1, -1), (1, 0)), ((1, -1), (-1, 1)))
        data = coset_sum(k, S2.elements)
        assert len(data) == len(S2.elements)
        for f in (Poly.constant(2, 1), add(power(x(0), 3), scaled(x(0) * x(1), Fraction(1, 2)))):
            assert kernel_sum(f, k, data) == kernel_sum(f, k, S2.elements)

    @settings(max_examples=40, deadline=None)
    @given(rational_polys, st.lists(rational_forms, max_size=2),
           st.lists(rational_forms.filter(any), min_size=1, max_size=2),
           st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    def test_matches_the_direct_sum(self, g, numerator, denominator, picks):
        # f = g * prod(denominator) makes every coset's term polynomial, so any
        # set of sl3 elements (monomial and expanded ones) may stand as cosets
        f = g
        for b in denominator:
            f = f * Poly.linear(b)
        k = KernelForm(tuple(numerator), tuple(denominator))
        assert_matches_direct_sum(f, k, [SL3.elements[i] for i in picks])


def assert_matches_direct_sum(f, k, cosets, count=6):
    """kernel_sum agrees with the exact value of sum_w w(f * k) at generic points."""
    result = kernel_sum(f, k, cosets)
    forms = [mat_vec(w, b) for w in cosets for b in k.denominator]
    points = []
    t = 2
    while len(points) < count:
        pt = tuple(t ** i for i in range(f.nvars))
        if all(dot(pt, u) != 0 for u in forms):
            points.append(pt)
        t += 1
    for pt in points:
        direct = sum(
            (evaluate(substitute(w, f), pt) * evaluate_kernel(k.transformed(w), pt)
             for w in cosets),
            Fraction(0),
        )
        assert evaluate(result, pt) == direct


class TestRrefSpan:
    def test_dependent_rows_collapse(self):
        f = add(x(0), x(1))
        basis = rref_span([f, scaled(f, 2)], 1, 2)
        assert basis.dim == 1

    def test_empty(self):
        assert rref_span([], 3, 2).dim == 0

    def test_two_dimensional(self):
        basis = rref_span([x(0), x(1), add(x(0), x(1))], 1, 2)
        assert basis.dim == 2

    def test_inhomogeneous_rejected(self):
        with pytest.raises(InputError, match="^expected a homogeneous polynomial of degree 1, "
                                             "got a term of degree 0$"):
            rref_span([add(x(0), Poly.constant(2, 1))], 1, 2)

    def test_coordinates_roundtrip(self):
        basis = rref_span([add(x(0), x(1)), subtract(x(0), x(1))], 1, 2)
        f = scaled(x(0), 5)
        coords = basis.coordinates(f)
        assert add(*(scaled(g, c) for c, g in zip(coords, basis.rows))) == f
        assert basis.coordinates(power(x(0), 2)) is None


    @given(homogeneous_polys())
    def test_matches_the_reduction_over_every_monomial(self, case):
        nvars, degree, polys = case
        basis = rref_span(polys, degree, nvars)
        expected = rref_all_monomials(polys, degree, nvars)
        assert basis.rows == expected
        assert basis.dim == len(expected)
        support = set().union(*(g.terms for g in basis.rows))
        assert support == set().union(*(f.terms for f in polys))

    @given(homogeneous_polys(), st.data())
    def test_copies_and_zeros_change_nothing(self, case, data):
        """Repeated, negated, int-scaled and Fraction-scaled copies, with zero
        polynomials between them, reduce to the rows and pivots of the
        reduction over every monomial."""
        nvars, degree, polys = case
        scales = st.sampled_from([1, -1]) | st.integers(-6, 6) | st.fractions(
            min_value=-5, max_value=5, max_denominator=9)
        copies = data.draw(st.lists(st.tuples(st.integers(0, max(len(polys) - 1, 0)), scales),
                                    max_size=12))
        vectors = list(polys)
        for i, c in copies:
            vectors.append(scaled(polys[i], c) if polys else Poly.constant(nvars, 0))
        vectors = data.draw(st.permutations(vectors))
        basis = rref_span(vectors, degree, nvars)
        expected = rref_all_monomials(vectors, degree, nvars)
        assert basis.rows == expected
        assert basis.pivots == tuple(max(g.terms) for g in expected)
        assert basis.rows == rref_span(polys, degree, nvars).rows

    @given(homogeneous_polys(), st.data())
    def test_coordinates_inside_and_outside_the_support(self, case, data):
        nvars, degree, polys = case
        basis = rref_span(polys, degree, nvars)
        coords = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=basis.dim,
                                          max_size=basis.dim)))
        f = add(Poly.constant(nvars, 0), *(scaled(g, c) for c, g in zip(coords, basis.rows)))
        assert basis.coordinates(f) == coords
        support = set().union(*(g.terms for g in basis.rows))
        outside = [m for m in map(pack, monomials_of_degree(nvars, degree))
                   if m not in support]
        if outside:
            stray = Poly(nvars, {data.draw(st.sampled_from(outside)): 1})
            assert basis.coordinates(add(f, stray)) is None


GL3 = enumerate_group(GROUPS["gl3"]["generators"], 3)


class TestGradedBasisAction:
    """GradedBasis.action on the spans of all monomials of degrees 2 and 3
    in 3 variables under W(gl3), S3 permuting the variables: a 6- and a
    10-dimensional space on which S3 acts faithfully, so the order of a
    composition shows."""

    @pytest.mark.parametrize("degree", [2, 3])
    def test_composition_reverses_the_order(self, degree):
        basis = rref_span((Poly.monomial(3, e) for e in monomials_of_degree(3, degree)),
                          degree, 3)
        assert basis.dim == len(monomials_of_degree(3, degree))
        actions = {w: basis.action(w) for w in GL3.elements}
        # rows hold image coordinates, so M_a M_b acts by action(M_b) action(M_a)
        for a in GL3.elements:
            for b in GL3.elements:
                assert actions[mat_mul(a, b)] == mat_mul(actions[b], actions[a])
        assert actions[identity(3)] == identity(basis.dim)
        assert len(set(actions.values())) == GL3.order

    def test_an_image_off_the_span_is_none(self):
        # gl2-cotangent's stratum 1 is the line through (0, 1); its flat's
        # dual is spanned by the forms isotypic_series restricts to, and the
        # swap outside the set stabilizer moves it off itself
        strat = build("gl2-cotangent")[1]
        axis = strat.strata[1]
        assert axis.flat == ((0, 1),)
        forms = once(strat, integrality._flat_complement_forms, axis)
        dual = rref_span(map(Poly.linear, forms), 1, 2)
        inside = once(strat, set_stabilizer_of, axis.index).members
        outside = [i for i in range(strat.weyl.order) if i not in inside]
        assert outside
        for i in outside:
            assert dual.action(strat.weyl.elements[i]) is None
        for i in inside:
            assert dual.action(strat.weyl.elements[i]) is not None


class TestInvariantBasis:
    def test_symmetric_polynomials_degree_two(self):
        basis = invariant_basis(full_subgroup(S2), 2, ((1, 0), (0, 1)))
        assert basis.dim == 2

    def test_trivial_group_full_ring(self):
        trivial = SIGN1.subgroup([SIGN1.identity_index])
        assert invariant_basis(trivial, 3, ((1,),)).dim == 1

    def test_odd_degree_sign_invariants_vanish(self):
        assert invariant_basis(full_subgroup(SIGN1), 1, ((1,),)).dim == 0

    def test_unstable_span_rejected(self):
        with pytest.raises(InputError, match="stable"):
            invariant_basis(full_subgroup(S2), 1, ((1, 0),))

    def test_degree_zero_is_constants(self):
        assert invariant_basis(full_subgroup(S2), 0, ()).dim == 1

    def test_one_span_check(self):
        # (1, 0) and (2, 0) span one line, which the swap does not keep
        with pytest.raises(InputError, match="span of the forms is not stable"):
            invariant_basis(full_subgroup(S2), 1, ((1, 0), (2, 0)))
        basis = invariant_basis(full_subgroup(S2), 2, ((1, 0), (0, 1)))
        assert invariant_basis(full_subgroup(S2), 2, ((1, 0), (0, 1), (1, 1))) == basis

    def test_same_work_from_another_spanning_set(self, monkeypatch):
        # adjoint:sl3's roots span an index-3 sublattice of its rank-2
        # lattice, so its top stratum's U has the HNF rows (1, 2), (0, 3),
        # which span the rational plane that the unit vectors span
        strat = build("adjoint:sl3")[1]
        levi = once(strat, point_stabilizer_of, strat.top_index)
        spanning_sets = (((1, 2), (0, 3)), ((1, 0), (0, 1)))
        assert strat.u_bases[strat.top_index] == spanning_sets[0]
        for forms in spanning_sets:
            # substitution plans grow their powers on first use
            invariant_basis(levi, 6, forms)
        mul = Poly.__mul__
        pairs = []

        def counting(self, other):
            pairs[-1] += len(self.terms) * len(other.terms)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        bases = []
        for forms in spanning_sets:
            pairs.append(0)
            bases.append(invariant_basis(levi, 6, forms))
        assert bases[0] == bases[1] and bases[0].dim > 0
        assert pairs[0] == pairs[1]

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_same_basis_from_other_spanning_sets(self, key):
        # u_bases[i], twice it, and it with the sum of its rows appended, for
        # the point stabilizer of each stratum and those of its covers in it
        strat = build(key)[1]
        n = strat.document.rank
        for s in strat.strata:
            u = strat.u_bases[s.index]
            doubled = tuple(tuple(2 * c for c in b) for b in u)
            dependent = u + (tuple(sum(b[k] for b in u) for k in range(n)),)
            levi = once(strat, point_stabilizer_of, s.index)
            for h in [levi] + [point_stabilizer(levi, strat.strata[j].rep)
                               for j in strat.covers[s.index]]:
                for p in range(5):
                    basis = invariant_basis(h, p, u)
                    assert invariant_basis(h, p, doubled) == basis
                    assert invariant_basis(h, p, dependent) == basis


class TestOrthogonalComplement:
    def test_full_sub_gives_zero(self):
        ambient = rref_span([x(0), x(1)], 1, 2)
        assert orthogonal_complement(ambient, ambient, IDENTITY_FORM).dim == 0

    def test_line_complement(self):
        ambient = rref_span([x(0), x(1)], 1, 2)
        sub = rref_span([add(x(0), x(1))], 1, 2)
        comp = orthogonal_complement(sub, ambient, IDENTITY_FORM)
        assert comp.dim == 1
        # up to scale, the complement of the diagonal is the antidiagonal
        f = comp.rows[0]
        assert exact_divide(f, (1, -1)).degree == 0

    def test_empty_sub_gives_ambient(self):
        ambient = rref_span([x(0), x(1)], 1, 2)
        empty = rref_span([], 1, 2)
        assert orthogonal_complement(empty, ambient, IDENTITY_FORM).rows == ambient.rows

    def test_dimensions_add_and_orthogonality_exact(self):
        ambient = rref_span([m_poly for m_poly in map(lambda e: Poly.monomial(2, e), monomials_of_degree(2, 3))], 3, 2)
        sub = rref_span([power(x(0), 3), x(0) * power(x(1), 2)], 3, 2)
        comp = orthogonal_complement(sub, ambient, IDENTITY_FORM)
        assert sub.dim + comp.dim == ambient.dim
        for f in comp.rows:
            for g in sub.rows:
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
         for e1, c1 in exponent_terms(f).items() for e2, c2 in exponent_terms(g).items()),
        Fraction(0),
    )


SL3_FORM = averaged_form(build("adjoint:sl3")[1].weyl)
RATIONAL_FORM = tuple(
    tuple(Fraction(v) for v in row)
    for row in ((2, Fraction(1, 2), -1), (Fraction(1, 2), Fraction(-3, 4), 3), (-1, 3, 5))
)


def dense(nvars, degree, coefficient):
    """Every monomial of the degree, with coefficient(i) on the i-th."""
    return from_exponent_terms(nvars, {
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
        sub = rref_span(
            [add(power(x(0), 4), x(0) * power(x(1), 3)),
             power(subtract(x(0), scaled(x(1), 2)), 4)], 4, 2)
        comp = orthogonal_complement(sub, ambient, SL3_FORM)
        assert comp.dim == ambient.dim - sub.dim
        for f in comp.rows:
            for g in sub.rows:
                assert permanent_inner(f, g, SL3_FORM) == 0
                assert permanent_inner(g, f, SL3_FORM) == 0


class TestOrbitSum:
    def test_symmetrization_is_unscaled(self):
        f = power(x(0), 2)
        assert orbit_sum(full_subgroup(S2), f) == add(power(x(0), 2), power(x(1), 2))
