import dataclasses
import json
from fractions import Fraction

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohint import (
    InputDocument,
    InputError,
    SymmetryClass,
    WeightMultiset,
    symmetry_class,
)
from cohint.catalog import catalog_emit, catalog_keys
from cohint.documents import document_from_dict
from cohint.lattice import ray
from cohint.matrices import dot, identity, mat_mul, mat_vec

from conftest import build, gl_document
from reference import int_inverse, numeric_invariants, slice_weights, total, transpose


def ws(*pairs):
    return WeightMultiset.from_pairs(pairs)


def document(rank, generators, g_weights, v_weights=WeightMultiset(())):
    return InputDocument("input", rank, generators, g_weights, v_weights, None)


class TestWeightMultiset:
    def test_aggregates_and_sorts(self):
        m = ws(((1, 0), 1), ((0, 1), 2), ((1, 0), 3))
        assert m.entries == (((0, 1), 2), ((1, 0), 4))
        assert total(m) == 6

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(InputError):
            ws(((1,), 0))

    def test_negation_and_transform(self):
        m = ws(((1, -1), 1), ((-1, 1), 1))
        assert m.negated() == m
        swap = ((0, 1), (1, 0))
        assert m.transformed(swap) == m


class TestPairing:
    def test_invariance_under_group(self):
        for key in ("gl2-cotangent", "trivial:sl3"):
            _, strat = build(key)
            weights = strat.all_supports()
            cochars = [s.rep for s in strat.strata]
            for w in strat.weyl.elements:
                contragredient = transpose(int_inverse(w))
                for lam in cochars:
                    for alpha in weights:
                        image = mat_vec(contragredient, lam)
                        assert dot(image, mat_vec(w, alpha)) == dot(lam, alpha)


class TestRay:
    def test_integer_form(self):
        assert ray((4, -6, 0)) == ((2, -3, 0), Fraction(2))

    def test_rational_form(self):
        key, c = ray((Fraction(1, 2), Fraction(-3, 4)))
        assert (key, c) == ((2, -3), Fraction(1, 4))

    def test_negative_first_entry(self):
        assert ray((0, -2, 4)) == ((0, 1, -2), Fraction(-2))

    def test_zero_form(self):
        with pytest.raises(InputError, match="^cannot divide by the zero form$"):
            ray((0, 0))

    def test_scale_is_an_int_for_an_integer_form(self):
        for form in ((4, -6, 0), (0, -2, 4), (7,), (-1, 1)):
            assert type(ray(form)[1]) is int

    def test_scale_is_a_fraction_for_a_rational_form(self):
        for form in ((Fraction(1, 2), Fraction(-3, 4)), (Fraction(2, 3), 4), (0, Fraction(-5, 7))):
            assert type(ray(form)[1]) is Fraction

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(any))
    def test_contract_on_integer_forms(self, form):
        self.assert_contract(form)

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    min_size=1, max_size=5).filter(any))
    def test_contract_on_rational_forms(self, form):
        self.assert_contract(form)

    @staticmethod
    def assert_contract(form):
        """c * key == form entry by entry, key is a primitive integer vector,
        and its first nonzero entry is positive."""
        key, c = ray(form)
        assert all(type(k) is int for k in key)
        assert [c * k for k in key] == list(form)
        assert math.gcd(*key) == 1
        assert next(k for k in key if k) > 0


class TestSymmetryClass:
    def test_rays_balance_with_multiplicity(self):
        # 2 * (1, 0) against (-1, 0) and (-2, 0): the ray through (1, 0) has
        # multiplicity 2 on each side; (0, 3) against (0, -1) balances too
        v_weights = ws(
            ((1, 0), 2), ((-1, 0), 1), ((-2, 0), 1), ((0, 3), 1), ((0, -1), 1), ((0, 0), 4)
        )
        assert symmetry_class(v_weights) is SymmetryClass.WEAKLY_SYMMETRIC
        unbalanced = ws(((1, 0), 2), ((-1, 0), 1), ((0, 0), 1))
        assert symmetry_class(unbalanced) is SymmetryClass.NOT_WEAKLY_SYMMETRIC

    def test_weakly_symmetric_rank1(self):
        assert symmetry_class(ws(((1,), 1), ((-2,), 1))) is SymmetryClass.WEAKLY_SYMMETRIC

    def test_symmetric_cotangent(self):
        v_weights = ws(((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1))
        assert symmetry_class(v_weights) is SymmetryClass.SYMMETRIC

    def test_not_weakly_symmetric(self):
        assert symmetry_class(ws(((1,), 1))) is SymmetryClass.NOT_WEAKLY_SYMMETRIC

    def test_empty_is_symmetric(self):
        assert symmetry_class(WeightMultiset(())) is SymmetryClass.SYMMETRIC


class TestSliceWeights:
    def test_gl2_generic_cocharacter(self):
        doc, _ = build("gl2-cotangent")
        neg, zero, pos = slice_weights(doc.v_weights, (-1, -2))
        assert neg == ws(((1, 0), 1), ((0, 1), 1))
        assert total(zero) == 0
        assert pos == ws(((-1, 0), 1), ((0, -1), 1))

    def test_zero_cocharacter_fixes_everything(self):
        doc, _ = build("gl2-cotangent")
        neg, zero, pos = slice_weights(doc.v_weights, (0, 0))
        assert total(neg) == 0 and total(pos) == 0
        assert zero == doc.v_weights

    def test_adjoint_slices(self):
        doc, _ = build("gl2-cotangent")
        neg, zero, pos = slice_weights(doc.g_weights, (-1, 0))
        assert neg == ws(((1, -1), 1))
        assert zero == ws(((0, 0), 2))
        assert pos == ws(((-1, 1), 1))

    def test_partition_totals(self):
        for key in ("gl2-cotangent", "sl2-irrep:5", "trivial:sl3"):
            doc, strat = build(key)
            for m in (doc.v_weights, doc.g_weights):
                for s in strat.strata:
                    parts = slice_weights(m, s.rep)
                    assert sum(total(p) for p in parts) == total(m)

    def test_parts_are_canonical(self):
        # each part equals the multiset rebuilt (sorted, merged) from its pairs
        for key in ("gl2-cotangent", "sl2-irrep:5", "adjoint:gl3"):
            doc, strat = build(key)
            for m in (doc.v_weights, doc.g_weights):
                for s in strat.strata:
                    for part in slice_weights(m, s.rep):
                        assert part == WeightMultiset.from_pairs(part.entries)

    def test_symmetric_means_balanced_slices(self):
        doc, strat = build("gl2-cotangent")
        for s in strat.strata:
            neg, _, pos = slice_weights(doc.v_weights, s.rep)
            assert total(neg) == total(pos)


class TestNumericInvariants:
    def test_gl2_axis_cocharacter(self):
        doc, _ = build("gl2-cotangent")
        inv = numeric_invariants(doc.g_weights, doc.v_weights, (-1, 0))
        assert (inv.dim_v_fixed, inv.dim_g_fixed, inv.d_lambda, inv.r_lambda) == (2, 2, 0, 0)

    def test_gl2_generic_cocharacter(self):
        doc, _ = build("gl2-cotangent")
        inv = numeric_invariants(doc.g_weights, doc.v_weights, (-1, -2))
        assert (inv.dim_v_fixed, inv.dim_g_fixed, inv.d_lambda, inv.r_lambda) == (0, 2, -2, 1)

    def test_zero_cocharacter(self):
        doc, _ = build("gl2-cotangent")
        dim_v, dim_g = total(doc.v_weights), total(doc.g_weights)
        inv = numeric_invariants(doc.g_weights, doc.v_weights, (0, 0))
        assert inv.dim_v_fixed == dim_v
        assert inv.dim_g_fixed == dim_g
        assert inv.d_lambda == dim_v - dim_g
        assert inv.r_lambda == 0

    def test_identity_holds_on_all_strata(self):
        for key in ("gl2-cotangent:2", "sl2-adjoint:3", "adjoint:gl3"):
            doc, strat = build(key)
            d0 = total(doc.v_weights) - total(doc.g_weights)
            for s in strat.strata:
                assert s.dims.d_lambda + 2 * s.dims.r_lambda == d0


class TestGroupDataValidation:
    """The lattice rules of InputDocument.validate."""

    def test_catalog_groups_are_valid(self):
        for key in ("gl2-cotangent", "trivial:sl3", "adjoint:gl3"):
            doc, _ = build(key)
            assert doc.validate() is None

    def test_non_invertible_generator(self):
        g = document(2, (((1, 0), (0, 2)),), ws(((0, 0), 2)))
        with pytest.raises(InputError, match=(
            r"^weyl_generators\[0\] is not the reflection in a root of g_weights$"
        )):
            g.validate()

    @pytest.mark.parametrize("gen,reason", [
        (((1, 2), (2, 4)), "singular"),
        (((1, 1), (-1, 1)), "not invertible over the integers"),
    ])
    def test_generator_without_an_integer_inverse(self, gen, reason):
        # rank 1 and det 2: int_inverse tells the two apart, validate does not;
        # the swap is the reflection in the root (1, -1), which gen moves
        with pytest.raises(ValueError, match=reason):
            int_inverse(gen)
        g = document(2, (((0, 1), (1, 0)), gen), ws(((0, 0), 2), ((1, -1), 1), ((-1, 1), 1)))
        with pytest.raises(InputError, match=(
            r"^g_weights are not stable under weyl_generators\[1\]$"
        )):
            g.validate()

    def test_sl3_generators_have_integer_inverses(self):
        doc, _ = build("trivial:sl3")
        gens = doc.weyl_generators
        assert gens
        for gen in gens:
            inv = int_inverse(gen)
            assert mat_mul(gen, inv) == identity(2)
            assert mat_mul(inv, gen) == identity(2)
            assert all(isinstance(x, int) for row in inv for x in row)

    def test_missing_zero_weight(self):
        g = document(2, (), ws(((0, 0), 1)))
        with pytest.raises(InputError, match="zero weight"):
            g.validate()

    def test_unstable_adjoint_weights(self):
        swap = ((0, 1), (1, 0))
        g = document(2, (swap,), ws(((0, 0), 2), ((1, 0), 1), ((-1, 0), 1)))
        with pytest.raises(InputError, match="stable"):
            g.validate()

    def test_asymmetric_adjoint_weights(self):
        g = document(1, (), ws(((0,), 1), ((2,), 1)))
        with pytest.raises(InputError, match="negation"):
            g.validate()

    def test_rep_stability_checked(self):
        doc, _ = build("gl2-cotangent")
        bad = dataclasses.replace(doc, v_weights=ws(((1, 0), 1), ((-1, 0), 1)))
        with pytest.raises(InputError, match="stable"):
            bad.validate()

    def test_doubled_root(self):
        g = document(1, (), ws(((0,), 1), ((2,), 2), ((-2,), 2)))
        with pytest.raises(InputError, match=(
            r"^g_weights entry \(-2,\) has multiplicity 2; a root has multiplicity 1$"
        )):
            g.validate()


# The catalog keys that scripts/report_hashes.py reports on: the fixed keys,
# gl2-cotangent:0..5, sl2-irrep:1..8 and sl2-adjoint:0..3.
REPORT_KEYS = tuple(key for key in catalog_keys() if ":<" not in key) + tuple(
    f"{name}:{a}"
    for name, arguments in (("gl2-cotangent", range(6)), ("sl2-irrep", range(1, 9)),
                            ("sl2-adjoint", range(4)))
    for a in arguments
)


class TestWhatValidationReliesOn:
    """validate leaves the shapes of generators and weights to the parser,
    and invertibility to the root-reflection rule: a generator with g * g = I
    is its own integer inverse.  Catalog documents are built without the
    parser, so each must come back unchanged through it."""

    @pytest.mark.parametrize("key", REPORT_KEYS)
    def test_catalog_documents_round_trip_through_the_parser(self, key):
        doc = catalog_emit(key)
        assert document_from_dict(json.loads(json.dumps(doc.to_dict()))) == doc

    @pytest.mark.parametrize("key", REPORT_KEYS)
    def test_catalog_generators_are_involutions(self, key):
        doc = catalog_emit(key)
        for gen in doc.weyl_generators:
            assert mat_mul(gen, gen) == identity(doc.rank)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl_generators_are_involutions(self, kind, n):
        doc = document_from_dict(gl_document(n, kind, 1, 0))
        assert len(doc.weyl_generators) == n - 1
        for gen in doc.weyl_generators:
            assert mat_mul(gen, gen) == identity(n)
