from fractions import Fraction

import pytest

from cohint import (
    InputError,
    averaged_form,
    coset_representatives,
    enumerate_group,
    invariant_basis,
    molien_coefficients,
    once,
    point_stabilizer,
    point_stabilizer_of,
    set_stabilizer,
)
from cohint.documents import document_from_dict
from cohint.matrices import identity, mat_mul, mat_vec

from conftest import CATALOG_INSTANCES, build, gl_document
from reference import int_inverse, restrict_action, transpose

SWAP = ((0, 1), (1, 0))


def adjacent_transpositions(n: int):
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    gens = []
    for i in range(n - 1):
        rows = list(unit)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        gens.append(tuple(rows))
    return tuple(gens)


S3_RANK3 = adjacent_transpositions(3)


def cochar_action(w, lam):
    """The contragredient action (M_w^T)^-1 lam on cocharacters."""
    return mat_vec(transpose(int_inverse(w)), lam)


def stabilizer_of_zero_sets(strat, stratum):
    """Setwise stabilizer of a stratum's two zero-sets, through the
    permutation rows of the group on the sorted union of the weight
    supports, the points enumerate_strata gives enumerate_group."""
    doc = strat.document
    points = sorted(set(doc.v_weights.supports()) | set(doc.g_weights.supports()))
    index = {p: i for i, p in enumerate(points)}
    zero_sets = ([index[w] for w in stratum.zero_v], [index[w] for w in stratum.zero_g])
    return set_stabilizer(strat.weyl, zero_sets)


class TestEnumerateGroup:
    def test_order_two(self):
        assert enumerate_group((SWAP,), 2).order == 2

    def test_s3_from_adjacent_transpositions(self):
        assert enumerate_group(S3_RANK3, 3).order == 6

    def test_infinite_group_hits_cap(self):
        # two reflections in the root (1, 0) whose product is a shear
        with pytest.raises(InputError, match="not finite"):
            enumerate_group((((-1, 0), (0, 1)), ((-1, 1), (0, 1))), 2, cap=100)

    @pytest.mark.parametrize("generator", [
        ((1, 1), (0, 1)),  # a shear
        ((2, 0), (0, 1)),  # no integer inverse
        ((1, 0), (0, 0)),  # singular
    ])
    def test_generator_that_is_not_an_involution(self, generator):
        with pytest.raises(InputError, match=r"weyl_generators\[1\] is not an involution"):
            enumerate_group((SWAP, generator), 2, cap=50)

    def test_trivial_group(self):
        group = enumerate_group((), 2)
        assert group.order == 1
        assert group.elements[0] == identity(2)

    def test_tables_are_closed_with_identity_and_inverses(self):
        group = enumerate_group(S3_RANK3, 3)
        index = {w: i for i, w in enumerate(group.elements)}
        n = group.order
        for i, w in enumerate(group.elements):
            assert group.product(i, index[int_inverse(w)]) == group.identity_index
            for j in range(n):
                assert 0 <= group.product(i, j) < n

    def test_dense_generator_matches_a_mat_mul_closure(self):
        # adjoint:sl3's generator ((1, -1), (0, -1)) has the column (-1, -1),
        # with two nonzero entries
        gens = build("adjoint:sl3")[0].weyl_generators
        assert any(sum(1 for x in col if x) == 2 for g in gens for col in zip(*g))
        one = identity(2)
        reached = {one}
        frontier = [one]
        while frontier:
            frontier = [p for p in {mat_mul(m, g) for m in frontier for g in gens}
                        if p not in reached]
            reached.update(frontier)
        group = enumerate_group(gens, 2)
        assert group.order == 6
        assert group.elements == tuple(sorted(reached))

    def test_element_order_is_by_matrix_entries(self):
        group = enumerate_group((SWAP,), 2)
        mats = list(group.elements)
        assert mats == sorted(mats)


@pytest.mark.parametrize("n", [3, 4])
class TestTableFreeGroup:
    def test_product_indexes_the_matrix_product(self, n):
        group = enumerate_group(adjacent_transpositions(n), n)
        assert group.order == (6 if n == 3 else 24)
        for i, a in enumerate(group.elements):
            for j, b in enumerate(group.elements):
                ab = group.product(i, j)
                assert group.elements[ab] == mat_mul(a, b)

    def test_inverse_gives_the_identity(self, n):
        group = enumerate_group(adjacent_transpositions(n), n)
        index = {w: i for i, w in enumerate(group.elements)}
        for i, w in enumerate(group.elements):
            inverse = index[int_inverse(w)]
            assert group.product(i, inverse) == group.identity_index
            assert group.product(inverse, i) == group.identity_index

    def test_cochar_matrix_is_the_inverse_transpose(self, n):
        # the columns of the cocharacter matrix C_w, as rows, form C_w^T; it
        # inverts M_w, and the cocharacter matrix of w^-1 is M_w^T
        group = enumerate_group(adjacent_transpositions(n), n)
        index = {w: i for i, w in enumerate(group.elements)}
        units = identity(n)
        for w in group.elements:
            assert mat_mul(tuple(cochar_action(w, e) for e in units), w) == units
            w_inv = group.elements[index[int_inverse(w)]]
            assert tuple(cochar_action(w_inv, e) for e in units) == w

    def test_generators_index_the_generator_matrices(self, n):
        gens = adjacent_transpositions(n)
        group = enumerate_group(gens, n)
        assert [group.elements[i] for i in group.generators] == list(gens)


class TestActions:
    def test_identity_action(self):
        group = enumerate_group((SWAP,), 2)
        e = group.elements[group.identity_index]
        assert cochar_action(e, (3, -5)) == (3, -5)

    def test_swap_action_on_cocharacters(self):
        group = enumerate_group((SWAP,), 2)
        swap = group.elements[group.elements.index(SWAP)]
        assert cochar_action(swap, (-1, 0)) == (0, -1)
        assert cochar_action(swap, (-1, -1)) == (-1, -1)

    def test_action_composes(self):
        _, strat = build("trivial:sl3")
        group = strat.weyl
        lam = (2, -5)
        for i, a in enumerate(group.elements):
            for j, b in enumerate(group.elements):
                ab = group.elements[group.product(i, j)]
                assert cochar_action(ab, lam) == cochar_action(a, cochar_action(b, lam))
                assert mat_vec(ab, lam) == mat_vec(a, mat_vec(b, lam))


class TestStabilizers:
    def test_point_stabilizer_whole_group(self):
        group = enumerate_group((SWAP,), 2)
        assert point_stabilizer(group.full_subgroup(), (1, 1)).order == 2

    def test_point_stabilizer_trivial(self):
        group = enumerate_group((SWAP,), 2)
        assert point_stabilizer(group.full_subgroup(), (-1, 0)).order == 1

    def test_point_stabilizer_rank1_sign(self):
        group = enumerate_group((((-1,),),), 1)
        assert point_stabilizer(group.full_subgroup(), (1,)).order == 1

    def test_set_stabilizer_of_empty_zero_set(self, gl2_strat):
        sub = stabilizer_of_zero_sets(gl2_strat, gl2_strat.strata[0])
        assert sub.order == 2

    def test_set_stabilizer_of_axis(self, gl2_strat):
        sub = stabilizer_of_zero_sets(gl2_strat, gl2_strat.strata[1])
        assert sub.order == 1

    def test_set_stabilizer_of_top(self, gl2_strat):
        sub = stabilizer_of_zero_sets(gl2_strat, gl2_strat.top)
        assert sub.order == 2

    def test_rows_index_the_images(self, gl2_strat):
        points = ((-1, 0), (0, -1), (0, 0), (1, 0), (0, 1))
        group = enumerate_group(gl2_strat.document.weyl_generators, 2, points=points)
        for w, images in zip(group.elements, group.rows):
            assert sorted(images) == list(range(len(points)))
            for p, image in zip(points, images):
                assert points[image] == mat_vec(w, p)

    def test_rows_need_stable_points(self, gl2_strat):
        with pytest.raises(InputError, match=(
            r"^the group does not permute the weights: \(0, 1\) is not among them$"
        )):
            enumerate_group(gl2_strat.document.weyl_generators, 2, points=((1, 0),))


def direct_action_table(group, points):
    """images[w][p] from each element's own matrix."""
    return tuple(
        tuple(points.index(mat_vec(w, p)) for p in points) for w in group.elements
    )


def weights_and_group(doc):
    points = tuple(sorted(set(doc.v_weights.supports()) | set(doc.g_weights.supports())))
    return enumerate_group(doc.weyl_generators, doc.rank, points=points), points


class TestRowsAlongTheClosure:
    """Rows composed along the closure against the table read off every
    element's matrix, on the weights of each input; the catalog includes sl3
    on its rank-2 lattice (adjoint:sl3, trivial:sl3)."""

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_catalog(self, key):
        group, points = weights_and_group(build(key)[0])
        assert group.rows == direct_action_table(group, points)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl(self, n, kind):
        group, points = weights_and_group(document_from_dict(gl_document(n, kind, 1, 0)))
        assert group.rows == direct_action_table(group, points)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_trivial_group(self, rank):
        points = tuple(tuple(int(i == j) * s for j in range(rank))
                       for i in range(rank) for s in (-1, 1))
        assert enumerate_group((), rank, points=points).rows == (tuple(range(2 * rank)),)
        assert enumerate_group((), rank).rows == ((),)

    def test_no_points_give_empty_rows(self):
        group = enumerate_group(adjacent_transpositions(4), 4)
        assert group.order == 24
        assert group.rows == ((),) * 24

    def test_unstable_points_fail_before_the_cap(self):
        # two reflections in the root (1, 0) generate an infinite group; the
        # first maps (1, 0) to (-1, 0), which is not among the points, and the
        # generators' permutations are read before the closure starts
        gens = (((-1, 0), (0, 1)), ((-1, 1), (0, 1)))
        with pytest.raises(InputError, match=(
            r"^the group does not permute the weights: \(-1, 0\) is not among them$"
        )):
            enumerate_group(gens, 2, cap=10, points=((1, 0),))
        with pytest.raises(InputError, match="not finite"):
            enumerate_group(gens, 2, cap=10)


class TestCosets:
    def test_equal_subgroups_give_identity(self):
        group = enumerate_group((SWAP,), 2)
        full = group.full_subgroup()
        reps = coset_representatives(full, full)
        assert [group.elements.index(w) for w in reps] == [group.identity_index]

    def test_trivial_subgroup_gives_everything(self):
        group = enumerate_group((SWAP,), 2)
        trivial = group.subgroup([group.identity_index])
        assert len(coset_representatives(trivial, group.full_subgroup())) == 2

    def test_index_three(self):
        group = enumerate_group(S3_RANK3, 3)
        transposition = next(
            i for i, w in enumerate(group.elements)
            if w != identity(3) and group.product(i, i) == group.identity_index
        )
        h = group.subgroup([group.identity_index, transposition])
        reps = coset_representatives(h, group.full_subgroup())
        assert len(reps) == 3
        assert group.elements.index(reps[0]) == group.identity_index

    def test_containment_required(self):
        group = enumerate_group(S3_RANK3, 3)
        other = next(
            i for i in range(group.order)
            if i != group.identity_index
            and group.product(i, i) == group.identity_index
        )
        h = group.subgroup([group.identity_index, other])
        k = group.subgroup([group.identity_index])
        with pytest.raises(InputError, match="contained"):
            coset_representatives(h, k)

    def test_representatives_cover_cosets_once(self):
        group = enumerate_group(S3_RANK3, 3)
        trans = [i for i in range(group.order)
                 if i != group.identity_index
                 and group.product(i, i) == group.identity_index]
        h = group.subgroup([group.identity_index, trans[0]])
        reps = coset_representatives(h, group.full_subgroup())
        covered = {group.product(group.elements.index(r), j) for r in reps for j in h.members}
        assert covered == set(range(group.order))


class TestAveragedForm:
    def test_trivial_group_gives_identity(self):
        group = enumerate_group((), 2)
        assert averaged_form(group) == tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(2)) for i in range(2)
        )

    def test_permutations_average_to_identity(self):
        group = enumerate_group((SWAP,), 2)
        b = averaged_form(group)
        assert b == tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(2)) for i in range(2)
        )

    def test_rank1_sign_group(self):
        group = enumerate_group((((-1,),),), 1)
        assert averaged_form(group) == ((Fraction(1),),)

    def test_invariance(self):
        for key in ("trivial:sl3", "adjoint:gl3"):
            _, strat = build(key)
            b = averaged_form(strat.weyl)
            for w in strat.weyl.elements:
                assert mat_mul(transpose(w), mat_mul(b, w)) == b


class TestMolien:
    def test_symmetric_pair_of_variables(self):
        group = enumerate_group((SWAP,), 2)
        elements = [(w, (1,)) for w in group.elements]
        assert molien_coefficients(elements, 5) == tuple(
            Fraction(c) for c in (1, 1, 2, 2, 3, 3)
        )

    def test_sign_isotypic_part(self):
        group = enumerate_group((SWAP,), 2)
        elements = [
            (w, (1,) if i == group.identity_index else (-1,))
            for i, w in enumerate(group.elements)
        ]
        assert molien_coefficients(elements, 5) == tuple(
            Fraction(c) for c in (0, 1, 1, 2, 2, 3)
        )

    def test_numerator_shifts_the_series(self):
        group = enumerate_group((SWAP,), 2)
        plain = molien_coefficients([(w, (1,)) for w in group.elements], 5)
        shifted = molien_coefficients([(w, (0, 1)) for w in group.elements], 5)
        assert shifted == (Fraction(0),) + plain[:-1]

    def test_trivial_group_single_variable(self):
        assert molien_coefficients([(((1,),), (1,))], 3) == tuple(Fraction(1) for _ in range(4))

    def test_matches_invariant_basis_dimensions(self):
        for key in ("gl2-cotangent", "trivial:sl3"):
            _, strat = build(key)
            group = strat.weyl
            n = group.rank
            elements = [(w, (1,)) for w in group.elements]
            series = molien_coefficients(elements, 4)
            coords = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
            for p in range(5):
                basis = invariant_basis(group.full_subgroup(), p, coords)
                assert series[p] == basis.dim

    def test_restricted_action_matches_invariant_dimensions(self):
        # subgroup acting on the span of a stratum's vanishing weights
        _, strat = build("gl2-cotangent")
        for s in strat.strata:
            h = once(strat, point_stabilizer_of, s.index)
            basis = strat.u_bases[s.index]
            if not basis:
                continue
            elements = [(restrict_action(w, basis), (1,)) for w in h.elements()]
            series = molien_coefficients(elements, 4)
            for p in range(5):
                assert series[p] == invariant_basis(h, p, basis).dim
