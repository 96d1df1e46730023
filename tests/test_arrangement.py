import itertools

import pytest

from cohint import (
    Flat,
    InputError,
    InternalCheckError,
    align_representative,
    enumerate_strata,
    numeric_invariants,
    representative_cocharacter,
    with_representative,
)
from cohint.arrangement import generic_points
from cohint.documents import document_from_dict
from cohint.matrices import dot, hnf, int_kernel
from cohint.weyl import char_action, cochar_action, point_stabilizer

from conftest import build, gl_document

RANK_LE_3 = ("torus2-cotangent", "gl2-cotangent", "sl2-irrep:4", "trivial:sl3", "adjoint:gl3")


class TestStratumCounts:
    def test_torus(self, torus_strat):
        assert len(torus_strat.strata) == 4
        assert len(torus_strat.orbits) == 4

    def test_gl2(self, gl2_strat):
        assert len(gl2_strat.strata) == 5
        assert len(gl2_strat.orbits) == 4
        sizes = sorted(len(o) for o in gl2_strat.orbits)
        assert sizes == [1, 1, 1, 2]

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_sl2_irreps(self, d):
        _, strat = build(f"sl2-irrep:{d}")
        assert len(strat.strata) == 2
        assert len(strat.orbits) == 2

    def test_not_weakly_symmetric_rejected(self):
        doc, _ = build("gl2-cotangent")
        from cohint import RepresentationData, WeightMultiset

        bad = RepresentationData(
            WeightMultiset.from_pairs([((1, 0), 1), ((0, 1), 1)])
        )
        with pytest.raises(InputError):
            enumerate_strata(doc.group_data(), bad)

    def test_full_space_and_total_intersection_present(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            n = strat.group.rank
            dims = [s.flat.dim for s in strat.strata]
            assert n in dims
            assert strat.top.flat.basis == int_kernel(list(strat.hyperplanes), n)

    def test_brute_force_flat_count(self):
        # oracle: distinct subspaces arising as intersections of hyperplane subsets
        for key in RANK_LE_3:
            _, strat = build(key)
            n = strat.group.rank
            hyps = strat.hyperplanes
            kernels = set()
            for size in range(len(hyps) + 1):
                for subset in itertools.combinations(hyps, size):
                    kernels.add(int_kernel(list(subset), n))
            assert len(kernels) == len(strat.strata), key


class TestRepresentatives:
    def test_axis_flat(self, gl2_strat):
        axis = gl2_strat.strata[2]
        assert axis.rep == (1, 0)
        assert set(axis.zero_v) == {(0, 1), (0, -1)}

    def test_zero_flat(self, gl2_strat):
        assert gl2_strat.top.rep == (0, 0)
        assert representative_cocharacter(Flat(()), (), (), rank=2) == (0, 0)

    def test_support_vanishing_off_the_zero_set_is_an_error(self):
        # (0, 1) vanishes on the flat spanned by (1, 0) but is not listed as
        # zero, so no point of the flat avoids it
        with pytest.raises(InternalCheckError, match=r"\(\(1, 0\),\)"):
            representative_cocharacter(Flat(((1, 0),)), [(0, 1)], [], 2)

    def test_full_space_skips_non_generic_point(self, gl2_strat):
        # (1,1) lies on the root hyperplane, so the search must move on
        assert gl2_strat.strata[0].rep == (1, 2)

    def test_genericity(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            for s in strat.strata:
                in_zero = set(s.zero_v) | set(s.zero_g)
                for u in strat.all_supports():
                    assert (dot(s.rep, u) == 0) == (u in in_zero)

    def test_flat_dim_plus_zero_span_is_rank(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            n = strat.group.rank
            for s in strat.strata:
                assert s.flat.dim + len(strat.u_bases[s.index]) == n


class TestOrder:
    def test_gl2_relations(self, gl2_strat):
        generic, axis1, axis2, diag, top = (s.index for s in gl2_strat.strata)
        leq = gl2_strat.leq
        assert leq(generic, axis1) and leq(generic, diag) and leq(generic, top)
        assert leq(axis1, top) and leq(diag, top)
        assert not leq(axis1, axis2) and not leq(axis2, axis1)
        assert not leq(axis1, diag)

    def test_everything_below_top(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            for s in strat.strata:
                assert strat.leq(s.index, strat.top_index)

    def test_partial_order_axioms(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            count = len(strat.strata)
            leq = strat.leq
            for i in range(count):
                assert leq(i, i)
                for j in range(count):
                    if i != j:
                        assert not (leq(i, j) and leq(j, i))
                    for k in range(count):
                        if leq(i, j) and leq(j, k):
                            assert leq(i, k)

    def test_covers_are_the_hasse_diagram(self):
        for key in RANK_LE_3:
            assert_covers_are_the_hasse_diagram(build(key)[1])

    def test_cover_edge_with_a_larger_source_stabilizer_is_an_error(self, monkeypatch):
        # the zero cocharacter (top of gl2-cotangent) gets the trivial
        # stabilizer, so the diagonal stratum 3 under it has the larger one
        import cohint.arrangement as arrangement

        def shrunk(group, rep):
            if any(rep):
                return point_stabilizer(group, rep)
            return group.subgroup([group.identity_index])

        doc, _ = build("gl2-cotangent")
        monkeypatch.setattr(arrangement, "point_stabilizer", shrunk)
        with pytest.raises(InternalCheckError, match=r"stratum 3 .* stratum 4"):
            enumerate_strata(doc.group_data(), doc.rep_data())

    def test_order_mirrors_flat_inclusion(self, gl2_strat):
        # flat(b) inside flat(a) iff a <= b
        for a in gl2_strat.strata:
            for b in gl2_strat.strata:
                inside = all(
                    dot(row, u) == 0
                    for row in b.flat.basis
                    for u in list(a.zero_v) + list(a.zero_g)
                )
                assert inside == gl2_strat.leq(a.index, b.index)


def assert_covers_are_the_hasse_diagram(strat):
    """covers against the Hasse diagram of zero-set inclusion, and the order
    against the inclusion itself, both by brute force over all strata."""
    zero = [(frozenset(s.zero_v), frozenset(s.zero_g)) for s in strat.strata]
    count = len(zero)

    def leq(a, b):
        return zero[a][0] <= zero[b][0] and zero[a][1] <= zero[b][1]

    for b in range(count):
        covered = tuple(
            a for a in range(count)
            if a != b and leq(a, b)
            and not any(c not in (a, b) and leq(a, c) and leq(c, b) for c in range(count))
        )
        assert strat.covers[b] == covered, b
        for a in range(count):
            assert strat.leq(a, b) == leq(a, b), (a, b)


class TestGroupActionOnStrata:
    def test_orbits_partition(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            seen = [i for orbit in strat.orbits for i in orbit]
            assert sorted(seen) == list(range(len(strat.strata)))

    def test_zero_sets_map_to_zero_sets(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            zero_sets = {(frozenset(s.zero_v), frozenset(s.zero_g)) for s in strat.strata}
            for w in strat.weyl.elements:
                for s in strat.strata:
                    image = (
                        frozenset(char_action(w, a) for a in s.zero_v),
                        frozenset(char_action(w, a) for a in s.zero_g),
                    )
                    assert image in zero_sets

    def test_orbit_representative_is_least(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            for orbit in strat.orbits:
                assert orbit[0] == min(orbit)


def brute_force_orbits_and_stabilizers(strat):
    """Orbits from the images of every element on the HNF flat bases, and
    stabilizers from every element's action on the weights and cocharacters."""
    index_of = {s.flat.basis: s.index for s in strat.strata}
    orbits = set()
    for s in strat.strata:
        images = {
            index_of[hnf([cochar_action(w, b) for b in s.flat.basis])]
            for w in strat.weyl.elements
        }
        orbits.add(tuple(sorted(images)))
    set_stabs, point_stabs = [], []
    for s in strat.strata:
        zero_v, zero_g = frozenset(s.zero_v), frozenset(s.zero_g)
        set_stabs.append(tuple(
            w.index for w in strat.weyl.elements
            if frozenset(char_action(w, a) for a in zero_v) == zero_v
            and frozenset(char_action(w, a) for a in zero_g) == zero_g
        ))
        point_stabs.append(tuple(
            w.index for w in strat.weyl.elements if cochar_action(w, s.rep) == s.rep
        ))
    return sorted(orbits), set_stabs, point_stabs


@pytest.mark.parametrize(
    "spec, counts",
    [(("adjoint", 1, 0), (15, 5)), (("cotangent", 1, 1), (52, 12))],
    ids=["adjoint", "cotangent"],
)
class TestGl4PermutationAction:
    """gl4 with the adjoint has the set partitions of 4 points as strata
    (Bell number 15) and the partitions of 4 as orbits (5); on C^4 + (C^4)*
    it has the set partitions of 5 points (52) and sum_{k<=4} p(k) = 12
    orbits."""

    @staticmethod
    def stratify(spec):
        doc = document_from_dict(gl_document(4, *spec))
        return enumerate_strata(doc.group_data(), doc.rep_data())

    def test_closed_form_counts(self, spec, counts):
        strat = self.stratify(spec)
        assert (len(strat.strata), len(strat.orbits)) == counts

    def test_matches_the_brute_force_action(self, spec, counts):
        strat = self.stratify(spec)
        orbits, set_stabs, point_stabs = brute_force_orbits_and_stabilizers(strat)
        assert list(strat.orbits) == orbits
        assert [sub.members for sub in strat.set_stabilizers] == set_stabs
        assert [sub.members for sub in strat.point_stabilizers] == point_stabs
        for k, orbit in enumerate(strat.orbits):
            assert all(strat.orbit_of[i] == k for i in orbit)

    def test_covers_are_the_hasse_diagram(self, spec, counts):
        assert_covers_are_the_hasse_diagram(self.stratify(spec))


class TestStabilizers:
    def test_point_inside_set_stabilizer(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            for s in strat.strata:
                point = set(strat.point_stabilizers[s.index].members)
                setwise = set(strat.set_stabilizers[s.index].members)
                assert point <= setwise

    def test_gl2_orders(self, gl2_strat):
        orders = [
            (strat_order.order, point_order.order)
            for strat_order, point_order in zip(
                gl2_strat.set_stabilizers, gl2_strat.point_stabilizers
            )
        ]
        assert orders == [(2, 1), (1, 1), (1, 1), (2, 2), (2, 2)]


class TestRepresentativeIndependence:
    def test_dimension_counts_agree_at_second_representative(self):
        for key in ("gl2-cotangent", "trivial:sl3"):
            doc, strat = build(key)
            group, rep = doc.group_data(), doc.rep_data()
            for s in strat.strata:
                if not any(s.rep):
                    continue
                other = tuple(-c for c in s.rep)
                dims = numeric_invariants(group, rep, other)
                assert dims == s.dims

    def test_with_representative_validates(self, gl2_strat):
        generic = gl2_strat.strata[0]
        replaced = with_representative(gl2_strat, generic, (-1, -2))
        assert replaced.rep == (-1, -2)
        assert replaced.dims == generic.dims
        with pytest.raises(InputError):
            with_representative(gl2_strat, generic, (1, 1))


class TestAlignRepresentative:
    def test_parent_signs_are_preserved(self):
        for key in ("torus2-cotangent", "gl2-cotangent", "trivial:sl3"):
            _, strat = build(key)
            supports = strat.all_supports()
            for child in strat.strata:
                for parent in strat.strata:
                    if child.index == parent.index or not strat.leq(child.index, parent.index):
                        continue
                    nu = align_representative(child, parent.rep, supports)
                    for u in supports:
                        pp = dot(parent.rep, u)
                        if pp != 0:
                            assert (dot(nu, u) > 0) == (pp > 0)
                        else:
                            assert (dot(nu, u) == 0) == (dot(child.rep, u) == 0)

    def test_gl2_child_full_space(self, gl2_strat):
        supports = gl2_strat.all_supports()
        nu = align_representative(gl2_strat.strata[0], (-1, 0), supports)
        assert dot(nu, (1, 0)) < 0
        assert dot(nu, (1, -1)) < 0
        assert dot(nu, (0, 1)) != 0

    def test_generic_points_avoid_every_support(self, gl2_strat):
        supports = gl2_strat.all_supports()
        points = generic_points(supports, 2, 6)
        assert len(set(points)) == 6
        assert all(dot(pt, u) != 0 for pt in points for u in supports)
        assert generic_points(supports, 2, 0) == ()

    def test_child_equal_parent_keeps_class(self, gl2_strat):
        axis = gl2_strat.strata[2]
        nu = align_representative(axis, axis.rep, gl2_strat.all_supports())
        assert with_representative(gl2_strat, axis, nu).rep == nu


class TestFlatCanonicalization:
    def test_hnf_identity(self):
        assert hnf([[2, 0], [0, 2], [1, 1]]) == ((1, 1), (0, 2))

    def test_kernel_is_saturated(self):
        # kernel of (2, 4) must contain the primitive (2, -1), not just (4, -2)
        assert int_kernel([(2, 4)], 2) == ((2, -1),)
