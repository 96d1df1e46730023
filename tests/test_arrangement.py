import dataclasses
import itertools
import json
import math

import pytest

from cohint import (
    InputError,
    InternalCheckError,
    align_representative,
    arrangement,
    catalog_emit,
    enumerate_strata,
    integrality,
    once,
    point_stabilizer_of,
    representative_cocharacter,
    set_stabilizer_of,
    with_representative,
)
from cohint.cli import EXIT_VALIDATION, main, run
from cohint.documents import document_from_dict
from cohint.matrices import dot, hnf, mat_mul, mat_vec, rref
from cohint.weyl import point_stabilizer, set_stabilizer

from conftest import CATALOG_INSTANCES, build, gl_document
from reference import generic_points, int_inverse, int_kernel, numeric_invariants, transpose

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
        from cohint import WeightMultiset

        bad = dataclasses.replace(
            doc, v_weights=WeightMultiset.from_pairs([((1, 0), 1), ((0, 1), 1)])
        )
        with pytest.raises(InputError):
            enumerate_strata(bad)

    def test_unvalidated_singular_generator_rejected(self):
        # the document skips validation, and diag(1, 0) with I would close
        # up as a "group" of order 2 with two strata
        doc = document_from_dict({
            "rank": 2,
            "weyl_generators": [[[1, 0], [0, 0]]],
            "g_weights": [{"alpha": [0, 0], "multiplicity": 2}],
            "v_weights": [{"alpha": [1, 0]}, {"alpha": [-1, 0]}],
        })
        with pytest.raises(InputError, match=r"weyl_generators\[0\] is not an involution"):
            enumerate_strata(doc)

    def test_full_space_and_total_intersection_present(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            n = strat.document.rank
            dims = [len(s.flat) for s in strat.strata]
            assert n in dims
            assert strat.top.flat == int_kernel(list(strat.hyperplanes), n)

    def test_brute_force_flat_count(self):
        # oracle: distinct subspaces arising as intersections of hyperplane
        # subsets, as HNF bases, against the flats, one per stratum
        for key in RANK_LE_3:
            _, strat = build(key)
            n = strat.document.rank
            hyps = strat.hyperplanes
            kernels = set()
            for size in range(len(hyps) + 1):
                for subset in itertools.combinations(hyps, size):
                    kernels.add(int_kernel(list(subset), n))
            assert len(kernels) == len(strat.strata), key
            assert kernels == {s.flat for s in strat.strata}, key


class TestRepresentatives:
    def test_axis_flat(self, gl2_strat):
        axis = gl2_strat.strata[2]
        assert axis.rep == (1, 0)
        assert set(axis.zero_v) == {(0, 1), (0, -1)}

    def test_zero_flat(self, gl2_strat):
        assert gl2_strat.top.rep == (0, 0)
        assert representative_cocharacter((), (), (), rank=2) == (0, 0)

    def test_support_vanishing_off_the_zero_set_is_an_error(self):
        # the hyperplane (0, 1) contains the flat spanned by (1, 0) but is not
        # in the incidence set, so no point of the flat avoids it
        with pytest.raises(InternalCheckError, match=r"\(\(1, 0\),\)"):
            representative_cocharacter(((1, 0),), [(0, 1)], [], 2)

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
            n = strat.document.rank
            for s in strat.strata:
                assert len(s.flat) + len(strat.u_bases[s.index]) == n

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_u_basis_spans_the_zero_supports(self, key):
        _, strat = build(key)
        n = strat.document.rank
        for s in strat.strata:
            zero = [w for w in s.zero_v + s.zero_g if any(w)]
            u_basis = strat.u_bases[s.index]
            span = rref(zero, n)[0]
            assert len(u_basis) == len(span), s.index
            assert rref(u_basis, n)[0] == span, s.index


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

        def shrunk(candidates, rep):
            if any(rep):
                return point_stabilizer(candidates, rep)
            return candidates.parent.subgroup([candidates.parent.identity_index])

        doc, _ = build("gl2-cotangent")
        monkeypatch.setattr(arrangement, "point_stabilizer", shrunk)
        strat = enumerate_strata(doc)
        with pytest.raises(InternalCheckError, match=r"stratum 3 .* stratum 4"):
            integrality.bps_space(strat, strat.top)

    def test_order_mirrors_flat_inclusion(self, gl2_strat):
        # flat(b) inside flat(a) iff a <= b
        for a in gl2_strat.strata:
            for b in gl2_strat.strata:
                inside = all(
                    dot(row, u) == 0
                    for row in b.flat
                    for u in list(a.zero_v) + list(a.zero_g)
                )
                assert inside == gl2_strat.leq(a.index, b.index)


def assert_covers_are_the_hasse_diagram(strat):
    """covers against the Hasse diagram of zero-set inclusion, and the order
    against the inclusion itself, both by brute force over all strata."""
    zero = [(frozenset(s.zero_v), frozenset(s.zero_g)) for s in strat.strata]
    count = len(zero)
    below = [
        {a for a in range(count) if zero[a][0] <= zero[b][0] and zero[a][1] <= zero[b][1]}
        for b in range(count)
    ]
    for b in range(count):
        strictly = below[b] - {b}
        covered = tuple(sorted(
            a for a in strictly if not any(a in below[c] for c in strictly - {a})
        ))
        assert strat.covers[b] == covered, b
        for a in range(count):
            assert strat.leq(a, b) == (a in below[b]), (a, b)


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
                        frozenset(mat_vec(w, a) for a in s.zero_v),
                        frozenset(mat_vec(w, a) for a in s.zero_g),
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
    index_of = {s.flat: s.index for s in strat.strata}
    cochar_matrices = contragredients(strat.weyl)
    zero = (0,) * strat.document.rank
    orbits, reached = [], set()
    for s in strat.strata:
        if s.index in reached:
            continue
        images = {
            index_of[hnf([mat_vec(c, b) for b in s.flat])] for c in cochar_matrices
        }
        orbits.append(tuple(sorted(images)))
        reached.update(images)
    image = [{a: mat_vec(w, a) for a in strat.all_supports() + (zero,)}
             for w in strat.weyl.elements]
    set_stabs, point_stabs = [], []
    for s in strat.strata:
        zero_v, zero_g = frozenset(s.zero_v), frozenset(s.zero_g)
        set_stabs.append(tuple(
            w for w, moved in enumerate(image)
            if frozenset(moved[a] for a in zero_v) == zero_v
            and frozenset(moved[a] for a in zero_g) == zero_g
        ))
        point_stabs.append(scanned_point_stabilizer(cochar_matrices, s.rep))
    return sorted(orbits), set_stabs, point_stabs


class PermutationActionChecks:
    """Strata of gl_rank acting by its adjoint, or on C^rank + (C^rank)*
    plus a zero weight, against their closed-form counts and brute force."""

    rank = 0

    def stratify(self, spec):
        return enumerate_strata(document_from_dict(gl_document(self.rank, *spec)))

    def test_closed_form_counts(self, spec, counts):
        strat = self.stratify(spec)
        assert (len(strat.strata), len(strat.orbits)) == counts

    def test_matches_the_brute_force_action(self, spec, counts):
        strat = self.stratify(spec)
        orbits, set_stabs, point_stabs = brute_force_orbits_and_stabilizers(strat)
        assert list(strat.orbits) == orbits
        indices = range(len(strat.strata))
        assert [once(strat, set_stabilizer_of, i).members for i in indices] == set_stabs
        assert [once(strat, point_stabilizer_of, i).members for i in indices] == point_stabs
        for k, orbit in enumerate(strat.orbits):
            assert all(strat.orbit_of[i] == k for i in orbit)

    def test_covers_are_the_hasse_diagram(self, spec, counts):
        # with and without a zero weight, which lies in every stratum's key
        kind, m, _ = spec
        for z in (0, 1):
            strat = self.stratify((kind, m, z))
            assert (len(strat.strata), len(strat.orbits)) == counts
            assert_covers_are_the_hasse_diagram(strat)


@pytest.mark.parametrize(
    "spec, counts",
    [(("adjoint", 1, 0), (15, 5)), (("cotangent", 1, 1), (52, 12))],
    ids=["adjoint", "cotangent"],
)
class TestGl4PermutationAction(PermutationActionChecks):
    """gl4 with the adjoint has the set partitions of 4 points as strata
    (Bell number 15) and the partitions of 4 as orbits (5); on C^4 + (C^4)*
    it has the set partitions of 5 points (52) and sum_{k<=4} p(k) = 12
    orbits."""

    rank = 4


@pytest.mark.parametrize(
    "spec, counts",
    [(("adjoint", 1, 0), (52, 7)), (("cotangent", 1, 1), (203, 19))],
    ids=["adjoint", "cotangent"],
)
class TestGl5PermutationAction(PermutationActionChecks):
    """gl5: Bell numbers 52 and 203, p(5) = 7 and sum_{k<=5} p(k) = 19."""

    rank = 5


def contragredients(weyl):
    """Every element's cocharacter matrix (M_w^-1)^T, one inverse per element."""
    return tuple(transpose(int_inverse(w)) for w in weyl.elements)


def scanned_point_stabilizer(cochar_matrices, lam):
    """Indices of every element of the group whose cocharacter matrix fixes lam."""
    return tuple(i for i, c in enumerate(cochar_matrices) if mat_vec(c, lam) == tuple(lam))


# The swap of two coordinates with V = +/-(1, 1) and no roots: the generic
# representative (1, 1) is fixed by the swap, the one of the flat
# x1 + x2 = 0 is not, so the cover edge between them fails its check.
# Validation rejects the document, since the swap is not the reflection in
# a root; bps_space on an unvalidated stratification reaches the edge.
SWAP_WITHOUT_ROOTS = {
    "name": "swap-without-roots",
    "rank": 2,
    "weyl_generators": [[[0, 1], [1, 0]]],
    "g_weights": [{"alpha": [0, 0], "multiplicity": 2}],
    "v_weights": [{"alpha": [1, 1], "multiplicity": 1},
                  {"alpha": [-1, -1], "multiplicity": 1}],
}


class TestPointStabilizerOracle:
    """Each stratum's point stabilizer, searched among the members of its set
    stabilizer, against a scan of the whole group."""

    @staticmethod
    def assert_scans_agree(strat):
        cochar_matrices = contragredients(strat.weyl)
        for s in strat.strata:
            assert once(strat, point_stabilizer_of, s.index).members == scanned_point_stabilizer(
                cochar_matrices, s.rep), s.index

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_catalog(self, key):
        self.assert_scans_agree(build(key)[1])

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl(self, n, kind):
        doc = document_from_dict(gl_document(n, kind, 1, 0))
        self.assert_scans_agree(enumerate_strata(doc))

    def test_swap_without_roots_fails_at_the_cover_edge(self, monkeypatch, tmp_path, capsys):
        searched = []

        def checked(candidates, lam):
            found = point_stabilizer(candidates, lam)
            assert found.members == scanned_point_stabilizer(
                contragredients(candidates.parent), lam)
            searched.append(found.order)
            return found

        monkeypatch.setattr(arrangement, "point_stabilizer", checked)
        strat = enumerate_strata(document_from_dict(SWAP_WITHOUT_ROOTS))
        with pytest.raises(InternalCheckError, match=(
            "^the point stabilizer of stratum 0 is not inside that of stratum 1, which covers it$"
        )):
            integrality.bps_space(strat, strat.strata[1])
        # stratum 1's stabilizer first, as the Levi group, then its cover's
        assert searched == [1, 2]
        # The swap is not the reflection in a root, so validation stops the CLI first.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(SWAP_WITHOUT_ROOTS))
        assert main(["strata", "--input", str(path)]) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "weyl_generators[0] is not the reflection in a root of g_weights"


# -I fixes every weight: its row and the identity's are one row.
MINUS_IDENTITY = {
    "name": "minus-identity",
    "rank": 2,
    "weyl_generators": [[[-1, 0], [0, -1]]],
    "g_weights": [{"alpha": [0, 0], "multiplicity": 2}],
    "v_weights": [],
}

# gl2 times a torus, on C^2 + (C^2)*: the swap of the first two coordinates
# permutes the strata x1 = 0 and x2 = 0, and diag(1, 1, -1) fixes every
# weight, so the set stabilizer of the orbit's second stratum has two
# elements with one row.
SWAP_AND_HIDDEN_SIGN = {
    "name": "swap-and-hidden-sign",
    "rank": 3,
    "weyl_generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]],
    "g_weights": [{"alpha": [0, 0, 0], "multiplicity": 3},
                  {"alpha": [1, -1, 0], "multiplicity": 1},
                  {"alpha": [-1, 1, 0], "multiplicity": 1}],
    "v_weights": [{"alpha": a, "multiplicity": 1}
                  for a in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])],
}


class TestSetStabilizerOracle:
    """Each stratum's set stabilizer, scanned on the stratum's key, against a
    set_stabilizer scan on its two zero sets."""

    @staticmethod
    def assert_scans_agree(strat):
        doc = strat.document
        points = sorted(set(doc.v_weights.supports()) | set(doc.g_weights.supports()))
        index = {p: i for i, p in enumerate(points)}
        for s in strat.strata:
            zero_sets = ([index[w] for w in s.zero_v], [index[w] for w in s.zero_g])
            assert once(strat, set_stabilizer_of, s.index) == set_stabilizer(
                strat.weyl, zero_sets), s.index

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_catalog(self, key):
        self.assert_scans_agree(build(key)[1])

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl(self, n, kind):
        self.assert_scans_agree(enumerate_strata(document_from_dict(gl_document(n, kind, 1, 0))))

    def test_minus_identity_maps_one_row_to_two_elements(self):
        strat = enumerate_strata(document_from_dict(MINUS_IDENTITY))
        assert once(strat, set_stabilizer_of, 0).order == 2
        self.assert_scans_agree(strat)

    def test_conjugated_row_maps_to_two_elements(self):
        strat = enumerate_strata(document_from_dict(SWAP_AND_HIDDEN_SIGN))
        assert [len(orbit) for orbit in strat.orbits] == [1, 2, 1, 1]
        moved = strat.orbits[1][1]
        assert once(strat, set_stabilizer_of, moved).order == 2
        self.assert_scans_agree(strat)


class TestStabilizers:
    def test_point_inside_set_stabilizer(self):
        for key in RANK_LE_3:
            _, strat = build(key)
            for s in strat.strata:
                point = set(once(strat, point_stabilizer_of, s.index).members)
                setwise = set(once(strat, set_stabilizer_of, s.index).members)
                assert point <= setwise

    def test_gl2_orders(self, gl2_strat):
        orders = [
            (once(gl2_strat, set_stabilizer_of, s.index).order,
             once(gl2_strat, point_stabilizer_of, s.index).order)
            for s in gl2_strat.strata
        ]
        assert orders == [(2, 1), (1, 1), (1, 1), (2, 2), (2, 2)]


class TestStabilizersOnDemand:
    def test_strata_report_searches_one_point_stabilizer_per_orbit(self, monkeypatch):
        # gl5 on C^5 + (C^5)* plus a zero weight: 203 strata in 19 orbits
        searched = []

        def counted(candidates, lam):
            searched.append(lam)
            return point_stabilizer(candidates, lam)

        monkeypatch.setattr(arrangement, "point_stabilizer", counted)
        report, code = run("strata", document_from_dict(gl_document(5, "cotangent", 1, 1)))
        assert (code, report["strata_count"], report["orbit_count"]) == (0, 203, 19)
        assert len(searched) == 19


class TestSteinberg:
    """Steinberg (Trans. AMS 112, 1964): on a validated document the point
    stabilizer of a generic point of a flat is generated by the reflections
    fixing it.  So each cover's point stabilizer lies inside its coverer's,
    and the strata report's orders are |W| / |orbit| and each stratum's own
    point-stabilizer order, all by brute force over the whole group."""

    @staticmethod
    def assert_steinberg(doc):
        report, code = run("strata", doc)
        assert code == 0
        strat = enumerate_strata(doc)
        orbits, set_stabs, point_stabs = brute_force_orbits_and_stabilizers(strat)
        orbit_size = {i: len(orbit) for orbit in orbits for i in orbit}
        for s, row in zip(strat.strata, report["strata"], strict=True):
            for j in strat.covers[s.index]:
                assert set(point_stabs[j]) <= set(point_stabs[s.index]), (j, s.index)
            assert (row["w_set_stabilizer_order"] == strat.weyl.order // orbit_size[s.index]
                    == len(set_stabs[s.index])), s.index
            assert row["w_point_stabilizer_order"] == len(point_stabs[s.index]), s.index

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_catalog(self, key):
        self.assert_steinberg(catalog_emit(key))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl(self, n, kind):
        self.assert_steinberg(document_from_dict(gl_document(n, kind, 1, 0)))


class TestDimsOracle:
    """Each stratum's dims, counted on its representative's pairings with the
    points, against numeric_invariants's slices of the two weight multisets."""

    @staticmethod
    def assert_dims_agree(strat):
        doc = strat.document
        for s in strat.strata:
            assert s.dims == numeric_invariants(doc.g_weights, doc.v_weights, s.rep), s.index

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_catalog(self, key):
        self.assert_dims_agree(build(key)[1])

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl(self, n, kind):
        self.assert_dims_agree(enumerate_strata(document_from_dict(gl_document(n, kind, 1, 0))))


class TestRepresentativeIndependence:
    def test_dimension_counts_agree_at_second_representative(self):
        for key in ("gl2-cotangent", "trivial:sl3"):
            doc, strat = build(key)
            for s in strat.strata:
                if not any(s.rep):
                    continue
                other = tuple(-c for c in s.rep)
                dims = numeric_invariants(doc.g_weights, doc.v_weights, other)
                assert dims == s.dims

    def test_with_representative_validates(self, gl2_strat):
        generic = gl2_strat.strata[0]
        replaced = with_representative(gl2_strat, generic, (-1, -2))
        assert replaced.rep == (-1, -2)
        assert replaced.dims == generic.dims
        with pytest.raises(InputError):
            with_representative(gl2_strat, generic, (1, 1))

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_kept_dims_at_every_aligned_representative(self, key, monkeypatch):
        # every copy verify_associativity makes keeps the stratum's dims,
        # which must be the counts at its new representative; a fresh
        # stratification, since once keeps the copies on the shared one
        strat = enumerate_strata(build(key)[0])
        doc = strat.document
        made = []

        def recording(strat, stratum, rep):
            made.append(with_representative(strat, stratum, rep))
            return made[-1]

        monkeypatch.setattr(integrality, "with_representative", recording)
        integrality.verify_associativity(strat)
        assert made
        for copy in made:
            assert copy.dims == numeric_invariants(doc.g_weights, doc.v_weights, copy.rep)


class TestStratumIdentity:
    """Inside one stratification a stratum is its index and representative:
    that pair alone decides equality and the hash, and so the memo keys."""

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_equal_exactly_when_index_and_rep_agree(self, key):
        strata = build(key)[1].strata
        for s in strata:
            for t in strata:
                assert (s == t) == (s.index == t.index and s.rep == t.rep), (s.index, t.index)
            other = strata[-1 - s.index]
            replaced = dataclasses.replace(
                s, flat=other.flat, zero_v=other.zero_v, zero_g=other.zero_g, dims=other.dims)
            assert replaced == s and hash(replaced) == hash(s), s.index

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_a_copy_with_another_rep_has_its_own_memo_entry(self, key):
        strat = enumerate_strata(build(key)[0])
        for s in strat.strata:
            if not any(s.rep):
                continue
            copy = with_representative(strat, s, tuple(-c for c in s.rep))
            assert copy != s and copy.index == s.index, s.index
            first = once(strat, integrality._induction_data, s, strat.top)
            second = once(strat, integrality._induction_data, copy, strat.top)
            assert second is not first, s.index
            assert strat.memo[(integrality._induction_data, s, strat.top)] is first
            assert strat.memo[(integrality._induction_data, copy, strat.top)] is second

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_another_strata_rep_is_not_generic(self, key):
        strat = build(key)[1]
        for s in strat.strata:
            for t in strat.strata:
                if t.index != s.index:
                    with pytest.raises(InputError, match=(
                            rf"is not a generic representative of stratum {s.index}$")):
                        with_representative(strat, s, t.rep)


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


def determinant(m) -> int:
    """The Leibniz expansion; the empty matrix has determinant 1."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        total += (-1) ** inversions * math.prod(row[c] for row, c in zip(m, perm))
    return total


def maximal_minors_gcd(basis, n: int) -> int:
    """The gcd of the k x k minors of a k x n matrix: 1 exactly when its rows
    span a saturated sublattice of Z^n."""
    return math.gcd(*(
        determinant([[row[c] for c in columns] for row in basis])
        for columns in itertools.combinations(range(n), len(basis))
    ))


class TestFlatCanonicalization:
    @staticmethod
    def assert_flats_saturated(strat):
        for s in strat.strata:
            assert maximal_minors_gcd(s.flat, strat.document.rank) == 1, s.index

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_catalog_flats_are_saturated(self, key):
        self.assert_flats_saturated(build(key)[1])

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl_flats_are_saturated(self, n, kind):
        doc = document_from_dict(gl_document(n, kind, 1, 0))
        self.assert_flats_saturated(enumerate_strata(doc))

    @staticmethod
    def assert_cuts_are_kernels(strat):
        """Oracle for the one-HNF cut: for each cover pair, the child's basis
        is the saturated kernel of r, the restriction to the parent's basis
        of a hyperplane containing the child but not the parent, mapped
        through that basis."""
        for child, parents in enumerate(strat.covers):
            flat = strat.strata[child].flat
            incident = [h for h in strat.hyperplanes if not any(mat_vec(flat, h))]
            for parent in parents:
                basis = strat.strata[parent].flat
                r = next(r for h in incident if any(r := mat_vec(basis, h)))
                expected = hnf(mat_mul(int_kernel([r], len(basis)), basis))
                assert flat == expected, (parent, child)

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_catalog_cuts_are_kernels(self, key):
        self.assert_cuts_are_kernels(build(key)[1])

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", ["adjoint", "cotangent"])
    def test_gl_cuts_are_kernels(self, n, kind):
        doc = document_from_dict(gl_document(n, kind, 1, 0))
        self.assert_cuts_are_kernels(enumerate_strata(doc))

    def test_minors_gcd(self):
        assert maximal_minors_gcd(((2, 4),), 2) == 2
        assert maximal_minors_gcd(((1, 1, 0), (0, 2, 1)), 3) == 1
        assert maximal_minors_gcd(((1, 1), (1, -1)), 2) == 2
        assert maximal_minors_gcd((), 3) == 1

    def test_hnf_identity(self):
        assert hnf([[2, 0], [0, 2], [1, 1]]) == ((1, 1), (0, 2))

    def test_kernel_is_saturated(self):
        # kernel of (2, 4) must contain the primitive (2, -1), not just (4, -2)
        assert int_kernel([(2, 4)], 2) == ((2, -1),)


class TestLocatedStrataErrors:
    """The internal checks of enumerate_strata name the stratum they failed
    on; each failure is forced by patching one dependency."""

    @staticmethod
    def strata_of(key):
        doc = catalog_emit(key)
        return enumerate_strata(doc)

    def test_zero_set_bookkeeping(self, monkeypatch):
        # Stratum 0 is the whole space, on which no support vanishes; every
        # support vanishes on the zero cocharacter, so it is not generic there.
        def zero(basis, hyperplanes, incident, rank):
            return (0,) * rank

        monkeypatch.setattr(arrangement, "representative_cocharacter", zero)
        with pytest.raises(InternalCheckError, match=(
            r"^stratum 0: zero sets disagree with the slice counts$"
        )):
            self.strata_of("gl2-cotangent")

    def test_flat_dimension(self, monkeypatch):
        # An HNF that drops a row whenever its rows are dependent.  Each flat's
        # rows are independent and keep their rank; stratum 1's zero supports
        # are a weight and its negative, so its U loses its one row.  The
        # generic stratum has no zero supports, so the first to fail is 1.
        def lossy(rows):
            rows = list(rows)
            basis = hnf(rows)
            return basis[:-1] if len(basis) < len(rows) else basis

        monkeypatch.setattr(arrangement, "hnf", lossy)
        with pytest.raises(InternalCheckError, match=(
            r"^stratum 1: flat and zero-set span do not fill the rank$"
        )):
            self.strata_of("gl2-cotangent")

    def test_unique_maximum_names_the_maximal_strata(self, monkeypatch):
        # adjoint:gl3 has three hyperplanes meeting in the line (1, 1, 1).  Cut
        # from the first hyperplane's plane, the line comes back with a fourth,
        # absent hyperplane in its incidence set: a second flat on which every
        # hyperplane vanishes, so two strata are maximal.
        strat = self.strata_of("adjoint:gl3")
        absent = len(strat.hyperplanes)
        restrict = arrangement.restrict_arrangement

        def padded(basis, hyperplanes, incident):
            cuts = restrict(basis, hyperplanes, incident)
            if incident == {0}:
                return {r: group + [absent] for r, group in cuts.items()}
            return cuts

        monkeypatch.setattr(arrangement, "restrict_arrangement", padded)
        count = len(strat.strata)
        with pytest.raises(InternalCheckError, match=(
            rf"^the stratum order has maximal strata \[{count - 1}, {count}\], not one$"
        )):
            self.strata_of("adjoint:gl3")
