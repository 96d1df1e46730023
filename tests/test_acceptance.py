"""Acceptance suite.

Every criterion is checked at exact equality and reports one PASS/FAIL line
(run pytest with -s to see them as they happen; failures carry the line in
the assertion message).
"""

from fractions import Fraction

import pytest

from cohint import (
    Poly,
    enumerate_strata,
    invariant_basis,
    once,
    point_stabilizer_of,
    set_stabilizer_of,
    substitute,
)
from cohint import integrality as I
from cohint.documents import document_from_dict
from cohint.matrices import identity, rref
from cohint.weyl import point_stabilizer

from conftest import CATALOG_INSTANCES, bps_spaces, build, gl_document, verify_all
from reference import evaluate, evaluate_kernel, full_subgroup, generic_points, scaled
from test_integrality import _j_dim_by_image_intersection

ALL_KEYS = (
    "torus2-cotangent",
    "gl2-cotangent",
    "gl2-cotangent:2",
    "gl2-cotangent:3",
    "sl2-irrep:2",
    "sl2-irrep:3",
    "sl2-irrep:4",
    "sl2-irrep:5",
    "sl2-irrep:6",
    "sl2-irrep:7",
    "sl2-irrep:8",
    "sl2-adjoint:1",
    "sl2-adjoint:2",
    "sl2-adjoint:3",
    "trivial:sl2",
    "trivial:gl2",
    "trivial:sl3",
    "adjoint:gl2",
    "adjoint:gl3",
)

RANK2_ORACLE_KEYS = (
    "torus2-cotangent",
    "gl2-cotangent",
    "sl2-irrep:5",
    "sl2-adjoint:2",
    "trivial:sl3",
    "adjoint:sl3",
)


def check(label: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def orbit_dims(key):
    """total BPS dimension per orbit representative stratum index"""
    return {idx: space.total_dim for idx, space in bps_spaces(key).items()}


def ledgers_pass(key):
    hilbert, iso, assoc = verify_all(key)
    return hilbert.passed and iso.passed and assoc.passed


class TestTorusCriterion:
    def test_strata_and_orbits(self):
        _, strat = build("torus2-cotangent")
        check("torus2 strata", len(strat.strata) == 4 and len(strat.orbits) == 4)

    def test_every_orbit_carries_a_line(self):
        dims = orbit_dims("torus2-cotangent")
        check("torus2 BPS dims", all(d == 1 for d in dims.values()), str(dims))

    def test_verification_to_degree_eight(self):
        check("torus2 verify@8", ledgers_pass("torus2-cotangent"))


class TestGl2Criterion:
    def test_strata_and_orbits(self):
        _, strat = build("gl2-cotangent")
        check("gl2 strata", len(strat.strata) == 5 and len(strat.orbits) == 4)

    def test_dt_dimensions(self):
        _, strat = build("gl2-cotangent")
        dims = orbit_dims("gl2-cotangent")
        dense = 0  # full-plane stratum
        axis = strat.orbits[strat.orbit_of[1]][0]
        diag, top = 3, strat.top_index
        ok = (dims[top], dims[axis], dims[dense], dims[diag]) == (0, 1, 1, 0)
        check("gl2 DT dims (top,axis,dense,diag)=(0,1,1,0)", ok, str(dims))

    def test_epsilon_is_the_sign_on_the_dense_stratum(self):
        _, strat = build("gl2-cotangent")
        eps = I.epsilon(strat, strat.strata[0])
        swap = strat.weyl.elements.index(((0, 1), (1, 0)))
        check("gl2 epsilon(swap) == -1", eps[swap] == -1)

    def test_verification_to_degree_eight(self):
        check("gl2 verify@8", ledgers_pass("gl2-cotangent"))


def gaussian_binomial(n: int, k: int) -> dict:
    """Coefficients {degree: dim} of the Gaussian binomial [n choose k]_q.

    Built by the q-Pascal recurrence [n, k] = [n-1, k-1] + q^k [n-1, k];
    empty (the zero polynomial) outside 0 <= k <= n.
    """
    if k < 0 or k > n:
        return {}
    if k == 0 or k == n:
        return {0: 1}
    out = dict(gaussian_binomial(n - 1, k - 1))
    for p, c in gaussian_binomial(n - 1, k).items():
        out[p + k] = out.get(p + k, 0) + c
    return out


class TestGl2CopiesCriterion:
    # gl2-cotangent:g is the symmetric quiver with vertices inf and 0, g
    # arrows each way and dimension vector (1, 2): V = Hom(C, C^2)^g x
    # Hom(C^2, C)^g under GL2.  For a symmetric quiver the BPS piece of the
    # top stratum is the intersection cohomology of the coarse moduli space
    # V//G (Meinhardt-Reineke, arXiv:1411.4062).  For g >= 2 the generic
    # stabiliser is trivial and V//GL2 is the locus of g x g matrices
    # (w_i v_j) of rank <= 2, of dimension 4g - 4 = dim V - dim G.  The
    # resolution {(A, U) : U in Gr(2, g), im A in U} is small: over rank
    # k < 2 the fibre Gr(2-k, g-k) has dimension (2-k)(g-2), less than half
    # the codimension (2-k)(2g-2-k).  Hence IH*(V//G) = H*(Gr(2, g)), whose
    # Poincare polynomial is [g choose 2]_q (piece degree p <-> H^{2p}); for
    # g < 2 it is 0.  The axis stratum is the rank-1 case of the same
    # argument: rank <= 1 matrices, resolved over P^{g-1}, giving
    # [g choose 1]_q.  An earlier expectation of g-1 lines in degrees
    # 0..g-2 agreed with [g choose 2]_q only for g <= 2.
    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_bps_dimensions(self, g):
        key = "gl2-cotangent" if g == 1 else f"gl2-cotangent:{g}"
        _, strat = build(key)
        spaces = bps_spaces(key)
        top = strat.top_index
        axis = strat.orbits[strat.orbit_of[1]][0]
        expected_top = gaussian_binomial(g, 2)
        check(
            f"gl2^{g} top-stratum BPS = [{g} choose 2]_q = {expected_top}",
            spaces[top].piece_dims() == expected_top,
            f"got {spaces[top].piece_dims()}",
        )
        expected_axis = gaussian_binomial(g, 1)
        check(
            f"gl2^{g} axis BPS = [{g} choose 1]_q = {expected_axis}",
            spaces[axis].piece_dims() == expected_axis,
            f"got {spaces[axis].piece_dims()}",
        )
        check(f"gl2^{g} axis BPS dim == g", spaces[axis].total_dim == g)
        check(f"gl2^{g} dense BPS dim == 1", spaces[0].total_dim == 1)
        check(f"gl2^{g} diagonal BPS dim == 0", spaces[3].total_dim == 0)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_verification_to_degree_eight(self, g):
        key = "gl2-cotangent" if g == 1 else f"gl2-cotangent:{g}"
        check(f"gl2^{g} verify@8", ledgers_pass(key))


class TestSl2IrrepCriterion:
    EXPECTED_TOP_TOTALS = {2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1, 8: 2}

    @pytest.mark.parametrize("d", list(range(2, 9)))
    def test_bps_dimensions(self, d):
        key = f"sl2-irrep:{d}"
        _, strat = build(key)
        spaces = bps_spaces(key)
        check(f"sl2-irrep:{d} dense BPS dim == 1", spaces[0].total_dim == 1)
        cutoff = d // 2 - 1
        expected = {p: 1 for p in range(0, max(cutoff, 0)) if p % 2 == 0 and 2 * p < 2 * cutoff}
        got = spaces[strat.top_index].piece_dims()
        ok = got == expected and sum(got.values()) == self.EXPECTED_TOP_TOTALS[d]
        check(
            f"sl2-irrep:{d} top BPS truncated below cohomological degree {2 * cutoff}",
            ok,
            f"got {got}, expected {expected}",
        )

    @pytest.mark.parametrize("d", list(range(2, 9)))
    def test_verification_to_degree_eight(self, d):
        check(f"sl2-irrep:{d} verify@8", ledgers_pass(f"sl2-irrep:{d}"))


class TestSl2AdjointCriterion:
    @pytest.mark.parametrize("g,expected", [(1, 0), (2, 1), (3, 1)])
    def test_top_dimensions(self, g, expected):
        key = f"sl2-adjoint:{g}"
        _, strat = build(key)
        dims = orbit_dims(key)
        check(f"sl2-adjoint:{g} top BPS dim == {expected}", dims[strat.top_index] == expected)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_verification(self, g):
        check(f"sl2-adjoint:{g} verify@8", ledgers_pass(f"sl2-adjoint:{g}"))


def reflections(strat):
    ident = identity(strat.document.rank)
    for i, w in enumerate(strat.weyl.elements):
        if w == ident:
            continue
        if strat.weyl.product(i, i) != strat.weyl.identity_index:
            continue
        delta = tuple(
            tuple(a - b for a, b in zip(row_w, row_i))
            for row_w, row_i in zip(w, ident)
        )
        _, pivots = rref(delta, strat.document.rank)
        if len(pivots) == 1:
            yield w


class TestTrivialRepresentationCriterion:
    @pytest.mark.parametrize("group", ["sl2", "gl2", "sl3"])
    def test_only_the_dense_orbit_survives(self, group):
        key = f"trivial:{group}"
        _, strat = build(key)
        dims = orbit_dims(key)
        ok = all(
            dim == (1 if len(strat.strata[idx].flat) == strat.document.rank else 0)
            for idx, dim in dims.items()
        )
        check(f"trivial:{group} BPS concentrated on the dense orbit", ok, str(dims))

    @pytest.mark.parametrize("group", ["sl2", "gl2", "sl3"])
    def test_epsilon_on_reflections(self, group):
        key = f"trivial:{group}"
        _, strat = build(key)
        eps = I.epsilon(strat, strat.strata[0])
        refl = list(reflections(strat))
        ok = bool(refl) and all(eps[strat.weyl.elements.index(w)] == -1 for w in refl)
        check(f"trivial:{group} epsilon == -1 on every reflection", ok)

    @pytest.mark.parametrize("group", ["sl2", "gl2", "sl3"])
    def test_verification(self, group):
        check(f"trivial:{group} verify@8", ledgers_pass(f"trivial:{group}"))


class TestAdjointCriterion:
    @pytest.mark.parametrize("group", ["gl2", "gl3"])
    def test_only_the_dense_orbit_survives(self, group):
        key = f"adjoint:{group}"
        _, strat = build(key)
        dims = orbit_dims(key)
        ok = all(
            dim == (1 if len(strat.strata[idx].flat) == strat.document.rank else 0)
            for idx, dim in dims.items()
        )
        check(f"adjoint:{group} BPS concentrated on the dense orbit", ok, str(dims))

    @pytest.mark.parametrize("group,order", [("gl2", 2), ("gl3", 6)])
    def test_degree_zero_map_is_group_order(self, group, order):
        key = f"adjoint:{group}"
        _, strat = build(key)
        n = strat.document.rank
        out = I.induct(strat, Poly.constant(n, 1), strat.strata[0], strat.top)
        check(f"adjoint:{group} degree-0 map is x{order}", out == Poly.constant(n, order))

    @pytest.mark.parametrize("group", ["gl2", "gl3"])
    def test_verification(self, group):
        check(f"adjoint:{group} verify@8", ledgers_pass(f"adjoint:{group}"))


def unit_forms(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class TestPropertySuite:
    def test_degree_preservation(self):
        for key in ALL_KEYS:
            _, strat = build(key)
            n = strat.document.rank
            for s in strat.strata:
                for t in strat.strata:
                    if s.index == t.index or not strat.leq(s.index, t.index):
                        continue
                    stab = point_stabilizer(full_subgroup(strat.weyl), s.rep)
                    h = strat.weyl.subgroup(
                        set(stab.members)
                        & set(once(strat, point_stabilizer_of, t.index).members)
                    )
                    for p in range(2):
                        for f in invariant_basis(h, p, unit_forms(n)).rows:
                            out = I.induct(strat, f, s, t)
                            if not out.is_zero():
                                assert (
                                    2 * out.degree - t.dims.d_lambda
                                    == 2 * f.degree - s.dims.d_lambda
                                )
        check("property: induction preserves shifted degrees", True)

    def test_associativity_on_at_least_twenty_chains(self):
        total = 0
        ok = True
        for key in ALL_KEYS:
            assoc = verify_all(key)[2]
            total += len(assoc.rows)
            ok = ok and assoc.passed
        check(
            "property: associativity on >= 20 aligned chains",
            ok and total >= 20,
            f"{total} chains",
        )

    def test_epsilon_multiplicative_signs(self):
        strats = [build(key)[1] for key in sorted(set(ALL_KEYS) | set(CATALOG_INSTANCES))]
        strats += [
            enumerate_strata(document_from_dict(gl_document(n, kind, 1, 0)))
            for n in (3, 4) for kind in ("adjoint", "cotangent")
        ]
        ok = True
        for strat in strats:
            for s in strat.orbit_representatives():
                eps = I.epsilon(strat, s)
                members = once(strat, set_stabilizer_of, s.index).members
                ok = ok and all(eps[i] in (Fraction(1), Fraction(-1)) for i in members)
                ok = ok and all(
                    eps[strat.weyl.product(a, b)] == eps[a] * eps[b]
                    for a in members for b in members
                )
        check("property: kernel characters are multiplicative signs", ok)

    def test_twisted_equivariance(self):
        for key in ALL_KEYS:
            _, strat = build(key)
            n = strat.document.rank
            for s in strat.orbit_representatives():
                eps = I.epsilon(strat, s)
                levi = once(strat, point_stabilizer_of, s.index)
                for p in range(2):
                    for f in invariant_basis(levi, p, unit_forms(n)).rows:
                        base = I.induct(strat, f, s, strat.top)
                        for idx in eps:
                            w = strat.weyl.elements[idx]
                            assert I.induct(strat, substitute(w, f), s, strat.top) == scaled(
                                base, eps[idx]
                            )
        check("property: twisted equivariance of induction", True)

    def test_hilbert_and_isomorphism_agree_everywhere(self):
        for key in ALL_KEYS:
            hilbert, iso, _ = verify_all(key)
            assert len(hilbert.rows) == len(iso.rows)
            for hr, ir in zip(hilbert.rows, iso.rows):
                assert hr.match == ir.bijective, (key, hr.degree)
        check("property: series and rank checks agree in every degree <= 8", True)

    def test_j_graded_agrees_with_image_intersection(self):
        for key in RANK2_ORACLE_KEYS:
            _, strat = build(key)
            for s in strat.strata:
                for p in range(4):
                    assert (
                        I.j_graded(strat, s, p).dim
                        == _j_dim_by_image_intersection(strat, s, p)
                    ), (key, s.index, p)
        check("property: induced-submodule dimensions match the image oracle", True)

    def test_kernel_sum_evaluation_oracle(self):
        for key in ("gl2-cotangent", "trivial:sl3", "sl2-irrep:6"):
            _, strat = build(key)
            n = strat.document.rank
            s = strat.strata[0]
            form = I.kernel(strat, s, strat.top)
            stab = point_stabilizer(full_subgroup(strat.weyl), s.rep)
            h = strat.weyl.subgroup(
                set(stab.members) & set(once(strat, point_stabilizer_of, strat.top_index).members)
            )
            from cohint.weyl import coset_representatives

            cosets = coset_representatives(h, once(strat, point_stabilizer_of, strat.top_index))
            f = invariant_basis(h, 2, unit_forms(n)).rows[0]
            out = I.induct(strat, f, s, strat.top)
            for pt in generic_points(strat.all_supports(), n, 5):
                direct = Fraction(0)
                for w in cosets:
                    moved = evaluate_kernel(form.transformed(w), pt)
                    direct += evaluate(substitute(w, f), pt) * moved
                assert evaluate(out, pt) == direct
        check("property: kernel sums match rational evaluation at 5 points", True)
