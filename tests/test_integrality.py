import collections
from fractions import Fraction
from math import prod

import pytest

from cohint import (
    InputError,
    InternalCheckError,
    Poly,
    catalog_emit,
    catalog_keys,
    enumerate_strata,
    invariant_basis,
    once,
    point_stabilizer_of,
    rref_span,
    set_stabilizer_of,
    substitute,
    with_representative,
)
from cohint import integrality as I
from cohint.documents import document_from_dict
from cohint import polyalg
from cohint.polyalg import ExactDivisionError, KernelForm, kernel_sum, monomials_of_degree
from cohint.matrices import identity, rref
from cohint.weyl import molien_coefficients, point_stabilizer

from conftest import CATALOG_INSTANCES, bps_spaces, build, gl_document
from reference import (
    add,
    associativity_rows,
    evaluate,
    evaluate_kernel,
    full_subgroup,
    generic_points,
    int_inverse,
    molien_fractions,
    power,
    restrict_action,
    scaled,
    subtract,
    transpose,
)

# The fixed catalog keys, and one instance of each parametrised family.
CATALOG_KEYS = tuple(k for k in catalog_keys() if "<" not in k) + (
    "gl2-cotangent:3", "sl2-irrep:3", "sl2-adjoint:2")
RANK2_KEYS = ("torus2-cotangent", "gl2-cotangent", "sl2-irrep:5", "sl2-adjoint:2", "trivial:sl3")
# On adjoint:sl3's edges into the top, H has order 2 in W_lambda of order 6 and
# the kernel has two numerator and two denominator forms.
ORACLE_KEYS = RANK2_KEYS + ("adjoint:sl3",)
# gl_n documents beside the catalog keys, by tests/conftest.py::gl_document
# arguments.  On the two doubled ones, j_graded skips covers whose degree
# exceeds the generator bound at several degrees.
ORACLE_DOCUMENTS = {
    "gl3-cotangent": (3, "cotangent", 1, 1),
    "gl3-adjoint-m2": (3, "adjoint", 2, 6),
    "gl3-cotangent-m2": (3, "cotangent", 2, 0),
}
GL_DOCUMENTS = {
    f"gl{n}-{kind}": (n, kind, 1, 0) for n in (3, 4) for kind in ("adjoint", "cotangent")
}


def fresh(key):
    """A new stratification, with an empty memo, of a catalog key or of a
    gl_n document named in ORACLE_DOCUMENTS or GL_DOCUMENTS."""
    spec = ORACLE_DOCUMENTS.get(key) or GL_DOCUMENTS.get(key)
    return enumerate_strata(document_from_dict(gl_document(*spec)) if spec else catalog_emit(key))


def reflection_count(h):
    """The members w of h with w - I of rank 1, which for a w of finite order
    are the reflections: independent of weyl.reflection_ray."""
    n = h.parent.rank
    one = identity(n)
    return sum(
        len(rref([[a - b for a, b in zip(r, s)] for r, s in zip(w, one)], n)[1]) == 1
        for w in h.elements()
    )


def x(i, n=2):
    return Poly.linear(tuple(1 if j == i else 0 for j in range(n)))


def unit_forms(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def kernel_as_function(form, point):
    return evaluate_kernel(form, point)


class TestKernel:
    def test_gl2_axis_into_top(self, gl2_strat):
        axis = gl2_strat.strata[2]
        form = I.kernel(gl2_strat, axis, gl2_strat.top)
        assert form.degree == 0
        for pt in generic_points(gl2_strat.all_supports(), 2, 3):
            x1, x2 = pt
            assert kernel_as_function(form, pt) == Fraction(x1, x1 - x2)

    def test_gl2_generic_into_top(self, gl2_strat):
        generic = gl2_strat.strata[0]
        form = I.kernel(gl2_strat, generic, gl2_strat.top)
        assert form.degree == 1
        for pt in generic_points(gl2_strat.all_supports(), 2, 3):
            x1, x2 = pt
            assert kernel_as_function(form, pt) == Fraction(x1 * x2, x1 - x2)

    def test_sl2_trivial_rep(self):
        _, strat = build("trivial:sl2")
        generic = strat.strata[0]
        form = I.kernel(strat, generic, strat.top)
        assert form.degree == -1
        for pt in generic_points(strat.all_supports(), 1, 3):
            assert kernel_as_function(form, pt) == Fraction(1, -2 * pt[0])

    def test_forms_lie_in_target_zero_set(self):
        for key in RANK2_KEYS:
            _, strat = build(key)
            for s in strat.strata:
                for t in strat.strata:
                    if not strat.leq(s.index, t.index):
                        continue
                    form = I.kernel(strat, s, t)
                    assert set(form.numerator) <= set(t.zero_v)
                    assert set(form.denominator) <= set(t.zero_g)

    def test_degree_is_half_the_dimension_gap(self):
        for key in RANK2_KEYS:
            _, strat = build(key)
            for s in strat.strata:
                for t in strat.strata:
                    if not strat.leq(s.index, t.index):
                        continue
                    form = I.kernel(strat, s, t)
                    assert 2 * form.degree == t.dims.d_lambda - s.dims.d_lambda


class TestInduct:
    def test_gl2_axis_to_top(self, gl2_strat):
        axis = gl2_strat.strata[2]
        assert I.induct(gl2_strat, x(0), axis, gl2_strat.top) == add(x(0), x(1))

    def test_gl2_generic_to_axis_multiplies(self, gl2_strat):
        generic = with_representative(gl2_strat, gl2_strat.strata[0], (-1, -2))
        axis = gl2_strat.strata[2]
        for f in (Poly.constant(2, 1), x(0), x(0) * x(1)):
            assert I.induct(gl2_strat, f, generic, axis) == x(1) * f

    def test_gl2_generic_to_diagonal_difference_quotient(self, gl2_strat):
        generic = gl2_strat.strata[0]
        diag = gl2_strat.strata[3]
        assert I.induct(gl2_strat, subtract(x(0), x(1)), generic, diag) == Poly.constant(2, 2)

    def test_torus_inductions_multiply_by_monomials(self, torus_strat):
        x_axis = next(s for s in torus_strat.strata if s.flat == ((1, 0),))
        x_axis = with_representative(torus_strat, x_axis, (-1, 0))
        generic = with_representative(torus_strat, torus_strat.strata[0], (-1, -1))
        f = add(power(x(0), 2), x(1))
        assert I.induct(torus_strat, f, x_axis, torus_strat.top) == x(0) * f
        assert I.induct(torus_strat, f, generic, torus_strat.top) == x(0) * x(1) * f
        assert I.induct(torus_strat, f, generic, x_axis) == x(1) * f

    def test_requires_invariant_input(self, gl2_strat):
        diag = gl2_strat.strata[3]
        with pytest.raises(InputError, match="invariant"):
            I.induct(gl2_strat, x(0), diag, gl2_strat.top)

    def test_self_induction_is_identity(self, gl2_strat):
        f = add(x(0), x(1))
        assert I.induct(gl2_strat, f, gl2_strat.top, gl2_strat.top) == f

    def test_degree_preservation(self):
        for key in ("gl2-cotangent", "sl2-irrep:5", "adjoint:gl2"):
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
                    for p in range(3):
                        for f in invariant_basis(h, p, unit_forms(n)).rows:
                            out = I.induct(strat, f, s, t)
                            if out.is_zero():
                                continue
                            assert (
                                2 * out.degree - t.dims.d_lambda
                                == 2 * f.degree - s.dims.d_lambda
                            )

    def test_class_independence_global_scalar(self, gl2_strat):
        generic = gl2_strat.strata[0]
        for other_rep in ((-1, -2), (2, 3)):
            other = with_representative(gl2_strat, generic, other_rep)
            scalar = None
            for p in range(4):
                for exps in monomials_of_degree(2, p):
                    f = Poly.monomial(2, exps)
                    out1 = I.induct(gl2_strat, f, generic, gl2_strat.top)
                    out2 = I.induct(gl2_strat, f, other, gl2_strat.top)
                    if out1.is_zero():
                        assert out2.is_zero()
                        continue
                    term, coeff = next(iter(out1.terms.items()))
                    ratio = out2.terms.get(term, Fraction(0)) / coeff
                    if scalar is None:
                        scalar = ratio
                        assert scalar != 0
                    assert out2 == scaled(out1, scalar)

    def test_orbit_members_have_equal_images(self, gl2_strat):
        axis1, axis2 = gl2_strat.strata[1], gl2_strat.strata[2]
        for p in range(3):
            spans = []
            for s in (axis1, axis2):
                shift = I.kernel(gl2_strat, s, gl2_strat.top).degree
                d = p - shift
                images = []
                if d >= 0:
                    stab = point_stabilizer(full_subgroup(gl2_strat.weyl), s.rep)
                    for f in invariant_basis(stab, d, unit_forms(2)).rows:
                        images.append(I.induct(gl2_strat, f, s, gl2_strat.top))
                spans.append(rref_span(images, p, 2).rows)
            assert spans[0] == spans[1]

    def test_evaluation_oracle(self, gl2_strat):
        generic = gl2_strat.strata[0]
        form = I.kernel(gl2_strat, generic, gl2_strat.top)
        f = power(x(0), 2)
        out = I.induct(gl2_strat, f, generic, gl2_strat.top)
        for pt in generic_points(gl2_strat.all_supports(), 2, 5):
            direct = Fraction(0)
            for w in gl2_strat.weyl.elements:
                direct += evaluate(substitute(w, f), pt) * evaluate_kernel(form.transformed(w), pt)
            assert evaluate(out, pt) == direct


class TestEpsilon:
    def test_gl2_generic_is_the_sign(self, gl2_strat):
        eps = I.epsilon(gl2_strat, gl2_strat.strata[0])
        swap = gl2_strat.weyl.elements.index(((0, 1), (1, 0)))
        assert eps[swap] == -1

    def test_trivial_rep_gives_sign_character(self):
        _, strat = build("trivial:sl2")
        eps = I.epsilon(strat, strat.strata[0])
        flip = strat.weyl.elements.index(((-1,),))
        assert eps[flip] == -1

    def test_trivial_stabilizer_is_constant_one(self, gl2_strat):
        eps = I.epsilon(gl2_strat, gl2_strat.strata[1])
        assert set(eps.values()) == {Fraction(1)}

    @pytest.mark.parametrize("d,expected", [(4, -1), (5, -1), (6, 1), (8, -1)])
    def test_sl2_irrep_parity(self, d, expected):
        _, strat = build(f"sl2-irrep:{d}")
        eps = I.epsilon(strat, strat.strata[0])
        flip = strat.weyl.elements.index(((-1,),))
        assert eps[flip] == expected

    def test_keyed_by_the_set_stabilizer_members(self):
        for key in RANK2_KEYS:
            _, strat = build(key)
            for s in strat.orbit_representatives():
                eps = I.epsilon(strat, s)
                assert tuple(eps) == once(strat, set_stabilizer_of, s.index).members

    def test_values_square_to_one(self):
        for key in RANK2_KEYS:
            _, strat = build(key)
            for s in strat.orbit_representatives():
                eps = I.epsilon(strat, s)
                assert all(v * v == 1 for v in eps.values())

    def test_matches_two_point_evaluation_oracle(self):
        for key in ORACLE_KEYS:
            _, strat = build(key)
            points = generic_points(strat.all_supports(), strat.document.rank, 2)
            for s in strat.orbit_representatives():
                eps = I.epsilon(strat, s)
                form = I.kernel(strat, s, strat.top)
                for idx, value in eps.items():
                    moved = form.transformed(strat.weyl.elements[idx])
                    for pt in points:
                        assert evaluate_kernel(form, pt) / evaluate_kernel(moved, pt) == value

    def test_ratio_equal_at_both_generic_points_but_not_constant(self, monkeypatch):
        # k * 6 x1^2 / (x2 (5 x1 - x2)) agrees with k at (1, 2) and (1, 3),
        # the two generic points of gl2-cotangent, but the ratio is not constant
        doc = catalog_emit("gl2-cotangent")
        strat = enumerate_strata(doc)
        generic = strat.strata[0]
        assert generic_points(strat.all_supports(), 2, 2) == ((1, 2), (1, 3))
        extra = KernelForm(((6, 0), (1, 0)), ((0, 1), (5, -1)))
        assert [evaluate_kernel(extra, pt) for pt in ((1, 2), (1, 3))] == [1, 1]
        monkeypatch.setattr(KernelForm, "transformed", lambda self, w: KernelForm(
            self.numerator + extra.numerator, self.denominator + extra.denominator))
        first = once(strat, set_stabilizer_of, generic.index).members[0]
        with pytest.raises(InternalCheckError, match=(
            rf"^stratum 0: kernel ratio is not constant for element {first}: "
        )):
            I.epsilon(strat, generic)

    def test_twisted_equivariance(self):
        for key in ("gl2-cotangent", "sl2-irrep:6", "adjoint:gl2"):
            _, strat = build(key)
            n = strat.document.rank
            for s in strat.orbit_representatives():
                eps = I.epsilon(strat, s)
                levi = once(strat, point_stabilizer_of, s.index)
                for p in range(3):
                    for f in invariant_basis(levi, p, unit_forms(n)).rows:
                        base = I.induct(strat, f, s, strat.top)
                        for idx in eps:
                            w = strat.weyl.elements[idx]
                            twisted = I.induct(strat, substitute(w, f), s, strat.top)
                            assert twisted == scaled(base, eps[idx])


def is_exact(x) -> bool:
    return type(x) in (int, Fraction)


class TestExactScalars:
    """No float reaches a report: ray's scale is an int for an integer form,
    and an int to the power -1 is a float, so the kernel character and the
    coset sums must multiply and divide by the scales instead."""

    @pytest.fixture(scope="class")
    def strats(self):
        return [build(key)[1] for key in CATALOG_INSTANCES] + [
            enumerate_strata(document_from_dict(gl_document(n, kind, 1, 0)))
            for n in (3, 4) for kind in ("adjoint", "cotangent")
        ]

    def test_epsilon_values(self, strats):
        for strat in strats:
            for s in strat.orbit_representatives():
                values = I.epsilon(strat, s).values()
                assert values and all(map(is_exact, values)), (strat.document.name, s.index)

    def test_coset_sum_multipliers(self, strats):
        # every cover induction (j_graded) and every orbit into the top (induct)
        for strat in strats:
            pairs = [(strat.strata[j], target) for target in strat.strata
                     for j in strat.covers[target.index]]
            pairs += [(s, strat.top) for s in strat.orbit_representatives()]
            for mu, target in pairs:
                sums = I.once(strat, I._induction_data, mu, target)[2]
                assert is_exact(sums.denominator)
                assert all(is_exact(m) for _, _, m in sums.terms), (mu.index, target.index)


class TestJGraded:
    def test_gl2_top_degree_zero_is_constants(self, gl2_strat):
        basis = I.j_graded(gl2_strat, gl2_strat.top, 0)
        assert basis.dim == 1
        assert basis.rows[0] == Poly.constant(2, 1)

    def test_torus_top_degree_zero_empty(self, torus_strat):
        assert I.j_graded(torus_strat, torus_strat.top, 0).dim == 0

    def test_sl2_odd_degree_vanishes(self):
        _, strat = build("sl2-irrep:4")
        assert I.j_graded(strat, strat.top, 1).dim == 0

    def test_no_invariant_basis_at_negative_degree(self, monkeypatch):
        # gl2-cotangent:3 has cover kernels of degree 2, 3 and 6
        _, strat = build("gl2-cotangent:3")
        degrees = []
        basis = I.invariant_basis

        def recording(h, p, forms):
            degrees.append(p)
            return basis(h, p, forms)

        monkeypatch.setattr(I, "invariant_basis", recording)
        for s in strat.strata:
            for p in range(4):
                I.j_graded(strat, s, p)
        assert degrees and min(degrees) >= 0

    @pytest.mark.parametrize("key", ["adjoint:gl3", "gl4-adjoint"])
    def test_induces_invariants_only_up_to_the_generator_degree(self, key, monkeypatch):
        # With the ambient invariants of each degree built first, as bps_space
        # builds them, j_graded asks invariant_basis(h, q) only for a cover's
        # H and q <= N(W_lambda) - N(H); the higher degrees come from the
        # basic invariants of W_lambda
        strat = fresh(key)
        asked, basic_degrees = [], []
        basis, basic = I.invariant_basis, I._basic_invariants

        def recording_basis(h, q, forms):
            asked.append((h, q))
            return basis(h, q, forms)

        def recording_basic(strat, levi, e, u_basis):
            basic_degrees.append(e)
            return basic(strat, levi, e, u_basis)

        monkeypatch.setattr(I, "invariant_basis", recording_basis)
        monkeypatch.setattr(I, "_basic_invariants", recording_basic)
        skipped = 0
        for s in strat.strata:
            levi = once(strat, point_stabilizer_of, s.index)
            u_basis = strat.u_bases[s.index]
            n_levi = reflection_count(levi)
            for p in range(s.dims.dim_v_fixed // 2 + 3):
                I.once(strat, I._invariants, levi, p, u_basis)
                asked.clear()
                I.once(strat, I.j_graded, s, p)
                for h, q in asked:
                    assert q <= n_levi - reflection_count(h), (s.index, p, q)
                for j in strat.covers[s.index]:
                    h, form, _ = I.once(strat, I._induction_data, strat.strata[j], s)
                    skipped += p - form.degree > n_levi - reflection_count(h)
        assert skipped and basic_degrees

    def test_negative_degree_rejected(self, gl2_strat):
        with pytest.raises(InputError):
            I.j_graded(gl2_strat, gl2_strat.top, -1)

    def test_matches_image_intersection_oracle(self):
        for key in ORACLE_KEYS:
            _, strat = build(key)
            for s in strat.strata:
                for p in range(4):
                    expected = _j_dim_by_image_intersection(strat, s, p)
                    assert I.j_graded(strat, s, p).dim == expected, (key, s.index, p)

    @pytest.mark.parametrize("key", CATALOG_KEYS + tuple(ORACLE_DOCUMENTS))
    def test_covers_span_what_every_lower_stratum_spans(self, key):
        # every degree bps_space asks for, up to two past the vanishing bound
        strat = fresh(key) if key in ORACLE_DOCUMENTS else build(key)[1]
        for s in strat.strata:
            for p in range(s.dims.dim_v_fixed // 2 + 3):
                expected = _j_graded_from_every_lower_stratum(strat, s, p)
                assert I.j_graded(strat, s, p) == expected, (s.index, p)


def strict_lower(strat, stratum):
    """Every stratum strictly below the given one."""
    return [mu for mu in strat.strata
            if mu.index != stratum.index and strat.leq(mu.index, stratum.index)]


def product_of_powers(forms, exps, n):
    mono = Poly.constant(n, 1)
    for i, k in enumerate(exps):
        if k:
            mono = mono * power(forms[i], k)
    return mono


def _j_graded_from_every_lower_stratum(strat, stratum, p):
    """The induced submodule spanned from every stratum strictly below, not
    only from the covers, by the sum over every element of the point
    stabilizer on monomials of the reduced variables, not by induct's coset
    sum on invariants."""
    n = strat.document.rank
    u_forms = [Poly.linear(b) for b in strat.u_bases[stratum.index]]
    levi = once(strat, point_stabilizer_of, stratum.index).elements()
    generators = []
    for mu in strict_lower(strat, stratum):
        form = I.kernel(strat, mu, stratum)
        d = p - form.degree
        if d < 0:
            continue
        for exps in monomials_of_degree(len(u_forms), d):
            generators.append(kernel_sum(product_of_powers(u_forms, exps, n), form, levi))
    return rref_span(generators, p, n)


def _j_dim_by_image_intersection(strat, stratum, p):
    """Independent route: span all inductions from below inside degree p and
    intersect with the polynomials in the stratum's reduced variables."""
    n = strat.document.rank
    images = []
    for mu in strict_lower(strat, stratum):
        shift = I.kernel(strat, mu, stratum).degree
        d = p - shift
        if d < 0:
            continue
        stab = point_stabilizer(full_subgroup(strat.weyl), mu.rep)
        h = strat.weyl.subgroup(
            set(stab.members) & set(once(strat, point_stabilizer_of, stratum.index).members)
        )
        for f in invariant_basis(h, d, unit_forms(n)).rows:
            out = I.induct(strat, f, mu, stratum)
            if not out.is_zero():
                images.append(out)
    span = rref_span(images, p, n)
    u_forms = [Poly.linear(b) for b in strat.u_bases[stratum.index]]
    u_monomials = [product_of_powers(u_forms, exps, n)
                   for exps in monomials_of_degree(len(u_forms), p)]
    pure = rref_span(u_monomials, p, n)
    stacked = rref_span(list(span.rows) + list(pure.rows), p, n)
    return span.dim + pure.dim - stacked.dim


class TestBasicInvariants:
    @pytest.mark.parametrize("key", CATALOG_INSTANCES + tuple(GL_DOCUMENTS))
    def test_degrees_of_every_point_stabilizer(self, key):
        # Chevalley: as many basic invariants as U has dimensions, with
        # prod d_i = |W_lambda| and sum (d_i - 1) = N(W_lambda); Noether's
        # bound |W_lambda| bounds their degrees
        strat = build(key)[1] if key in CATALOG_INSTANCES else fresh(key)
        for s in strat.strata:
            levi = once(strat, point_stabilizer_of, s.index)
            u_basis = strat.u_bases[s.index]
            degrees = [e for e in range(1, levi.order + 1)
                       for _ in I.once(strat, I._basic_invariants, levi, e, u_basis)]
            n_levi = reflection_count(levi)
            assert I.once(strat, I._reflections, levi) == n_levi
            assert len(degrees) == len(u_basis), s.index
            assert prod(degrees) == levi.order, (s.index, degrees)
            assert sum(d - 1 for d in degrees) == n_levi, (s.index, degrees)


class TestBpsSpace:
    def test_gl2_dimensions(self, gl2_strat):
        spaces = bps_spaces("gl2-cotangent")
        # top and diagonal vanish, the axis orbit and the dense stratum carry a line
        assert spaces[0].total_dim == 1
        assert spaces[1].total_dim == 1
        assert spaces[3].total_dim == 0
        assert spaces[4].total_dim == 0

    def test_gl2_dt_tables(self, gl2_strat):
        spaces = bps_spaces("gl2-cotangent")
        assert spaces[0].dt_table == {2: 1}
        assert spaces[1].dt_table == {0: 1}
        assert spaces[0].euler == 1

    def test_sl2_irrep4(self):
        spaces = bps_spaces("sl2-irrep:4")
        assert spaces[0].total_dim == 1  # dense stratum
        assert spaces[1].piece_dims() == {0: 1}  # everything-fixed stratum

    def test_euler_stays_integral_at_negative_shifted_degrees(self):
        spaces = bps_spaces("sl2-irrep:5")
        _, strat = build("sl2-irrep:5")
        top = spaces[strat.top_index]
        assert top.dt_table == {-2: 1}
        assert top.euler == 1 and isinstance(top.euler, int)

    def test_adjoint_concentrates_on_dense_stratum(self):
        for key in ("adjoint:gl2", "adjoint:gl3"):
            _, strat = build(key)
            spaces = bps_spaces(key)
            for s in strat.orbit_representatives():
                expected = 1 if s.index == 0 else 0
                assert spaces[s.index].total_dim == expected

    def test_shifted_degrees_within_bounds(self):
        for key in RANK2_KEYS:
            _, strat = build(key)
            for s in strat.orbit_representatives():
                space = bps_spaces(key)[s.index]
                low = s.dims.dim_g_fixed - s.dims.dim_v_fixed
                high = s.dims.dim_g_fixed
                for i in space.dt_table:
                    assert low <= i <= high

    def test_stabilizer_matrices_are_actions(self):
        """The stabilizer acts on each BPS piece, and bps_space records the
        trace of that action."""
        from cohint.matrices import mat_mul

        # gl2-cotangent:4 has a 2-dimensional piece (stratum 4, degree 2)
        # with |W_set| = 2, so 2x2 matrices are multiplied there.
        largest = 0
        for key in ("gl2-cotangent", "adjoint:sl3", "gl2-cotangent:4"):
            strat = build(key)[1]
            for s, space in bps_spaces(key).items():
                wl = once(strat, set_stabilizer_of, s)
                for p, basis in space.pieces.items():
                    if len(wl.members) > 1:
                        largest = max(largest, basis.dim)
                    actions = {a: basis.action(strat.weyl.elements[a]) for a in wl.members}
                    for a, ma in actions.items():
                        assert space.traces[a][p] == sum(row[i] for i, row in enumerate(ma))
                        if basis.dim == 0:
                            continue
                        # rows hold image coordinates, so composition reverses the order
                        for b in wl.members:
                            assert mat_mul(actions[b], ma) == actions[strat.weyl.product(a, b)]
        assert largest >= 2


class TestLocatedInternalErrors:
    """Each internal check names where it failed; the failures are forced by
    patching one dependency, on a stratification no other test shares."""

    @pytest.fixture
    def strat(self):
        doc = catalog_emit("gl2-cotangent")
        return enumerate_strata(doc)

    def test_kernel_names_source_and_target(self, strat, monkeypatch):
        monkeypatch.setattr(I, "dot", lambda cochar, weight: -1)
        with pytest.raises(InternalCheckError, match=(
            r"^kernel from stratum 1 into stratum 4: negative and positive slices "
            r"differ in size; data is not weakly symmetric$"
        )):
            I.kernel(strat, strat.strata[1], strat.top)

    def test_epsilon_names_stratum_and_element(self, strat, monkeypatch):
        generic = strat.strata[0]
        first = once(strat, set_stabilizer_of, generic.index).members[0]
        # an extra numerator form x2 makes the ratio 1/x2, which is not constant
        monkeypatch.setattr(KernelForm, "transformed", lambda self, w: KernelForm(
            self.numerator + ((0, 1),), self.denominator))
        with pytest.raises(InternalCheckError, match=(
            rf"^stratum 0: kernel ratio is not constant for element {first}: "
        )):
            I.epsilon(strat, generic)

    def test_bps_space_names_stratum_degree_and_element(self, strat, monkeypatch):
        generic = strat.strata[0]
        assert I.bps_space(strat, generic).piece_dims() == {0: 1}
        first = once(strat, set_stabilizer_of, generic.index).members[0]
        monkeypatch.setattr(polyalg.GradedBasis, "action", lambda self, matrix: None)
        with pytest.raises(InternalCheckError, match=(
            rf"^stratum 0: BPS piece of degree 0 is not stable under element {first} "
            r"of the stratum stabilizer$"
        )):
            I.bps_space(strat, generic)

    def test_isotypic_series_names_stratum_and_element(self, strat):
        # stratum 1's flat is the line through (0, 1); the swap, outside its
        # set stabilizer, moves the line off itself
        axis = strat.strata[1]
        assert axis.flat == ((0, 1),)
        space = I.bps_space(strat, axis)
        outside = next(i for i in range(strat.weyl.order)
                       if i not in once(strat, set_stabilizer_of, axis.index).members)
        eps = {**I.epsilon(strat, axis), outside: 1}
        with pytest.raises(InternalCheckError, match=(
            rf"^stratum 1: the flat is not stable under element {outside} "
            r"of the stratum stabilizer$"
        )):
            I.isotypic_series(strat, space, eps, 2)

    @pytest.mark.parametrize("caller", ["induct", "j_graded"])
    def test_kernel_sum_names_source_target_and_form(self, strat, monkeypatch, caller):
        def not_divisible(f, ell):
            raise ExactDivisionError(f"not divisible by linear form {tuple(ell)}")

        monkeypatch.setattr(polyalg, "exact_divide", not_divisible)
        with pytest.raises(InternalCheckError, match=(
            r"^induction from stratum 1 into stratum 4: kernel sum is not polynomial: "
            r"not divisible by linear form \(1, -1\)$"
        )):
            if caller == "induct":
                I.induct(strat, Poly.constant(2, 1), strat.strata[1], strat.top)
            else:
                I.j_graded(strat, strat.top, 1)

    def test_verify_isomorphism_names_the_degree(self, strat, monkeypatch):
        monkeypatch.setattr(
            I, "target_series", lambda strat, cutoff: (Fraction(1, 2),) * (cutoff + 1))
        with pytest.raises(InternalCheckError, match=(
            r"^invariant-ring series has a non-integer coefficient 1/2 in degree 0$"
        )):
            I.verify_isomorphism(strat, 2)


class TestIsotypicSeries:
    def test_gl2_generic_sign_isotypic(self, gl2_strat):
        space = bps_spaces("gl2-cotangent")[0]
        eps = I.epsilon(gl2_strat, gl2_strat.strata[0])
        series = I.isotypic_series(gl2_strat, space, eps, 5)
        assert series == tuple(Fraction(c) for c in (0, 1, 1, 2, 2, 3))

    def test_gl2_axis_free_line(self, gl2_strat):
        space = bps_spaces("gl2-cotangent")[1]
        eps = I.epsilon(gl2_strat, gl2_strat.strata[1])
        series = I.isotypic_series(gl2_strat, space, eps, 4)
        assert series == tuple(Fraction(1) for _ in range(5))

    def test_zero_space_gives_zero_series(self, gl2_strat):
        space = bps_spaces("gl2-cotangent")[4]
        eps = I.epsilon(gl2_strat, gl2_strat.strata[4])
        series = I.isotypic_series(gl2_strat, space, eps, 4)
        assert series == tuple(Fraction(0) for _ in range(5))

    @pytest.mark.parametrize("key", ["adjoint:sl3", "trivial:sl3", "gl2-cotangent"])
    def test_complement_forms_match_the_contragredient(self, key):
        """isotypic_series restricts M_w to the span of the flat complement
        forms, the dual of the flat; the Molien sum over the contragredient
        restrictions (M_w^-1)^T to the flat is the same series.  On sl3's
        rank-2 lattice M_w^T and M_w^-1 differ."""
        _, strat = build(key)
        if key.endswith("sl3"):
            assert any(transpose(w) != int_inverse(w) for w in strat.weyl.elements)
        for s, space in bps_spaces(key).items():
            eps = I.once(strat, I.epsilon, strat.strata[s])
            flat = strat.strata[s].flat
            elements = []
            for idx in eps:
                cochar = transpose(int_inverse(strat.weyl.elements[idx]))
                elements.append((
                    restrict_action(cochar, flat) if flat else (),
                    [Fraction(t) / eps[idx] for t in space.traces[idx]],
                ))
            assert I.isotypic_series(strat, space, eps, 6) == molien_coefficients(elements, 6), s

    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_molien_sum_matches_the_fraction_route(self, key, monkeypatch):
        """The restricted isotypic inputs, rational matrices with Fraction
        numerators, give the series of the Molien sum taken one element at a
        time over Fractions."""
        strat = build(key)[1]
        seen = []

        def recorded(elements, cutoff):
            seen.append((elements, cutoff))
            return molien_coefficients(elements, cutoff)

        monkeypatch.setattr(I, "molien_coefficients", recorded)
        for s, space in bps_spaces(key).items():
            I.isotypic_series(strat, space, I.once(strat, I.epsilon, strat.strata[s]), 8)
        assert seen
        for elements, cutoff in seen:
            assert all(isinstance(t, Fraction) for _, numerator in elements for t in numerator)
            series = molien_coefficients(elements, cutoff)
            assert series == molien_fractions(elements, cutoff)
            assert all(isinstance(c, Fraction) for c in series)


class TestMemoTraffic:
    """Reads of the memo through integrality.once, counted per builder."""

    @staticmethod
    def counting(monkeypatch):
        reads = collections.Counter()
        once_ = I.once

        def counted(strat, builder, *args):
            reads[builder] += 1
            return once_(strat, builder, *args)

        monkeypatch.setattr(I, "once", counted)
        return reads

    def test_verify_isomorphism_reads_each_orbit_once(self, monkeypatch):
        # a second call, so that no build inside a builder reads the memo
        strat = fresh("adjoint:gl3")
        I.verify_isomorphism(strat, 8)
        reads = self.counting(monkeypatch)
        assert I.verify_isomorphism(strat, 8).passed
        representatives = strat.orbit_representatives()
        assert all(s.dims.r_lambda <= 8 for s in representatives)
        for builder in (I.bps_space, I.epsilon, I.set_stabilizer_of, I._flat_complement_forms):
            assert reads[builder] == len(representatives), builder.__name__

    def test_j_graded_reads_the_induction_data_once_per_cover(self, monkeypatch):
        # adjoint:gl3's top covers three strata, and degree 2 induces two
        # generators from each
        strat = fresh("adjoint:gl3")
        top, p = strat.top, 2
        for q in range(p):
            I.once(strat, I.j_graded, top, q)
        sums = []
        kernel_sum = I.kernel_sum

        def recording(f, form, cosets):
            sums.append(f)
            return kernel_sum(f, form, cosets)

        monkeypatch.setattr(I, "kernel_sum", recording)
        reads = self.counting(monkeypatch)
        I.j_graded(strat, top, p)
        assert len(sums) == 6
        assert reads[I._induction_data] == len(strat.covers[top.index]) == 3


class TestVerification:
    def test_gl2_hilbert_targets(self, gl2_strat):
        result = I.verify_hilbert(gl2_strat, 6)
        assert result.passed
        assert [int(r.target) for r in result.rows] == [1, 1, 2, 2, 3, 3, 4]

    def test_torus_hilbert_targets(self, torus_strat):
        result = I.verify_hilbert(torus_strat, 6)
        assert result.passed
        assert [int(r.target) for r in result.rows] == [1, 2, 3, 4, 5, 6, 7]

    def test_sl2_quartic_forms_pass(self):
        _, strat = build("sl2-irrep:5")
        assert I.verify_hilbert(strat, 6).passed
        assert I.verify_isomorphism(strat, 6).passed

    def test_gl2_isomorphism(self, gl2_strat):
        result = I.verify_isomorphism(gl2_strat, 6)
        assert result.passed
        for row in result.rows:
            assert row.target_dim == row.domain_dim == row.image_rank

    def test_sl2_adjoint_squared(self):
        _, strat = build("sl2-adjoint:2")
        assert I.verify_isomorphism(strat, 6).passed

    def test_adjoint_degree_zero_is_group_order(self):
        for key, order in (("adjoint:gl2", 2), ("adjoint:gl3", 6)):
            _, strat = build(key)
            n = strat.document.rank
            generic = strat.strata[0]
            out = I.induct(strat, Poly.constant(n, 1), generic, strat.top)
            assert out == Poly.constant(n, order)

    def test_hilbert_and_isomorphism_agree(self):
        for key in ("gl2-cotangent", "sl2-irrep:7", "trivial:sl3"):
            _, strat = build(key)
            h = I.verify_hilbert(strat, 5)
            iso = I.verify_isomorphism(strat, 5)
            for hr, ir in zip(h.rows, iso.rows):
                assert hr.match == ir.bijective

    def test_associativity(self):
        for key in ("gl2-cotangent", "torus2-cotangent", "trivial:sl3"):
            _, strat = build(key)
            result = I.verify_associativity(strat)
            assert result.rows
            assert result.passed

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("key", CATALOG_INSTANCES)
    def test_associativity_ledger_against_the_chain_by_chain_loop(
            self, key, perturbed, monkeypatch):
        # Perturbed, a nonconstant induction is scaled by 1 + the source
        # stratum's index, so a staged induction through a stratum j > 0
        # differs from the direct one and rows fail after the first function.
        # Either way the ledger matches the loop that makes every induction
        # of every chain, and no (polynomial, source representative, target)
        # reaches induct twice.
        strat = build(key)[1]
        induct = I.induct
        seen = []

        def recording(strat_, f, mu, target):
            seen.append((frozenset(f.terms.items()), mu.rep, target.index))
            out = induct(strat_, f, mu, target)
            return scaled(out, 1 + mu.index) if perturbed and f.degree > 0 else out

        monkeypatch.setattr(I, "induct", recording)
        expected = associativity_rows(strat)
        seen.clear()
        rows = I.verify_associativity(strat).rows
        assert rows == expected
        assert len(seen) == len(set(seen))
        if perturbed and len(strat.strata) > 1:
            assert not all(row.ok for row in rows)
