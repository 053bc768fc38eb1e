"""Matched pairs, bicrossed products, projections, and the factor
isomorphisms, pinned against hand-computed values."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbpair.errors import (
    AxiomsFailedError,
    NotClosedError,
    NotComplementaryError,
    WeightUnsupportedError,
)
from rbpair.fixtures import (
    abelian1_half_rb,
    abelian2_half_rb,
    aff1,
    gl_borel_rb,
    sl2,
    sl2_projection_rb,
    sl_borel_rb,
)
from rbpair.lie import LieAlgebra, LieHom, validate_lie_algebra
from rbpair.linalg import (
    Matrix,
    Subspace,
    is_zero_vector,
    vadd,
    vector,
    vneg,
    vsub,
    vzero,
)
from rbpair.matched_lie import (
    MatchedPairLie,
    bicrossed_certificates,
    bicrossed_from_rb,
    bicrossed_product,
    canonical_projections,
    decompose_bicrossed,
    decomposition_round_trip,
    diagonal_embedding_check,
    induced_mp_homomorphism,
    is_lie_projection,
    iso_first_factor,
    iso_second_factor_quotient,
    matched_pair_from_decomposition,
    matched_pair_from_rb,
    rb_from_projection,
    verify_matched_pair,
    zero_actions,
)
from rbpair.rb_lie import RotaBaxterLie, lemma_suite_lie, tilde_operator

F = Fraction


# -------------------------------------------------------------- verification


def test_zero_actions_pass():
    mp = zero_actions(sl2(), aff1())
    assert verify_matched_pair(mp).ok


def test_sl2_fixture_matched_pair_passes():
    mp, _ = matched_pair_from_rb(sl2_projection_rb())
    assert verify_matched_pair(mp).ok


def test_flipped_action_fails_mixed_identity():
    mp, _ = matched_pair_from_rb(sl2_projection_rb())
    flipped = tuple(tuple(tuple(-x for x in v) for v in row) for row in mp.rhd)
    bad = MatchedPairLie(mp.g_plus, mp.g_minus, flipped, mp.brhd)
    report = verify_matched_pair(bad)
    assert not report.ok
    assert any("mixed-compatibility" in c.name for c in report.failures())


# ------------------------------------------------------- matched pair from rb


def test_sl2_action_tensors_frozen():
    mp, split = matched_pair_from_rb(sl2_projection_rb())
    # echelon bases: g_plus = (h, f), g_minus = (e)
    assert split.g_plus.space == Subspace.from_spanning([[0, 1, 0], [0, 0, 1]], 3)
    assert split.g_minus.space == Subspace.from_spanning([[1, 0, 0]], 3)
    # h acts on e by 2e, f acts on e by 0
    assert mp.rhd[0][0] == (F(2),)
    assert mp.rhd[1][0] == (F(0),)
    # e acts on h by 0, on f by h
    assert mp.brhd[0][0] == (F(0), F(0))
    assert mp.brhd[0][1] == (F(1), F(0))


def test_identity_operator_trivial_pair():
    rb = RotaBaxterLie(sl2(), Matrix.identity(3), F(-1))
    mp, split = matched_pair_from_rb(rb)
    assert mp.g_minus.dim == 0
    assert mp.g_plus.dim == 3
    assert verify_matched_pair(mp).ok


def test_abelian_pair_zero_actions():
    mp, _ = matched_pair_from_rb(abelian2_half_rb())
    assert all(all(all(x == 0 for x in v) for v in row) for row in mp.rhd)
    assert all(all(all(x == 0 for x in v) for v in row) for row in mp.brhd)


def test_weight_zero_rejected():
    rb = RotaBaxterLie(LieAlgebra.abelian(2), Matrix.identity(2), F(0))
    with pytest.raises(WeightUnsupportedError):
        matched_pair_from_rb(rb)


# ------------------------------------------------------------------ bicrossed


def test_zero_actions_bicrossed_is_direct_sum():
    mp = zero_actions(sl2(), aff1())
    bc = bicrossed_product(mp)
    assert validate_lie_algebra(bc.total).ok
    # cross brackets vanish
    assert bc.total.bracket(bc.total.basis_vector(0),
                            bc.total.basis_vector(4)) == vzero(5)


def test_sl2_bicrossed_brackets_frozen():
    bc = bicrossed_from_rb(sl2_projection_rb())
    total = bc.total
    assert total.dim == 3
    # basis (p.h, p.f, m.e)
    assert total.bracket_basis(0, 1) == vector([0, -2, 0])   # [h,f] = -2f
    assert total.bracket_basis(0, 2) == vector([0, 0, 2])    # [h,e]: h acts by 2e
    assert total.bracket_basis(1, 2) == vector([-1, 0, 0])   # [f,e] = -(e>f) = -h
    assert validate_lie_algebra(total).ok


def test_one_dim_half_bicrossed_abelian():
    bc = bicrossed_from_rb(abelian1_half_rb())
    assert bc.total.dim == 2
    assert bc.total.c == LieAlgebra.abelian(2).c


def test_bicrossed_rejects_broken_pair():
    mp, _ = matched_pair_from_rb(sl2_projection_rb())
    flipped = tuple(tuple(tuple(-x for x in v) for v in row) for row in mp.rhd)
    bad = MatchedPairLie(mp.g_plus, mp.g_minus, flipped, mp.brhd)
    with pytest.raises(AxiomsFailedError):
        bicrossed_product(bad)


def test_bicrossed_certificates_pass():
    for rb in [sl2_projection_rb(), abelian2_half_rb(), abelian1_half_rb()]:
        assert bicrossed_certificates(bicrossed_from_rb(rb)).ok


# ------------------------------------------------------ decomposition variant


def test_decomposition_pair_matches_rb_pair_on_sl2():
    g = sl2()
    a = Subspace.from_spanning([[0, 1, 0], [0, 0, 1]], 3)
    b = Subspace.from_spanning([[1, 0, 0]], 3)
    from_split = matched_pair_from_decomposition(g, a, b)
    from_rb, _ = matched_pair_from_rb(sl2_projection_rb())
    assert from_split.rhd == from_rb.rhd
    assert from_split.brhd == from_rb.brhd
    assert from_split.g_plus.c == from_rb.g_plus.c
    assert from_split.g_minus.c == from_rb.g_minus.c


def test_decomposition_pair_abelian_zero_actions():
    g = LieAlgebra.abelian(2)
    mp = matched_pair_from_decomposition(
        g, Subspace.from_spanning([[1, 1]], 2), Subspace.from_spanning([[1, -1]], 2))
    assert mp.rhd[0][0] == (F(0),)
    assert mp.brhd[0][0] == (F(0),)


def test_decomposition_rejects_non_subalgebra():
    g = sl2()
    with pytest.raises(NotClosedError):
        matched_pair_from_decomposition(
            g, Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3),
            Subspace.from_spanning([[0, 1, 0]], 3))


def test_decomposition_rejects_non_complementary():
    g = sl2()
    with pytest.raises(NotComplementaryError):
        matched_pair_from_decomposition(
            g, Subspace.from_spanning([[0, 1, 0], [0, 0, 1]], 3),
            Subspace.from_spanning([[0, 0, 1]], 3))


def test_round_trip_isomorphism():
    g = sl2()
    a = Subspace.from_spanning([[0, 1, 0], [0, 0, 1]], 3)
    b = Subspace.from_spanning([[1, 0, 0]], 3)
    assert decomposition_round_trip(g, a, b).ok
    g2 = aff1()
    assert decomposition_round_trip(
        g2, Subspace.from_spanning([[1, 0]], 2),
        Subspace.from_spanning([[0, 1]], 2)).ok


# ---------------------------------------------------------- diagonal embedding


def test_diagonal_embedding_fixtures():
    for rb in [sl2_projection_rb(), abelian2_half_rb(), abelian1_half_rb(),
               RotaBaxterLie(sl2(), Matrix.identity(3), F(-1))]:
        bc = bicrossed_from_rb(rb)
        assert diagonal_embedding_check(rb, bc).ok


def test_lemma_suite_with_bicrossed():
    for rb in [sl2_projection_rb(), abelian2_half_rb()]:
        bc = bicrossed_from_rb(rb)
        report = lemma_suite_lie(rb, bc)
        assert report.ok
        assert any(c.name == "doubled-image-bracket" for c in report.checks)


# ----------------------------------------------------------------- projections


def test_sl2_projections_are_identity_and_zero():
    bc = bicrossed_from_rb(sl2_projection_rb())
    proj_c, proj_ct, report = canonical_projections(bc)
    assert report.ok
    assert proj_c.matrix == Matrix.identity(3)
    assert proj_ct.matrix == Matrix.zero(3, 3)


def test_one_dim_projection_values_frozen():
    bc = bicrossed_from_rb(abelian1_half_rb())
    proj_c, proj_ct, report = canonical_projections(bc)
    assert report.ok
    half = F(1, 2)
    assert proj_c.matrix == Matrix.from_rows([[half, half], [half, half]])
    assert proj_c.apply(vector([1, 0])) == (half, half)
    assert proj_ct.apply(vector([1, 0])) == (half, -half)


def test_abelian2_projection_matrix_frozen():
    bc = bicrossed_from_rb(abelian2_half_rb())
    proj_c, _, report = canonical_projections(bc)
    assert report.ok
    h = F(1, 2)
    assert proj_c.matrix == Matrix.from_rows(
        [[h, 0, h], [0, 1, 0], [h, 0, h]])


def test_projection_weight_guard():
    g = LieAlgebra.abelian(1)
    rb = RotaBaxterLie(g, Matrix.diagonal([1]), F(-2))
    bc = bicrossed_from_rb(rb)
    with pytest.raises(WeightUnsupportedError):
        canonical_projections(bc)


def test_is_lie_projection_cases():
    bc = bicrossed_from_rb(sl2_projection_rb())
    assert is_lie_projection(bc, Matrix.identity(3)).ok
    assert is_lie_projection(bc, Matrix.zero(3, 3)).ok
    half_id = Matrix.identity(3).scale(F(1, 2))
    report = is_lie_projection(bc, half_id)
    assert not report.ok
    assert not report.checks[0].holds  # idempotency


# ------------------------------------ representative check: pointwise vs linear


def pointwise_representative_witness(bc, c_matrix, ct_matrix):
    """Reference form of the ``representative-independence`` check: every
    ambient basis pair (x1, x2), tried with every representative perturbed
    along one basis direction of ker B in slot 1 and of ker B~ in slot 2.
    ``canonical_projections`` replaces it by checks on a spanning set."""
    rb = bc.split.parent
    g = rb.algebra
    tilde = tilde_operator(rb)
    h_minus = bc.split.h_minus.basis_vectors()   # ker B
    h_plus = bc.split.h_plus.basis_vectors()     # ker B~
    for i1 in range(g.dim):
        for i2 in range(g.dim):
            base1, base2 = g.basis_vector(i1), g.basis_vector(i2)
            reps1 = [base1] + [vadd(base1, k) for k in h_minus]
            reps2 = [base2] + [vadd(base2, k) for k in h_plus]
            w = bc.embed_ambient_pair(rb.apply(base1), tilde.apply(base2))
            if w is None:
                return f"representative ({i1},{i2}) escapes"
            got_c = c_matrix.matvec(w)
            got_ct = ct_matrix.matvec(w)
            for x1 in reps1:
                for x2 in reps2:
                    if bc.embed_ambient_pair(rb.apply(x1), tilde.apply(x2)) != w:
                        return (f"representatives of ({i1},{i2}) map to "
                                "different bicrossed elements")
                    total = vadd(rb.apply(x1), tilde.apply(x2))
                    want_c = bc.embed_ambient_pair(rb.apply(total),
                                                   tilde.apply(total))
                    bb = rb.apply(tilde.apply(vsub(x1, x2)))
                    want_ct = bc.embed_ambient_pair(bb, vneg(bb))
                    if want_c != got_c or want_ct != got_ct:
                        return (f"closed form and representative form disagree "
                                f"at ({i1},{i2})")
    return None


def representative_verdicts(bc):
    """The linear check from ``canonical_projections`` and the pointwise
    reference on the same projection matrices; asserts equal verdicts."""
    proj_c, proj_ct, report = canonical_projections(bc)
    (linear,) = [c for c in report.checks if c.name == "representative-independence"]
    assert linear.anchor == "projection-representative-independence"
    pointwise = pointwise_representative_witness(bc, proj_c.matrix, proj_ct.matrix)
    assert linear.holds == (pointwise is None)
    return linear, pointwise


def with_kernel_outside(bc, field):
    """The bicrossed algebra with ``split.<field>`` replaced by the line
    through the first basis vector that its operator does not kill."""
    rb = bc.split.parent
    op = rb.operator if field == "h_minus" else rb.tilde_matrix()
    i = next(i for i in range(rb.dim) if not is_zero_vector(op.col(i)))
    line = Subspace.from_spanning([rb.algebra.basis_vector(i)], rb.dim)
    return dataclasses.replace(
        bc, split=dataclasses.replace(bc.split, **{field: line}))


REPRESENTATIVE_PANEL = [
    pytest.param(sl2_projection_rb, id="sl2-projection"),
    pytest.param(abelian2_half_rb, id="abelian2-half"),
    pytest.param(abelian1_half_rb, id="abelian1-half"),
    pytest.param(lambda: gl_borel_rb(2), id="gl2-borel"),
    # the pointwise reference walks 64 pairs x 24 representatives here
    pytest.param(lambda: sl_borel_rb(3), id="sl3-borel", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("make_rb", REPRESENTATIVE_PANEL)
def test_representative_check_matches_pointwise_on_panel(make_rb):
    linear, pointwise = representative_verdicts(bicrossed_from_rb(make_rb()))
    assert linear.holds and pointwise is None


@pytest.mark.parametrize("field", ["h_minus", "h_plus"])
@pytest.mark.parametrize("make_rb", REPRESENTATIVE_PANEL)
def test_representative_check_fails_with_kernel_outside(make_rb, field):
    bc = with_kernel_outside(bicrossed_from_rb(make_rb()), field)
    linear, pointwise = representative_verdicts(bc)
    assert not linear.holds and linear.witness
    assert pointwise is not None


ENTRIES = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_representative_check_matches_pointwise_on_abelian(rows):
    # every operator on an abelian algebra is Rota-Baxter of every weight
    n = len(rows)
    rb = RotaBaxterLie(LieAlgebra.abelian(n), Matrix.from_rows(rows, n), F(-1))
    bc = bicrossed_from_rb(rb)
    linear, pointwise = representative_verdicts(bc)
    assert linear.holds and pointwise is None
    for field, op in (("h_minus", rb.operator), ("h_plus", rb.tilde_matrix())):
        if not op.is_zero():
            linear, pointwise = representative_verdicts(
                with_kernel_outside(bc, field))
            assert not linear.holds and linear.witness
            assert pointwise is not None


# ------------------------------------------------------- operators from proj


def test_rb_from_zero_projection_is_block_split():
    bc = bicrossed_from_rb(sl2_projection_rb())
    _, proj_ct, _ = canonical_projections(bc)  # C~ = 0
    rb_plus, rb_minus, sub, report = rb_from_projection(bc, proj_ct)
    assert report.ok
    assert sub.dim == 3
    assert rb_plus.operator == Matrix.diagonal([1, 1, 0])
    assert rb_minus.operator == Matrix.diagonal([0, 0, 1])


def test_rb_from_projection_one_dim_frozen():
    bc = bicrossed_from_rb(abelian1_half_rb())
    proj_c, _, _ = canonical_projections(bc)
    rb_plus, rb_minus, sub, report = rb_from_projection(bc, proj_c)
    assert report.ok
    assert sub.space == Subspace.from_spanning([[1, -1]], 2)
    # B((a,-a)) = C~((a,0)) = (a/2, -a/2), one half of the kernel vector
    assert rb_plus.operator == Matrix.diagonal([F(1, 2)])
    assert rb_minus.operator == Matrix.diagonal([F(1, 2)])


# -------------------------------------------------------------- decomposition


def test_decompose_sl2_dims():
    dec, report = decompose_bicrossed(sl2_projection_rb())
    assert report.ok
    assert report.data["g1_dim"] == 3
    assert report.data["g2_dim"] == 0
    assert report.data["intersection_dim"] == 0


def test_decompose_abelian2_dims_and_shape():
    dec, report = decompose_bicrossed(abelian2_half_rb())
    assert report.ok
    assert dec.bicrossed.total.dim == 3
    assert report.data["g1_dim"] == 2
    assert report.data["g2_dim"] == 1
    assert report.data["intersection_dim"] == 1
    assert dec.g2.space == Subspace.from_spanning([[1, 0, -1]], 3)


def test_decompose_identity_operator_no_second_factor():
    rb = RotaBaxterLie(sl2(), Matrix.identity(3), F(-1))
    _, report = decompose_bicrossed(rb)
    assert report.ok
    assert report.data["g2_dim"] == 0


# --------------------------------------------------------------------- iso g1


def test_first_factor_iso_sl2():
    report = iso_first_factor(decompose_bicrossed(sl2_projection_rb())[0])
    assert report.ok
    assert report.data["g1_dim"] == 3


def test_first_factor_iso_identity_operator():
    rb = RotaBaxterLie(sl2(), Matrix.identity(3), F(-1))
    assert iso_first_factor(decompose_bicrossed(rb)[0]).ok


def test_first_factor_iso_one_dim():
    report = iso_first_factor(decompose_bicrossed(abelian1_half_rb())[0])
    assert report.ok
    assert report.data["g1_dim"] == 1


# --------------------------------------------------------------- iso quotient


def test_second_factor_sl2_zero_dims():
    report = iso_second_factor_quotient(decompose_bicrossed(sl2_projection_rb())[0])
    assert report.ok
    assert report.data["g2_dim"] == 0
    assert report.data["quotient_dim"] == 0


def test_second_factor_abelian2_frozen():
    report = iso_second_factor_quotient(decompose_bicrossed(abelian2_half_rb())[0])
    assert report.ok
    assert report.data["g2_dim"] == 1
    assert report.data["quotient_dim"] == 1


def test_second_factor_zero_operator():
    rb = RotaBaxterLie(sl2(), Matrix.zero(3, 3), F(-1))
    report = iso_second_factor_quotient(decompose_bicrossed(rb)[0])
    assert report.ok
    assert report.data["g2_dim"] == 0
    assert report.data["quotient_dim"] == 0


# ----------------------------------------------------------------- mp homs


def test_induced_mp_hom_identity():
    rb = sl2_projection_rb()
    f = LieHom(rb.algebra, rb.algebra, Matrix.identity(3))
    assert induced_mp_homomorphism(f, rb, rb).ok


def test_induced_mp_hom_zero_map():
    rb = sl2_projection_rb()
    zero_rb = RotaBaxterLie(LieAlgebra.abelian(1), Matrix.zero(1, 1), F(-1))
    f = LieHom(rb.algebra, zero_rb.algebra, Matrix.zero(1, 3))
    assert induced_mp_homomorphism(f, rb, zero_rb).ok
