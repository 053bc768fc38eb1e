"""Rota-Baxter operators on Lie algebras: identity checks, companion,
descendent bracket, subspace splits, quotients, and the lemma suite."""

from fractions import Fraction

import pytest

from rbpair.errors import DimensionMismatchError, WeightUnsupportedError
from rbpair.fixtures import (
    abelian1_half_rb,
    abelian2_half_rb,
    aff1,
    sl2,
    sl2_projection_rb,
)
from rbpair.lie import LieAlgebra, LieHom, validate_lie_algebra
from rbpair.linalg import Matrix, Subspace, vector
from rbpair.rb_lie import (
    RotaBaxterLie,
    check_rb_homomorphism,
    check_rota_baxter,
    descendent_algebra,
    lemma_suite_lie,
    quotient_rb,
    split_subalgebras,
    tilde_operator,
)

F = Fraction


# ----------------------------------------------------------- operator checks


def test_zero_operator_passes_any_weight():
    g = sl2()
    assert check_rota_baxter(g, Matrix.zero(3, 3), -1).holds
    assert check_rota_baxter(g, Matrix.zero(3, 3), F(2, 3)).holds


def test_identity_operator_passes_weight_minus_one():
    assert check_rota_baxter(sl2(), Matrix.identity(3), -1).holds
    assert check_rota_baxter(aff1(), Matrix.identity(2), -1).holds


def test_sl2_projection_passes():
    rb = sl2_projection_rb()
    assert check_rota_baxter(rb.algebra, rb.operator, rb.weight).holds


def test_identity_operator_fails_weight_zero_on_nonabelian():
    # with λ=0 and B=id: lhs [x,y], rhs B(2[x,y]) = 2[x,y]
    check = check_rota_baxter(sl2(), Matrix.identity(3), 0)
    assert not check.holds
    assert check.witness == ("pair (e,h): [B(x),B(y)] = ['-2', '0', '0'] "
                             "but B([x,y]_B) = ['-4', '0', '0']")


def test_failing_projection_witnessed():
    # projection onto span{e,f} along span{h}: the image is not a subalgebra
    # ([e,f] = h escapes), so the operator identity must fail
    check = check_rota_baxter(sl2(), Matrix.diagonal([1, 0, 1]), -1)
    assert not check.holds
    assert check.witness == ("pair (e,f): [B(x),B(y)] = ['0', '1', '0'] "
                             "but B([x,y]_B) = ['0', '0', '0']")


def test_complementary_subalgebra_projection_passes():
    # both span{e} and span{h,f} are subalgebras, so this projection is
    # Rota-Baxter of weight -1 by the direct-sum construction
    assert check_rota_baxter(sl2(), Matrix.diagonal([1, 0, 0]), -1).holds


def test_operator_shape_guard():
    with pytest.raises(DimensionMismatchError):
        check_rota_baxter(sl2(), Matrix.zero(2, 2), -1)


def test_abelian_any_operator_passes():
    g = LieAlgebra.abelian(2)
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert check_rota_baxter(g, m, -1).holds
    assert check_rota_baxter(g, m, 5).holds


# ------------------------------------------------------------------ companion


def test_tilde_of_zero_is_identity():
    rb = RotaBaxterLie(sl2(), Matrix.zero(3, 3), F(-1))
    assert tilde_operator(rb).operator == Matrix.identity(3)


def test_tilde_of_identity_is_zero():
    rb = RotaBaxterLie(sl2(), Matrix.identity(3), F(-1))
    assert tilde_operator(rb).operator == Matrix.zero(3, 3)


def test_tilde_of_sl2_projection():
    assert tilde_operator(sl2_projection_rb()).operator == Matrix.diagonal([1, 0, 0])


def test_tilde_is_involution_and_rota_baxter():
    for rb in [sl2_projection_rb(), abelian2_half_rb(),
               RotaBaxterLie(aff1(), Matrix.diagonal([1, 0]), F(-1))]:
        t = tilde_operator(rb)
        assert check_rota_baxter(t.algebra, t.operator, t.weight).holds
        assert tilde_operator(t).operator == rb.operator


def test_tilde_general_weight():
    g = LieAlgebra.abelian(2)
    rb = RotaBaxterLie(g, Matrix.diagonal([1, 3]), F(2))
    assert tilde_operator(rb).operator == Matrix.diagonal([-3, -5])


# ----------------------------------------------------------------- descendent


def test_descendent_of_zero_operator_negates():
    g = sl2()
    rb = RotaBaxterLie(g, Matrix.zero(3, 3), F(-1))
    desc = descendent_algebra(rb)
    for i in range(3):
        for j in range(3):
            assert desc.c[i][j] == tuple(-x for x in g.c[i][j])


def test_descendent_of_abelian_is_abelian():
    rb = abelian2_half_rb()
    assert descendent_algebra(rb).c == LieAlgebra.abelian(2).c


def test_descendent_sl2_projection_frozen():
    desc = descendent_algebra(sl2_projection_rb())
    # [e,h]_B = [0,h] + [e,h] - [e,h] = 0; [e,f]_B = 0 + [e,f] - [e,f] = 0
    assert desc.bracket_basis(0, 1) == vector([0, 0, 0])
    assert desc.bracket_basis(0, 2) == vector([0, 0, 0])
    # [h,f]_B = [h,f] + [h,f] - [h,f] = -2f
    assert desc.bracket_basis(1, 2) == vector([0, 0, -2])
    assert validate_lie_algebra(desc).ok


def test_descendent_is_lie_and_operator_still_rota_baxter():
    # the operator is again Rota-Baxter of the same weight on its descendent
    for rb in [sl2_projection_rb(),
               RotaBaxterLie(aff1(), Matrix.diagonal([1, 0]), F(-1))]:
        desc = descendent_algebra(rb)
        assert validate_lie_algebra(desc).ok
        assert check_rota_baxter(desc, rb.operator, rb.weight).holds


# ---------------------------------------------------------------------- split


def test_split_identity_operator():
    rb = RotaBaxterLie(sl2(), Matrix.identity(3), F(-1))
    split, report = split_subalgebras(rb)
    assert report.ok
    assert split.g_plus.space == Subspace.full(3)
    assert split.g_minus.space == Subspace.zero(3)
    assert split.h_plus == Subspace.full(3)
    assert split.h_minus == Subspace.zero(3)


def test_split_sl2_projection_frozen():
    split, report = split_subalgebras(sl2_projection_rb())
    assert report.ok
    assert split.g_plus.space == Subspace.from_spanning([[0, 1, 0], [0, 0, 1]], 3)
    assert split.g_minus.space == Subspace.from_spanning([[1, 0, 0]], 3)
    assert split.intersection == Subspace.zero(3)
    assert split.h_plus == split.g_plus.space
    assert split.h_minus == split.g_minus.space


def test_split_abelian_half_frozen():
    split, report = split_subalgebras(abelian2_half_rb())
    assert report.ok
    assert split.g_plus.space == Subspace.full(2)
    assert split.g_minus.space == Subspace.from_spanning([[1, 0]], 2)
    assert split.intersection == Subspace.from_spanning([[1, 0]], 2)
    assert split.intersection.dim == 1


def test_split_rank_nullity_all_fixtures():
    for rb in [sl2_projection_rb(), abelian2_half_rb(), abelian1_half_rb()]:
        split, report = split_subalgebras(rb)
        n = rb.dim
        assert split.g_plus.dim + split.h_minus.dim == n
        assert split.g_minus.dim + split.h_plus.dim == n
        assert report.ok


def test_weight_minus_one_partition_of_identity():
    for rb in [sl2_projection_rb(), abelian2_half_rb()]:
        assert rb.operator + rb.tilde_matrix() == Matrix.identity(rb.dim)


# ------------------------------------------------------------------- quotient


def test_quotient_identity_operator_is_zero_algebra():
    rb = RotaBaxterLie(sl2(), Matrix.identity(3), F(-1))
    rb_bar, proj, report = quotient_rb(rb)
    assert report.ok
    assert rb_bar.algebra.dim == 0
    assert proj.matrix.rows == 0


def test_quotient_sl2_projection_is_zero():
    rb_bar, _, report = quotient_rb(sl2_projection_rb())
    assert report.ok
    assert rb_bar.algebra.dim == 0


def test_quotient_abelian_half_frozen():
    rb_bar, proj, report = quotient_rb(abelian2_half_rb())
    assert report.ok
    assert rb_bar.algebra.dim == 1
    assert rb_bar.operator == Matrix.diagonal([F(1, 2)])
    assert proj.apply(vector([1, 0])) == vector([1])
    assert proj.apply(vector([0, 1])) == vector([0])


def test_quotient_rejects_other_weights():
    rb = RotaBaxterLie(LieAlgebra.abelian(2), Matrix.diagonal([1, 1]), F(1))
    with pytest.raises(WeightUnsupportedError):
        quotient_rb(rb)


# ----------------------------------------------------------------------- homs


def test_rb_hom_identity_passes():
    rb = sl2_projection_rb()
    f = LieHom(rb.algebra, rb.algebra, Matrix.identity(3))
    report = check_rb_homomorphism(f, rb, rb)
    assert report.ok


def test_rb_hom_zero_map_passes():
    rb = sl2_projection_rb()
    zero_rb = RotaBaxterLie(LieAlgebra.abelian(1), Matrix.zero(1, 1), F(-1))
    f = LieHom(rb.algebra, zero_rb.algebra, Matrix.zero(1, 3))
    assert check_rb_homomorphism(f, rb, zero_rb).ok


def test_rb_hom_scaling_intertwines_but_not_lie():
    rb = sl2_projection_rb()
    f = LieHom(rb.algebra, rb.algebra, Matrix.diagonal([2, 1, 1]))
    report = check_rb_homomorphism(f, rb, rb)
    names = {c.name: c for c in report.checks}
    assert names["operator-intertwining"].holds
    assert not names["lie-homomorphism"].holds
    assert not report.ok


def test_rb_hom_weight_mismatch_raises():
    a = RotaBaxterLie(LieAlgebra.abelian(1), Matrix.zero(1, 1), F(-1))
    b = RotaBaxterLie(LieAlgebra.abelian(1), Matrix.zero(1, 1), F(1))
    f = LieHom(a.algebra, b.algebra, Matrix.identity(1))
    with pytest.raises(WeightUnsupportedError):
        check_rb_homomorphism(f, a, b)


# --------------------------------------------------------------- lemma suite


def test_lemma_suite_zero_operator():
    rb = RotaBaxterLie(sl2(), Matrix.zero(3, 3), F(-1))
    assert lemma_suite_lie(rb).ok


def test_lemma_suite_sl2_and_abelian():
    assert lemma_suite_lie(sl2_projection_rb()).ok
    assert lemma_suite_lie(abelian2_half_rb()).ok


def test_operator_companion_product_identity():
    for rb in [sl2_projection_rb(), abelian2_half_rb()]:
        bt = rb.tilde_matrix()
        closed = rb.operator.scale(-rb.weight) - rb.operator @ rb.operator
        assert rb.operator @ bt == bt @ rb.operator == closed


def test_projection_onto_subalgebra_is_rota_baxter():
    # direct-sum-of-subalgebras oracle: projection onto a along b has weight -1
    g = sl2()
    # a = span{h,f} (closed), b = span{e} (closed); B = diag(0,1,1)
    assert check_rota_baxter(g, Matrix.diagonal([0, 1, 1]), -1).holds
    # aff(1): a = span{a}, b = span{b}
    assert check_rota_baxter(aff1(), Matrix.diagonal([1, 0]), -1).holds
    assert check_rota_baxter(aff1(), Matrix.diagonal([0, 1]), -1).holds
