"""Quadratic structures: invariant forms, weighted compatibility, the
cotangent double, the induced form on the bicrossed product, and the
quadratic decomposition."""

from fractions import Fraction
from pathlib import Path

import pytest

from rbpair import matched_lie, quadratic
from rbpair.errors import (
    DimensionMismatchError,
    RepresentativeDisagreementError,
    WeightUnsupportedError,
)
from rbpair.fixtures import aff1, sl2
from rbpair.lie import LieAlgebra, killing_form, validate_lie_algebra
from rbpair.linalg import Matrix, vector
from rbpair.matched_lie import canonical_projections
from rbpair.quadratic import (
    ManinTriple,
    QuadraticRB,
    check_compatibility,
    cotangent_fixture,
    direct_sum_quadratic,
    form_value,
    manin_triple,
    quadratic_decompose,
    quadratic_projection_check,
    validate_quadratic,
)
from rbpair.rb_lie import RotaBaxterLie, check_rota_baxter

F = Fraction


# ------------------------------------------------------------------ validation


def test_one_dim_scalar_form_passes():
    assert validate_quadratic(LieAlgebra.abelian(1), Matrix.diagonal([1])).ok


def test_sl2_killing_form_frozen_and_valid():
    g = sl2()
    k = killing_form(g)
    assert k == Matrix.from_rows([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert validate_quadratic(g, k).ok


def test_zero_form_fails_nondegeneracy():
    report = validate_quadratic(sl2(), Matrix.zero(3, 3))
    assert not report.ok
    failing = {c.name for c in report.failures()}
    assert "form-nondegenerate" in failing


def test_asymmetric_form_witnessed():
    s = Matrix.from_rows([[0, 1], [0, 0]])
    report = validate_quadratic(LieAlgebra.abelian(2), s)
    bad = [c for c in report.failures() if c.name == "form-symmetric"]
    assert bad and "pair" in bad[0].witness


def test_noninvariant_form_witnessed():
    report = validate_quadratic(sl2(), Matrix.identity(3))
    bad = [c for c in report.failures() if c.name == "form-invariant"]
    assert bad and "triple" in bad[0].witness


def test_form_shape_guard():
    with pytest.raises(DimensionMismatchError):
        validate_quadratic(sl2(), Matrix.identity(2))


# --------------------------------------------------------------- compatibility


def test_half_identity_always_compatible():
    g = sl2()
    q = QuadraticRB(
        RotaBaxterLie(g, Matrix.identity(3).scale(F(1, 2)), F(-1)),
        killing_form(g))
    report = check_compatibility(q)
    assert report.ok
    assert {c.name for c in report.checks} == {
        "operator-form-compatibility", "companion-is-form-adjoint"}


def test_identity_operator_incompatible():
    g = sl2()
    q = QuadraticRB(RotaBaxterLie(g, Matrix.identity(3), F(-1)),
                    killing_form(g))
    report = check_compatibility(q)
    assert not report.ok
    assert not report.checks[0].holds


def test_other_weight_checks_single_identity():
    g = LieAlgebra.abelian(2)
    q = QuadraticRB(RotaBaxterLie(g, Matrix.identity(2), F(-2)),
                    Matrix.identity(2))
    report = check_compatibility(q)
    assert report.ok
    assert [c.name for c in report.checks] == ["operator-form-compatibility"]


# ------------------------------------------------------------------- cotangent


def test_cotangent_one_dim_frozen():
    q = cotangent_fixture(LieAlgebra.abelian(1, ("x",)))
    assert q.rb.algebra.dim == 2
    assert q.rb.algebra.c == LieAlgebra.abelian(2).c
    assert q.form == Matrix.from_rows([[0, 1], [1, 0]])
    assert q.rb.operator == Matrix.diagonal([1, 0])


def test_cotangent_aff1_brackets_frozen():
    q = cotangent_fixture(aff1())
    d = q.rb.algebra
    assert d.dim == 4
    assert d.labels == ("a", "b", "a*", "b*")
    assert d.bracket_basis(0, 1) == vector([0, 1, 0, 0])    # [a,b] = b
    assert d.bracket_basis(0, 3) == vector([0, 0, 0, -1])   # [a,b*] = -b*
    assert d.bracket_basis(1, 3) == vector([0, 0, 1, 0])    # [b,b*] = a*
    assert d.bracket_basis(0, 2) == vector([0, 0, 0, 0])
    assert d.bracket_basis(2, 3) == vector([0, 0, 0, 0])
    assert validate_lie_algebra(d).ok


@pytest.mark.parametrize("base", [
    LieAlgebra.abelian(1, ("x",)), aff1(), sl2()])
def test_cotangent_passes_all_validators(base):
    q = cotangent_fixture(base)
    assert validate_lie_algebra(q.rb.algebra).ok
    assert validate_quadratic(q.rb.algebra, q.form).ok
    assert check_rota_baxter(q.rb.algebra, q.rb.operator, q.rb.weight).holds
    assert check_compatibility(q).ok


# ---------------------------------------------------------------- induced form


def one_dim_probe() -> QuadraticRB:
    return QuadraticRB(
        RotaBaxterLie(LieAlgebra.abelian(1, ("x",)),
                      Matrix.diagonal([F(1, 2)]), F(-1)),
        Matrix.diagonal([1]))


def test_sprime_cotangent_one_dim_antidiagonal():
    mt, report = manin_triple(cotangent_fixture(LieAlgebra.abelian(1, ("x",))))
    assert report.ok
    assert mt.form == Matrix.from_rows([[0, 1], [1, 0]])


def test_sprime_probe_frozen():
    mt, report = manin_triple(one_dim_probe())
    assert report.ok
    assert mt.form == Matrix.from_rows([[0, 2], [2, 0]])
    assert report.data["isotropy"] == {"plus": True, "minus": True}
    assert report.data["sprime"] == [["0", "2"], ["2", "0"]]


def test_sprime_cotangent_aff1_frozen():
    mt, report = manin_triple(cotangent_fixture(aff1()))
    assert report.ok
    assert mt.form == Matrix.from_rows([
        [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert mt.plus_block.dim == 2 and mt.minus_block.dim == 2


def test_sprime_cotangent_sl2_certified():
    mt, report = manin_triple(cotangent_fixture(sl2()))
    assert report.ok
    assert mt.bicrossed.total.dim == 6


def test_sprime_weight_guard():
    q = QuadraticRB(
        RotaBaxterLie(LieAlgebra.abelian(1), Matrix.diagonal([1]), F(-2)),
        Matrix.diagonal([1]))
    with pytest.raises(WeightUnsupportedError):
        manin_triple(q)


def test_sprime_incompatible_raises_disagreement():
    g = sl2()
    q = QuadraticRB(RotaBaxterLie(g, Matrix.identity(3), F(-1)),
                    killing_form(g))
    with pytest.raises(RepresentativeDisagreementError):
        manin_triple(q)


# ------------------------------------------------------- projection orthogonality


def test_projection_check_identity_and_zero_vacuous():
    mt, _ = manin_triple(one_dim_probe())
    n = mt.bicrossed.total.dim
    assert quadratic_projection_check(mt, Matrix.identity(n)).ok
    assert quadratic_projection_check(mt, Matrix.zero(n, n)).ok


@pytest.mark.parametrize("q", [
    one_dim_probe(),
    cotangent_fixture(LieAlgebra.abelian(1, ("x",))),
    cotangent_fixture(aff1()),
    cotangent_fixture(sl2()),
])
def test_canonical_projections_orthogonal_on_fixtures(q):
    mt, _ = manin_triple(q)
    proj_c, proj_ct, proj_report = canonical_projections(mt.bicrossed)
    assert proj_report.ok
    assert quadratic_projection_check(mt, proj_c).ok
    assert quadratic_projection_check(mt, proj_ct).ok


def test_coordinate_projection_fails_orthogonality():
    mt, _ = manin_triple(one_dim_probe())
    report = quadratic_projection_check(mt, Matrix.diagonal([1, 0]))
    assert not report.ok
    bad = [c for c in report.failures()
           if c.name == "cross-projection-orthogonality"]
    assert bad and "pair" in bad[0].witness


# ------------------------------------------------------------------ direct sum


def test_direct_sum_with_zero_dim():
    g = sl2()
    k = killing_form(g)
    total, s = direct_sum_quadratic(
        (g, k), (LieAlgebra.abelian(0, ()), Matrix.from_rows([], 0)))
    assert total.dim == 3
    assert s == k
    assert validate_quadratic(total, s).ok


def test_direct_sum_two_scalars():
    total, s = direct_sum_quadratic(
        (LieAlgebra.abelian(1), Matrix.diagonal([1])),
        (LieAlgebra.abelian(1), Matrix.diagonal([1])))
    assert s == Matrix.identity(2)
    assert validate_quadratic(total, s).ok


def test_direct_sum_mixed_blocks():
    g = sl2()
    total, s = direct_sum_quadratic(
        (g, killing_form(g)), (LieAlgebra.abelian(1), Matrix.diagonal([5])))
    assert total.dim == 4
    assert s.entries[3][3] == 5
    assert validate_quadratic(total, s).ok


# --------------------------------------------------------------- decomposition


def test_decompose_cotangent_aff1_first_factor_only():
    report = quadratic_decompose(cotangent_fixture(aff1()))
    assert report.ok
    assert report.data["g1_dim"] == 4
    assert report.data["g2_dim"] == 0
    assert any(c.name == "graph-map-preserves-form" for c in report.checks)


def test_decompose_probe_both_blocks_frozen():
    report = quadratic_decompose(one_dim_probe())
    assert report.ok
    assert report.data["g1_dim"] == 1
    assert report.data["g2_dim"] == 1
    assert report.data["first_block_form"] == [["4"]]
    assert report.data["second_block_form"] == [["-4"]]


def test_decompose_cotangent_sl2():
    report = quadratic_decompose(cotangent_fixture(sl2()))
    assert report.ok
    assert report.data["g1_dim"] == 6
    assert report.data["g2_dim"] == 0


# Expected reports of `quadratic_decompose`, recorded before it was changed to
# build the bicrossed algebra once and derive the Manin triple from the
# decomposition; they must stay unchanged byte for byte.
GOLDEN = Path(__file__).parent / "golden"
DECOMPOSE_GOLDEN_INPUTS = {
    "cotangent_aff1": lambda: cotangent_fixture(aff1()),
    "cotangent_sl2": lambda: cotangent_fixture(sl2()),
    "one_dim_probe": one_dim_probe,
}


@pytest.mark.parametrize("name", list(DECOMPOSE_GOLDEN_INPUTS))
def test_decompose_matches_golden_bytes(name):
    report = quadratic_decompose(DECOMPOSE_GOLDEN_INPUTS[name]())
    stem = GOLDEN / f"quadratic_decompose_{name}"
    assert report.to_text().encode() == stem.with_suffix(".txt").read_bytes()
    assert report.to_json().encode() == stem.with_suffix(".json").read_bytes()


def test_decompose_builds_bicrossed_once(monkeypatch):
    calls = {"bicrossed_from_rb": 0, "decompose_bicrossed": 0}
    for name in calls:
        def counting(*args, _original=getattr(matched_lie, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(matched_lie, name, counting)
        monkeypatch.setattr(quadratic, name, counting)
    assert quadratic_decompose(cotangent_fixture(sl2())).ok
    assert calls == {"bicrossed_from_rb": 1, "decompose_bicrossed": 1}


def test_decompose_zero_dim_passes():
    q = QuadraticRB(
        RotaBaxterLie(LieAlgebra.abelian(0, ()), Matrix.from_rows([], 0), F(-1)),
        Matrix.from_rows([], 0))
    report = quadratic_decompose(q)
    assert report.ok
    assert report.data["g1_dim"] == 0
    assert report.data["g2_dim"] == 0


def test_decompose_weight_guard():
    q = QuadraticRB(
        RotaBaxterLie(LieAlgebra.abelian(1), Matrix.diagonal([1]), F(1)),
        Matrix.diagonal([1]))
    with pytest.raises(WeightUnsupportedError):
        quadratic_decompose(q)


# -------------------------------------------------------------- form evaluation


def test_form_value_bilinear():
    s = Matrix.from_rows([[1, 2], [3, 4]])
    assert form_value(s, vector([1, 0]), vector([0, 1])) == 2
    assert form_value(s, vector([1, 1]), vector([1, 1])) == 10


def test_form_value_shape_guard():
    with pytest.raises(DimensionMismatchError):
        form_value(Matrix.identity(2), vector([1]), vector([1, 0]))
