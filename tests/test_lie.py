"""Lie algebra core: validation, brackets, subalgebras, quotients, homs."""

import contextlib
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbpair import linalg, matched_lie, rb_lie
from rbpair.errors import DimensionMismatchError, NotAnIdealError, NotClosedError
from rbpair.fixtures import (
    aff1,
    gl_borel_rb,
    heisenberg,
    sl2,
    sl2_projection_rb,
    sl_borel_rb,
)
from rbpair.lie import (
    LieAlgebra,
    LieHom,
    check_homomorphism,
    default_labels,
    direct_sum,
    hom_from_images,
    induced_subalgebra,
    quotient_by_ideal,
    validate_lie_algebra,
)
from rbpair.linalg import Matrix, Subspace, frac, vector, vzero
from rbpair.matched_lie import (
    MatchedPairLie,
    matched_pair_from_rb,
    verify_matched_pair,
)
from rbpair.rb_lie import check_rota_baxter, descendent_algebra
from rbpair.reports import Report, checked

F = Fraction


# ---------------------------------------------------------------- validation


def test_validate_abelian_passes():
    report = validate_lie_algebra(LieAlgebra.abelian(3))
    assert report.ok
    assert [c.name for c in report.checks] == ["antisymmetry", "jacobi"]


def test_validate_sl2_passes():
    assert validate_lie_algebra(sl2()).ok


def test_validate_heisenberg_and_aff1_pass():
    assert validate_lie_algebra(heisenberg()).ok
    assert validate_lie_algebra(aff1()).ok


def test_antisymmetry_violation_witnessed():
    n = 2
    zero = vzero(n)
    # [x0,x1] = x0 but [x1,x0] = 0: antisymmetry broken
    c = ((zero, vector([1, 0])), (zero, zero))
    report = validate_lie_algebra(LieAlgebra(("x0", "x1"), c))
    anti = report.checks[0]
    assert not anti.holds
    assert "x0" in anti.witness and "x1" in anti.witness


def test_jacobi_violation_witnessed():
    # [x,y] = x, [x,z] = y, [y,z] = 0 fails Jacobi on (x,y,z)
    g = LieAlgebra.from_sparse(
        ("x", "y", "z"), {(0, 1): {0: 1}, (0, 2): {1: 1}})
    report = validate_lie_algebra(g)
    assert report.checks[0].holds  # antisymmetry fine
    jac = report.checks[1]
    assert not jac.holds
    assert "jacobiator(x,y,z)" in jac.witness


def test_tensor_shape_guard():
    with pytest.raises(DimensionMismatchError):
        LieAlgebra(("a", "b"), ((vzero(2),),))


# ------------------------------------------------------------------ brackets


def test_sl2_basis_brackets_frozen():
    g = sl2()
    assert g.bracket_basis(0, 1) == vector([-2, 0, 0])  # [e,h] = -2e
    assert g.bracket_basis(0, 2) == vector([0, 1, 0])   # [e,f] = h
    assert g.bracket_basis(1, 2) == vector([0, 0, -2])  # [h,f] = -2f
    assert g.bracket_basis(2, 0) == vector([0, -1, 0])


def test_bracket_bilinear_combination():
    g = sl2()
    # [e+f, h] = -2e + 2f
    assert g.bracket(vector([1, 0, 1]), vector([0, 1, 0])) == vector([-2, 0, 2])


def test_bracket_shape_guard():
    with pytest.raises(DimensionMismatchError):
        sl2().bracket(vector([1, 0]), vector([0, 1, 0]))


# --------------------------------------------------------------- subalgebras


def test_induced_subalgebra_whole_space():
    g = sl2()
    sub = induced_subalgebra(g, Subspace.full(3))
    assert sub.algebra.c == g.c


def test_induced_subalgebra_borel_frozen():
    g = sl2()
    span_hf = Subspace.from_spanning([[0, 1, 0], [0, 0, 1]], 3)
    sub = induced_subalgebra(g, span_hf)
    assert sub.dim == 2
    # in the echelon basis (h, f): [h,f] = -2f
    assert sub.algebra.bracket_basis(0, 1) == vector([0, -2])
    assert validate_lie_algebra(sub.algebra).ok


def test_induced_subalgebra_not_closed():
    g = sl2()
    span_ef = Subspace.from_spanning([[1, 0, 0], [0, 0, 1]], 3)
    with pytest.raises(NotClosedError) as err:
        induced_subalgebra(g, span_ef)
    assert err.value.witness == "pair (0,1)"


def test_induced_subalgebra_zero_space():
    sub = induced_subalgebra(sl2(), Subspace.zero(3))
    assert sub.dim == 0
    assert sub.algebra.dim == 0


# ----------------------------------------------------------------- quotients


def test_quotient_aff1_by_span_b():
    g = aff1()
    ideal = Subspace.from_spanning([[0, 1]], 2)
    quotient, proj = quotient_by_ideal(g, ideal)
    assert quotient.dim == 1
    assert quotient.c[0][0] == vector([0])
    assert proj.apply(vector([1, 0])) == vector([1])
    assert proj.apply(vector([0, 1])) == vector([0])
    assert check_homomorphism(proj).holds


def test_quotient_heisenberg_by_center():
    g = heisenberg()
    center = Subspace.from_spanning([[0, 0, 1]], 3)
    quotient, proj = quotient_by_ideal(g, center)
    assert quotient.dim == 2
    # the quotient of the nilpotent algebra by its center is abelian
    assert quotient.c == LieAlgebra.abelian(2).c
    assert check_homomorphism(proj).holds


def test_quotient_rejects_non_ideal():
    g = sl2()
    span_h = Subspace.from_spanning([[0, 1, 0]], 3)
    with pytest.raises(NotAnIdealError):
        quotient_by_ideal(g, span_h)


def test_quotient_by_zero_and_full():
    g = sl2()
    q0, p0 = quotient_by_ideal(g, Subspace.zero(3))
    assert q0.c == g.c
    assert p0.matrix == Matrix.identity(3)
    qf, pf = quotient_by_ideal(g, Subspace.full(3))
    assert qf.dim == 0
    assert pf.matrix.rows == 0


# -------------------------------------------------------------------- homs


def test_identity_hom_passes():
    g = sl2()
    f = LieHom(g, g, Matrix.identity(3))
    assert check_homomorphism(f).holds


def test_swap_without_sign_fails():
    g = sl2()
    # e -> f, h -> h, f -> e
    f = hom_from_images(g, g, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    check = check_homomorphism(f)
    assert not check.holds
    # first violating pair in scan order is (e,h); (e,f) also violates
    assert "(e,h)" in check.witness
    assert f.apply(g.bracket_basis(0, 1)) != g.bracket(
        f.apply(g.basis_vector(0)), f.apply(g.basis_vector(1)))
    assert f.apply(g.bracket_basis(0, 2)) != g.bracket(
        f.apply(g.basis_vector(0)), f.apply(g.basis_vector(2)))


def test_swap_with_sign_flip_passes():
    g = sl2()
    # e -> f, h -> -h, f -> e is an automorphism
    f = hom_from_images(g, g, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    assert check_homomorphism(f).holds
    assert f.is_bijective()


def test_zero_hom_to_abelian_passes():
    f = LieHom(sl2(), LieAlgebra.abelian(1), Matrix.zero(1, 3))
    assert check_homomorphism(f).holds


def test_compose_and_guards():
    g = sl2()
    ident = LieHom(g, g, Matrix.identity(3))
    assert ident.compose(ident).matrix == Matrix.identity(3)
    with pytest.raises(DimensionMismatchError):
        LieHom(g, g, Matrix.zero(2, 3))


# ------------------------------------------------------------------ sums


def test_direct_sum_blocks():
    s = direct_sum(sl2(), aff1())
    assert s.dim == 5
    assert validate_lie_algebra(s).ok
    # cross brackets vanish
    assert s.bracket(s.basis_vector(0), s.basis_vector(3)) == vzero(5)
    # block brackets preserved: [e,f] = h in the first block
    assert s.bracket(s.basis_vector(0), s.basis_vector(2)) == vector([0, 1, 0, 0, 0])
    # [a,b] = b in the second block
    assert s.bracket(s.basis_vector(3), s.basis_vector(4)) == vector([0, 0, 0, 0, 1])


# --------------------------------------- sparse kernels vs the dense reference


def dense_contract(tensor, x, y, dim):
    """Reference form of ``lie.contract``: every index pair with nonzero
    coordinates adds its whole tensor vector, with Fraction arithmetic on
    every entry.  The bracket and both matched-pair actions now read only
    the nonzero terms of a term table."""
    out = (Fraction(0),) * dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            term = tensor[i][j]
            if not all(t == 0 for t in term):
                out = dense_vadd(out, dense_vscale(xi * yj, term))
    return out


def dense_bracket(g, x, y):
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionMismatchError("bracket operands must have length dim")
    return dense_contract(g.c, x, y, g.dim)


def dense_validate_lie_algebra(g):
    """Reference form of ``validate_lie_algebra``: the Jacobi identity as
    three brackets of a structure-constant vector with a basis vector."""
    report = Report(subject=f"lie_algebra(dim={g.dim})")
    n = g.dim
    basis = Matrix.identity(n).entries
    witness = None
    for i, j in itertools.product(range(n), repeat=2):
        if any(dense_vadd(g.c[i][j], g.c[j][i])):
            witness = (f"bracket({g.labels[i]},{g.labels[j]}) + "
                       f"bracket({g.labels[j]},{g.labels[i]}) != 0")
            break
    report.add(checked("antisymmetry", "lie-bracket-antisymmetry", witness))
    witness = None
    for i, j, k in itertools.product(range(n), repeat=3):
        acc = dense_bracket(g, g.c[i][j], basis[k])
        acc = dense_vadd(acc, dense_bracket(g, g.c[j][k], basis[i]))
        acc = dense_vadd(acc, dense_bracket(g, g.c[k][i], basis[j]))
        if any(acc):
            witness = (f"jacobiator({g.labels[i]},{g.labels[j]},"
                       f"{g.labels[k]}) = {[str(x) for x in acc]}")
            break
    report.add(checked("jacobi", "lie-jacobi-identity", witness))
    return report


def dense_vadd(x, y):
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def dense_vsub(x, y):
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


def dense_vscale(s, x):
    c = frac(s)
    return tuple(c * a for a in x)


def dense_vdot(x, y):
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


@contextlib.contextmanager
def dense_kernels():
    """Run the library with the dense bracket, actions and vector operations."""
    vectors = {"vadd": dense_vadd, "vsub": dense_vsub,
               "vscale": dense_vscale, "vdot": dense_vdot}
    with mock.patch.object(LieAlgebra, "bracket", dense_bracket), \
            mock.patch.multiple(
                MatchedPairLie,
                act_plus=lambda mp, x, v: dense_contract(
                    mp.rhd, x, v, mp.g_minus.dim),
                act_minus=lambda mp, u, y: dense_contract(
                    mp.brhd, u, y, mp.g_plus.dim)), \
            mock.patch.multiple(linalg, **vectors), \
            mock.patch.multiple(matched_lie, vadd=dense_vadd, vsub=dense_vsub), \
            mock.patch.multiple(rb_lie, vadd=dense_vadd, vscale=dense_vscale):
        yield


# Mostly zeros, so that the zero shortcuts are hit on every kind of operand.
entries = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(2), F(1, 2), F(-3, 2)])


def vectors_of(n):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


@st.composite
def tensors(draw, rows, cols, length, antisymmetric=False):
    """A rows x cols x length tensor.  Drawn entry by entry, most square ones
    fail antisymmetry or Jacobi; ``antisymmetric`` ones are made so."""
    raw = [[list(draw(vectors_of(length))) for _ in range(cols)]
           for _ in range(rows)]
    if antisymmetric:
        for i in range(rows):
            raw[i][i] = [F(0)] * length
            for j in range(i):
                raw[i][j] = [-v for v in raw[j][i]]
    return tuple(tuple(tuple(v) for v in row) for row in raw)


def algebras(n):
    return st.booleans().flatmap(lambda anti: tensors(n, n, n, anti)).map(
        lambda c: LieAlgebra(default_labels(n), c))


@st.composite
def sparse_rb_inputs(draw):
    """An algebra, an operator, a weight and two vectors."""
    n = draw(st.integers(1, 4))
    operator = Matrix.from_rows([draw(vectors_of(n)) for _ in range(n)])
    weight = draw(st.sampled_from([F(-1), F(0), F(1), F(1, 2)]))
    return (draw(algebras(n)), operator, weight,
            draw(vectors_of(n)), draw(vectors_of(n)))


@settings(max_examples=150, deadline=None)
@given(sparse_rb_inputs())
def test_sparse_bracket_and_reports_match_dense_reference(inputs):
    g, operator, weight, x, y = inputs
    new = (g.bracket(x, y), validate_lie_algebra(g).to_text(),
           check_rota_baxter(g, operator, weight))
    with dense_kernels():
        old = (g.bracket(x, y), dense_validate_lie_algebra(g).to_text(),
               check_rota_baxter(g, operator, weight))
    assert new == old
    assert all(type(v) is Fraction for v in new[0])


@st.composite
def sparse_matched_pairs(draw):
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return MatchedPairLie(draw(algebras(p)), draw(algebras(q)),
                          draw(tensors(p, q, q)), draw(tensors(q, p, p)))


@settings(max_examples=60, deadline=None)
@given(sparse_matched_pairs(), st.data())
def test_sparse_actions_and_matched_pair_report_match_dense_reference(mp, data):
    p, q = mp.g_plus.dim, mp.g_minus.dim
    x, v = data.draw(vectors_of(p)), data.draw(vectors_of(q))

    def outputs():
        return (mp.act_plus(x, v), mp.act_minus(v, x),
                verify_matched_pair(mp).to_text())

    new = outputs()
    with dense_kernels():
        old = outputs()
    assert new == old


@pytest.mark.parametrize("rb", [sl2_projection_rb(), gl_borel_rb(2),
                                sl_borel_rb(3)], ids=["sl2", "gl2", "sl3"])
def test_sparse_kernels_match_dense_reference_on_fixtures(rb):
    g = rb.algebra

    def outputs(validate):
        mp, _ = matched_pair_from_rb(rb)
        return (validate(g).to_text(),
                check_rota_baxter(g, rb.operator, rb.weight),
                descendent_algebra(rb),
                verify_matched_pair(mp).to_text())

    new = outputs(validate_lie_algebra)
    with dense_kernels():
        old = outputs(dense_validate_lie_algebra)
    assert new == old


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(vectors_of(n), vectors_of(n), entries)))
def test_sparse_vector_ops_match_zipped_arithmetic(args):
    x, y, s = args
    pairs = [(linalg.vadd(x, y), dense_vadd(x, y)),
             (linalg.vsub(x, y), dense_vsub(x, y)),
             (linalg.vscale(s, x), dense_vscale(s, x)),
             ((linalg.vdot(x, y),), (dense_vdot(x, y),))]
    for new, old in pairs:
        assert new == old
        assert all(type(v) is Fraction for v in new)
