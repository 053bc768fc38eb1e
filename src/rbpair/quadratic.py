"""Quadratic Lie algebras, compatible bilinear forms for Rota-Baxter
operators, the induced form on a bicrossed product, and the resulting
Manin-triple and decomposition certificates.

A quadratic Lie algebra carries a symmetric, nondegenerate, invariant
bilinear form S.  A Rota-Baxter operator B of weight λ is compatible with S
when S(B(x), y) + S(x, B(y)) + λ·S(x, y) = 0; at weight −1 this is the same
as saying the companion operator is the adjoint of B with respect to S.

For weight −1 the bicrossed product of the image factors carries an induced
form: writing a plus component as B(x₁) and a minus component as the
companion value of x₂, the pairing of (B(x₁), ~B(x₂)) with (B(y₁), ~B(y₂))
is S(B(x₁), y₂) + S(B(y₁), x₂).  Both factor blocks are isotropic for it,
which is exactly the Manin-triple shape, and the canonical projection pair
is orthogonal for it.  Restricting to the two factors of the decomposition
gives quadratic structures again, and the graph map x ↦ (B(x), ~B(x))
preserves the forms.

Everything is certified entry-by-entry over exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    RepresentativeDisagreementError,
    WeightUnsupportedError,
)
from .lie import LieAlgebra, direct_sum, validate_lie_algebra
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    kernel_vectors,
    solve_linear,
    vadd,
    vzero,
)
from .matched_lie import (
    BicrossedLie,
    LieProjection,
    bicrossed_from_rb,
    decompose_bicrossed,
    is_lie_projection,
)
from .rb_lie import RotaBaxterLie
from .reports import Report, checked

__all__ = [
    "QuadraticRB",
    "ManinTriple",
    "form_value",
    "validate_quadratic",
    "check_compatibility",
    "cotangent_fixture",
    "manin_triple",
    "quadratic_projection_check",
    "direct_sum_quadratic",
    "quadratic_decompose",
]


def form_value(s: Matrix, u: Vector, v: Vector) -> Fraction:
    """Evaluate the bilinear form with matrix s on a pair of vectors."""
    if s.rows != len(u) or s.cols != len(v):
        raise DimensionMismatchError("form matrix does not match vector lengths")
    total = Fraction(0)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        row = s.entries[i]
        for j, vj in enumerate(v):
            if vj and row[j]:
                total += ui * row[j] * vj
    return total


@dataclass(frozen=True)
class QuadraticRB:
    """A Rota-Baxter operator together with a bilinear form on its algebra."""

    rb: RotaBaxterLie
    form: Matrix

    def __post_init__(self) -> None:
        n = self.rb.algebra.dim
        if (self.form.rows, self.form.cols) != (n, n):
            raise DimensionMismatchError(f"form matrix must be {n}x{n}")


@dataclass(frozen=True)
class ManinTriple:
    """A bicrossed product with an induced form for which both factor blocks
    are isotropic."""

    bicrossed: BicrossedLie
    form: Matrix
    plus_block: Subspace
    minus_block: Subspace


def validate_quadratic(g: LieAlgebra, s: Matrix) -> Report:
    """Certify that s is symmetric, nondegenerate, and invariant on g."""
    n = g.dim
    if (s.rows, s.cols) != (n, n):
        raise DimensionMismatchError(f"form matrix must be {n}x{n}")
    report = Report(subject="quadratic_lie")

    sym_witness = None
    for i in range(n):
        for j in range(i + 1, n):
            if s.entries[i][j] != s.entries[j][i]:
                sym_witness = (f"pair ({g.labels[i]},{g.labels[j]}): "
                               f"{s.entries[i][j]} vs {s.entries[j][i]}")
                break
        if sym_witness:
            break
    report.add(checked("form-symmetric", "symmetric-form", sym_witness))

    rank = s.rank()
    report.add(checked(
        "form-nondegenerate", "nondegenerate-form",
        None if rank == n else f"rank {rank} < dimension {n}"))

    inv_witness = None
    for i in range(n):
        for j in range(n):
            if inv_witness:
                break
            left = g.bracket_basis(i, j)
            for k in range(n):
                lhs = form_value(s, left, g.basis_vector(k))
                rhs = form_value(s, g.basis_vector(i), g.bracket_basis(j, k))
                if lhs != rhs:
                    inv_witness = (f"triple ({g.labels[i]},{g.labels[j]},"
                                   f"{g.labels[k]}): {lhs} != {rhs}")
                    break
        if inv_witness:
            break
    report.add(checked("form-invariant", "invariant-form", inv_witness))
    return report


def check_compatibility(q: QuadraticRB) -> Report:
    """Certify the weighted compatibility of operator and form:
    S(B(x), y) + S(x, B(y)) + λ·S(x, y) = 0 on all basis pairs, and at
    weight −1 additionally the adjoint identity S(B(x), y) = S(x, ~B(y))."""
    rb, s = q.rb, q.form
    g = rb.algebra
    n = g.dim
    report = Report(subject="quadratic_rb")

    witness = None
    for i in range(n):
        for j in range(n):
            ei, ej = g.basis_vector(i), g.basis_vector(j)
            total = (form_value(s, rb.apply(ei), ej)
                     + form_value(s, ei, rb.apply(ej))
                     + rb.weight * s.entries[i][j])
            if total != 0:
                witness = f"pair ({g.labels[i]},{g.labels[j]}): sum {total}"
                break
        if witness:
            break
    report.add(checked("operator-form-compatibility",
                       "weighted-form-compatibility", witness))

    if rb.weight == Fraction(-1):
        tilde = rb.tilde_matrix()
        witness = None
        for i in range(n):
            for j in range(n):
                ei, ej = g.basis_vector(i), g.basis_vector(j)
                lhs = form_value(s, rb.apply(ei), ej)
                rhs = form_value(s, ei, tilde.matvec(ej))
                if lhs != rhs:
                    witness = (f"pair ({g.labels[i]},{g.labels[j]}): "
                               f"{lhs} != {rhs}")
                    break
            if witness:
                break
        report.add(checked("companion-is-form-adjoint",
                           "companion-adjoint-identity", witness))
    return report


def cotangent_fixture(g: LieAlgebra) -> QuadraticRB:
    """The semidirect sum of g with its dual along the coadjoint action,
    carrying the canonical pairing and the projection onto g.

    Basis: the basis of g followed by the dual basis.  Brackets:
    the bracket of g on the first block, (x · ξ)(y) = −ξ([x, y]) between the
    blocks, zero on the dual block.  The pairing matches a vector against a
    covector, the operator projects onto g along the dual, and the weight
    is −1.  The output passes the quadratic, Rota-Baxter, and compatibility
    validators.
    """
    n = g.dim
    d = 2 * n
    labels = tuple(g.labels) + tuple(f"{name}*" for name in g.labels)
    tensor = [[list(vzero(d)) for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                tensor[i][j][k] = g.c[i][j][k]
    for i in range(n):
        for j in range(n):
            # [b_i, b_j*] = sum_k (-c[i][k][j]) b_k*
            for k in range(n):
                coeff = -g.c[i][k][j]
                tensor[i][n + j][n + k] = coeff
                tensor[n + j][i][n + k] = -coeff
    algebra = LieAlgebra(labels, tuple(tuple(tuple(v) for v in row)
                                       for row in tensor))
    s_rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        s_rows[i][n + i] = Fraction(1)
        s_rows[n + i][i] = Fraction(1)
    operator = Matrix.diagonal([1] * n + [0] * n) if d else Matrix.from_rows([], 0)
    rb = RotaBaxterLie(algebra, operator, Fraction(-1))
    return QuadraticRB(rb, Matrix.from_rows(s_rows, d))


def _representatives(q: QuadraticRB, bc: BicrossedLie) -> tuple[list, list]:
    """For each basis vector of the bicrossed algebra, one preimage pair
    (x₁, x₂) with B(x₁) = plus part and ~B(x₂) = minus part."""
    rb = q.rb
    split = bc.split
    zero = vzero(rb.algebra.dim)
    x1s: list = []
    x2s: list = []
    for u in split.g_plus.space.basis_vectors():
        x1 = solve_linear(rb.operator, u)
        if x1 is None:
            raise RepresentativeDisagreementError(
                "an image basis vector has no preimage; operator data inconsistent")
        x1s.append(x1)
        x2s.append(zero)
    tilde = rb.tilde_matrix()
    for v in split.g_minus.space.basis_vectors():
        x2 = solve_linear(tilde, v)
        if x2 is None:
            raise RepresentativeDisagreementError(
                "a companion-image basis vector has no preimage")
        x1s.append(zero)
        x2s.append(x2)
    return x1s, x2s


def _induced_entry(s: Matrix, bx1k, x2k, bx1l, x2l) -> Fraction:
    """The induced pairing S(B(x₁ₖ), x₂ₗ) + S(B(x₁ₗ), x₂ₖ), given B(x₁ₖ)
    and B(x₁ₗ)."""
    return form_value(s, bx1k, x2l) + form_value(s, bx1l, x2k)


def manin_triple(q: QuadraticRB) -> tuple[ManinTriple, Report]:
    """Push a weight −1 compatible form onto the bicrossed product of the
    image factors, and certify the Manin-triple shape.

    The induced form is computed from representative preimages; a change of
    representative along either kernel must not change any entry, and a
    disagreement raises rather than returning a silently ambiguous form.
    The certificates cover symmetry, nondegeneracy, invariance for the
    bicrossed bracket, complementarity of the two blocks, and isotropy of
    each block.
    """
    if q.rb.weight != Fraction(-1):
        raise WeightUnsupportedError(
            "the induced form on the bicrossed product needs weight -1")
    return _manin_triple_on(q, bicrossed_from_rb(q.rb))


def _manin_triple_on(q: QuadraticRB,
                     bc: BicrossedLie) -> tuple[ManinTriple, Report]:
    """``manin_triple`` on the already built bicrossed algebra of q.rb."""
    rb, s = q.rb, q.form
    x1s, x2s = _representatives(q, bc)
    bx1s = [rb.apply(x1) for x1 in x1s]
    n = bc.total.dim
    p = bc.p

    entries = [[_induced_entry(s, bx1s[k], x2s[k], bx1s[l], x2s[l])
                for l in range(n)] for k in range(n)]

    ker_b = kernel_vectors(rb.operator)
    ker_bt = kernel_vectors(rb.tilde_matrix())
    for k in range(n):
        perturbed = [(vadd(x1s[k], kb), x2s[k]) for kb in ker_b]
        perturbed += [(x1s[k], vadd(x2s[k], kt)) for kt in ker_bt]
        for x1p, x2p in perturbed:
            bx1p = rb.apply(x1p)
            for l in range(n):
                if (_induced_entry(s, bx1p, x2p, bx1s[l], x2s[l])
                        != entries[k][l]):
                    raise RepresentativeDisagreementError(
                        "induced form depends on the preimage choice",
                        witness=f"entry ({k},{l})")
                if (_induced_entry(s, bx1s[l], x2s[l], bx1p, x2p)
                        != entries[l][k]):
                    raise RepresentativeDisagreementError(
                        "induced form depends on the preimage choice",
                        witness=f"entry ({l},{k})")

    s_prime = Matrix.from_rows(entries, n)
    report = Report(subject="manin_triple")
    report.add(checked("representative-independence",
                       "well-defined-induced-form", None))

    sub = validate_quadratic(bc.total, s_prime)
    report.merge(sub, prefix="induced-")

    plus_block = Subspace.from_spanning(
        [bc.total.basis_vector(i) for i in range(p)], n)
    minus_block = Subspace.from_spanning(
        [bc.total.basis_vector(i) for i in range(p, n)], n)
    comp = plus_block.add(minus_block)
    inter = plus_block.intersect(minus_block)
    report.add(checked(
        "blocks-complementary", "direct-sum-decomposition",
        None if comp.dim == n and inter.dim == 0
        else f"sum dim {comp.dim}, intersection dim {inter.dim}"))

    def isotropy_witness(lo: int, hi: int) -> str | None:
        for i in range(lo, hi):
            for j in range(lo, hi):
                if entries[i][j] != 0:
                    return (f"pair ({bc.total.labels[i]},{bc.total.labels[j]}): "
                            f"{entries[i][j]}")
        return None

    plus_wit = isotropy_witness(0, p)
    minus_wit = isotropy_witness(p, n)
    report.add(checked("plus-block-isotropic", "isotropic-subspace", plus_wit))
    report.add(checked("minus-block-isotropic", "isotropic-subspace", minus_wit))

    def closure_witness(lo: int, hi: int) -> str | None:
        block = Subspace.from_spanning(
            [bc.total.basis_vector(i) for i in range(lo, hi)], n) \
            if hi > lo else Subspace.zero(n)
        for i in range(lo, hi):
            for j in range(lo, hi):
                if not block.contains(bc.total.bracket_basis(i, j)):
                    return f"pair ({bc.total.labels[i]},{bc.total.labels[j]})"
        return None

    report.add(checked("plus-block-subalgebra", "bracket-closed-subspace",
                       closure_witness(0, p)))
    report.add(checked("minus-block-subalgebra", "bracket-closed-subspace",
                       closure_witness(p, n)))

    report.data["sprime"] = [[str(e) for e in row] for row in entries]
    report.data["isotropy"] = {"plus": plus_wit is None, "minus": minus_wit is None}
    return ManinTriple(bc, s_prime, plus_block, minus_block), report


def quadratic_projection_check(mt: ManinTriple, proj) -> Report:
    """Certify that a projection is orthogonal for the induced form:
    the form pairs the image of the projection trivially against the image
    of its complement, on all basis pairs."""
    c = proj.matrix if isinstance(proj, LieProjection) else proj
    bc = mt.bicrossed
    n = bc.total.dim
    report = Report(subject="quadratic_projection")
    report.merge(is_lie_projection(bc, c), prefix="projection-")
    ct = Matrix.identity(n) - c
    witness = None
    for i in range(n):
        for j in range(n):
            val = form_value(mt.form, c.matvec(bc.total.basis_vector(i)),
                             ct.matvec(bc.total.basis_vector(j)))
            if val != 0:
                witness = (f"pair ({bc.total.labels[i]},{bc.total.labels[j]}): "
                           f"{val}")
                break
        if witness:
            break
    report.add(checked("cross-projection-orthogonality",
                       "orthogonal-projection-pair", witness))
    return report


def direct_sum_quadratic(
    first: tuple[LieAlgebra, Matrix], second: tuple[LieAlgebra, Matrix],
) -> tuple[LieAlgebra, Matrix]:
    """Block-diagonal sum of two quadratic Lie algebras."""
    (a, sa), (b, sb) = first, second
    if (sa.rows, sa.cols) != (a.dim, a.dim) or (sb.rows, sb.cols) != (b.dim, b.dim):
        raise DimensionMismatchError("form matrices must match their algebras")
    total = direct_sum(a, b)
    n, m = a.dim, b.dim
    rows = [[Fraction(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = sa.entries[i][j]
    for i in range(m):
        for j in range(m):
            rows[n + i][n + j] = sb.entries[i][j]
    return total, Matrix.from_rows(rows, n + m)


def quadratic_decompose(q: QuadraticRB) -> Report:
    """Restrict the induced form to the two factors of the bicrossed
    decomposition and certify the quadratic isomorphism.

    Each factor with the restricted form is certified quadratic, the two
    factors pair to zero, and the graph map x ↦ (B(x), companion value)
    onto the first factor preserves the forms exactly.  The bicrossed
    algebra is built once, by the decomposition, and the Manin triple is
    computed on it.
    """
    rb = q.rb
    if rb.weight != Fraction(-1):
        raise WeightUnsupportedError("quadratic decomposition needs weight -1")
    dec, dec_report = decompose_bicrossed(rb)
    mt, mt_report = _manin_triple_on(q, dec.bicrossed)

    report = Report(subject="quadratic_decomposition")
    report.merge(mt_report, prefix="manin-")
    report.merge(dec_report, prefix="split-")

    g = rb.algebra
    bc = mt.bicrossed
    basis1 = dec.g1.space.basis_vectors()
    basis2 = dec.g2.space.basis_vectors()

    def restrict(basis) -> Matrix:
        k = len(basis)
        return Matrix.from_rows(
            [[form_value(mt.form, basis[r], basis[s]) for s in range(k)]
             for r in range(k)], k)

    s1 = restrict(basis1)
    s2 = restrict(basis2)
    report.merge(validate_quadratic(dec.g1.algebra, s1), prefix="first-block-")
    report.merge(validate_quadratic(dec.g2.algebra, s2), prefix="second-block-")

    cross = None
    for r, w in enumerate(basis1):
        for s, w2 in enumerate(basis2):
            val = form_value(mt.form, w, w2)
            if val != 0:
                cross = f"pair ({r},{s}): {val}"
                break
        if cross:
            break
    report.add(checked("cross-block-orthogonal", "orthogonal-factors", cross))

    tilde = rb.tilde_matrix()
    witness = None
    for i in range(g.dim):
        pi_i = bc.embed_ambient_pair(rb.apply(g.basis_vector(i)),
                                     tilde.matvec(g.basis_vector(i)))
        for j in range(g.dim):
            pi_j = bc.embed_ambient_pair(rb.apply(g.basis_vector(j)),
                                         tilde.matvec(g.basis_vector(j)))
            if form_value(mt.form, pi_i, pi_j) != q.form.entries[i][j]:
                witness = (f"pair ({g.labels[i]},{g.labels[j]}): "
                           f"{form_value(mt.form, pi_i, pi_j)} != "
                           f"{q.form.entries[i][j]}")
                break
        if witness:
            break
    report.add(checked("graph-map-preserves-form", "isometric-graph-map",
                       witness))

    report.data["g1_dim"] = dec.g1.space.dim
    report.data["g2_dim"] = dec.g2.space.dim
    report.data["first_block_form"] = [[str(e) for e in row] for row in s1.entries]
    report.data["second_block_form"] = [[str(e) for e in row] for row in s2.entries]
    return report
