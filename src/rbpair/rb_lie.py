"""Rota-Baxter operators on Lie algebras.

A weight-λ operator B satisfies, for all x and y,

    [B(x), B(y)] = B([B(x), y] + [x, B(y)] + λ[x, y]).

This module verifies that identity, builds the companion operator
B~ = -λ·id - B, the descendent bracket [x,y]_B = [B(x),y] + [x,B(y)] + λ[x,y],
the four distinguished subspaces (images and kernels of B and B~), the
induced quotient structure for weight -1, and the operator identity suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    NotClosedError,
    WeightUnsupportedError,
)
from .lie import (
    EmbeddedSubalgebra,
    LieAlgebra,
    LieHom,
    check_homomorphism,
    default_labels,
    induced_subalgebra,
    quotient_by_ideal,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    frac,
    image_and_kernel,
    is_zero_vector,
    vadd,
    vscale,
)
from .reports import Check, Report, checked


@dataclass(frozen=True)
class RotaBaxterLie:
    """A Lie algebra with a candidate Rota-Baxter operator of fixed weight."""

    algebra: LieAlgebra
    operator: Matrix
    weight: Fraction

    def __post_init__(self) -> None:
        n = self.algebra.dim
        if (self.operator.rows, self.operator.cols) != (n, n):
            raise DimensionMismatchError(
                f"operator must be {n}x{n}, got "
                f"{self.operator.rows}x{self.operator.cols}")
        object.__setattr__(self, "weight", frac(self.weight))

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def apply(self, v: Vector) -> Vector:
        return self.operator.matvec(v)

    def tilde_matrix(self) -> Matrix:
        return Matrix.identity(self.dim).scale(-self.weight) - self.operator

    def descendent_bracket(self, x: Vector, y: Vector) -> Vector:
        g = self.algebra
        out = g.bracket(self.apply(x), y)
        out = vadd(out, g.bracket(x, self.apply(y)))
        out = vadd(out, vscale(self.weight, g.bracket(x, y)))
        return out


def check_rota_baxter(g: LieAlgebra, operator: Matrix, weight) -> Check:
    """Verify the weight-λ operator identity on every basis pair.

    The columns B(eᵢ) are read once, so each pair applies B only to its
    descendent bracket [B(eᵢ),eⱼ] + [eᵢ,B(eⱼ)] + λ[eᵢ,eⱼ]."""
    lam = frac(weight)
    rb = RotaBaxterLie(g, operator, lam)
    cols = [operator.col(i) for i in range(g.dim)]
    for i in range(g.dim):
        x = g.basis_vector(i)
        for j in range(g.dim):
            y = g.basis_vector(j)
            lhs = g.bracket(cols[i], cols[j])
            inner = vadd(g.bracket(cols[i], y), g.bracket(x, cols[j]))
            rhs = rb.apply(vadd(inner, vscale(lam, g.c[i][j])))
            if lhs != rhs:
                witness = (f"pair ({g.labels[i]},{g.labels[j]}): "
                           f"[B(x),B(y)] = {[str(v) for v in lhs]} but "
                           f"B([x,y]_B) = {[str(v) for v in rhs]}")
                return checked("rota-baxter", "rota-baxter-identity", witness)
    return checked("rota-baxter", "rota-baxter-identity", None)


def tilde_operator(rb: RotaBaxterLie) -> RotaBaxterLie:
    """The companion operator -λ·id - B, itself Rota-Baxter of the same weight."""
    return RotaBaxterLie(rb.algebra, rb.tilde_matrix(), rb.weight)


def descendent_algebra(rb: RotaBaxterLie) -> LieAlgebra:
    """The algebra carrying [x,y]_B = [B(x),y] + [x,B(y)] + λ[x,y].

    The columns B(eᵢ) are read once; on basis vectors [eᵢ,eⱼ] is c[i][j]."""
    g = rb.algebra
    n = g.dim
    cols = [rb.operator.col(i) for i in range(n)]
    tensor = tuple(
        tuple(vadd(vadd(g.bracket(cols[i], g.basis_vector(j)),
                        g.bracket(g.basis_vector(i), cols[j])),
                   vscale(rb.weight, g.c[i][j]))
              for j in range(n))
        for i in range(n))
    return LieAlgebra(g.labels, tensor)


@dataclass(frozen=True)
class RBSplit:
    """The four distinguished subspaces of a Rota-Baxter operator."""

    parent: RotaBaxterLie
    b_tilde: Matrix
    g_plus: EmbeddedSubalgebra   # image of B
    g_minus: EmbeddedSubalgebra  # image of B~
    h_plus: Subspace             # kernel of B~
    h_minus: Subspace            # kernel of B
    intersection: Subspace       # im B ∩ im B~


def split_subalgebras(rb: RotaBaxterLie) -> tuple[RBSplit, Report]:
    """Images and kernels of B and its companion, with their certificates.

    Certifies: both images are bracket-closed, each kernel sits inside the
    matching image, kernels are ideals there, the adjoint-invariance laws
    [B~(x), h₋] ⊆ h₋ and [B(x), h₊] ⊆ h₊ for every ambient x, and the
    rank-nullity dimension identities.
    """
    g = rb.algebra
    report = Report(subject=f"rb_split(dim={g.dim},weight={rb.weight})")
    b_tilde = rb.tilde_matrix()
    g_plus_space, h_minus = image_and_kernel(rb.operator)
    g_minus_space, h_plus = image_and_kernel(b_tilde)

    try:
        g_plus = induced_subalgebra(g, g_plus_space, "p")
        report.add(checked("image-closed-under-bracket", "image-subalgebra", None))
    except NotClosedError as exc:
        report.add(checked("image-closed-under-bracket", "image-subalgebra",
                           f"g_plus not closed: {exc.witness}"))
        raise
    try:
        g_minus = induced_subalgebra(g, g_minus_space, "m")
        report.add(checked("companion-image-closed-under-bracket",
                           "image-subalgebra", None))
    except NotClosedError as exc:
        report.add(checked("companion-image-closed-under-bracket",
                           "image-subalgebra",
                           f"g_minus not closed: {exc.witness}"))
        raise

    report.add(checked(
        "kernel-inside-companion-image", "kernel-containment",
        None if h_plus.is_subspace_of(g_plus_space)
        else "ker(B~) not inside im(B)"))
    report.add(checked(
        "companion-kernel-inside-image", "kernel-containment",
        None if h_minus.is_subspace_of(g_minus_space)
        else "ker(B) not inside im(B~)"))

    def ideal_witness(space: Subspace, sub: Subspace, tag: str) -> str | None:
        for r, u in enumerate(space.basis_vectors()):
            for s, w in enumerate(sub.basis_vectors()):
                if not sub.contains(g.bracket(u, w)):
                    return f"{tag}: bracket of basis vectors ({r},{s}) escapes"
        return None

    report.add(checked("kernel-ideal-in-image", "kernel-ideal",
                       ideal_witness(g_plus_space, h_plus, "h_plus in g_plus")))
    report.add(checked("companion-kernel-ideal-in-companion-image", "kernel-ideal",
                       ideal_witness(g_minus_space, h_minus, "h_minus in g_minus")))

    witness = None
    for i in range(g.dim):
        bx = rb.apply(g.basis_vector(i))
        txi = b_tilde.matvec(g.basis_vector(i))
        for s, w in enumerate(h_minus.basis_vectors()):
            if not h_minus.contains(g.bracket(txi, w)):
                witness = f"[B~({g.labels[i]}), h_minus[{s}]] escapes h_minus"
                break
        if witness:
            break
        for s, w in enumerate(h_plus.basis_vectors()):
            if not h_plus.contains(g.bracket(bx, w)):
                witness = f"[B({g.labels[i]}), h_plus[{s}]] escapes h_plus"
                break
        if witness:
            break
    report.add(checked("kernels-adjoint-invariant", "kernel-adjoint-invariance",
                       witness))

    report.add(checked(
        "rank-nullity-dimensions", "rank-nullity",
        None if (g_plus_space.dim + h_minus.dim == g.dim
                 and g_minus_space.dim + h_plus.dim == g.dim)
        else (f"dims g+={g_plus_space.dim} h-={h_minus.dim} "
              f"g-={g_minus_space.dim} h+={h_plus.dim} total={g.dim}")))

    split = RBSplit(rb, b_tilde, g_plus, g_minus, h_plus, h_minus,
                    g_plus_space.intersect(g_minus_space))
    return split, report


def quotient_rb(rb: RotaBaxterLie) -> tuple[RotaBaxterLie, LieHom, Report]:
    """Quotient of the descendent algebra by ker(B~) + ker(B), weight -1 only.

    Returns the induced operator on the quotient, the projection, and the
    certificates: the kernel sum is an ideal of the descendent algebra, B
    preserves it (so the induced operator is well defined), the induced
    operator is Rota-Baxter of weight -1, and it sums with its companion to
    the identity.
    """
    if rb.weight != -1:
        raise WeightUnsupportedError(
            f"quotient construction requires weight -1, got {rb.weight}")
    g = rb.algebra
    report = Report(subject=f"rb_quotient(dim={g.dim})")
    desc = descendent_algebra(rb)
    _, h_minus = image_and_kernel(rb.operator)
    _, h_plus = image_and_kernel(rb.tilde_matrix())
    kernel_sum = h_plus.add(h_minus)

    quotient, proj = quotient_by_ideal(desc, kernel_sum)  # raises if not ideal
    report.add(checked("kernel-sum-ideal-in-descendent", "descendent-ideal", None))

    witness = None
    for s, w in enumerate(kernel_sum.basis_vectors()):
        if not kernel_sum.contains(rb.apply(w)):
            witness = f"B(kernel-sum basis vector {s}) escapes the kernel sum"
            break
    report.add(checked("operator-preserves-kernel-sum", "quotient-well-defined",
                       witness))

    qdim = quotient.dim
    image_cols = [proj.apply(rb.apply(g.basis_vector(j))) for j in range(g.dim)]
    # induced matrix: solve proj columns; complement positions give a section
    pivot_set = set(kernel_sum.pivots())
    positions = [t for t in range(g.dim) if t not in pivot_set]
    induced = Matrix.from_rows(
        [[image_cols[positions[b]][a] for b in range(qdim)] for a in range(qdim)],
        qdim)
    rb_bar = RotaBaxterLie(quotient, induced, rb.weight)

    # well-definedness across representatives: proj(B(x)) must equal
    # induced(proj(x)) for every ambient basis vector, not just the section
    witness = None
    for j in range(g.dim):
        if induced.matvec(proj.apply(g.basis_vector(j))) != image_cols[j]:
            witness = f"induced operator disagrees with projection at {g.labels[j]}"
            break
    report.add(checked("induced-operator-well-defined", "quotient-well-defined",
                       witness))

    report.add(replace(check_rota_baxter(quotient, induced, rb.weight),
                       name="quotient-rota-baxter"))

    ident = induced + rb_bar.tilde_matrix()
    report.add(checked(
        "quotient-operator-plus-companion-is-identity", "weight-minus-one-partition",
        None if ident == Matrix.identity(qdim)
        else "B-bar + B-bar~ differs from the identity"))
    return rb_bar, proj, report


def check_rb_homomorphism(f: LieHom, src: RotaBaxterLie,
                          dst: RotaBaxterLie) -> Report:
    """Lie homomorphism + operator intertwining f∘B = B'∘f, both certified."""
    if src.weight != dst.weight:
        raise WeightUnsupportedError(
            f"weights differ: {src.weight} vs {dst.weight}")
    if f.source.dim != src.dim or f.target.dim != dst.dim:
        raise DimensionMismatchError("hom endpoints do not match the operators")
    report = Report(subject="rb_homomorphism")
    report.add(check_homomorphism(f))
    lhs = f.matrix @ src.operator
    rhs = dst.operator @ f.matrix
    witness = None
    if lhs != rhs:
        for j in range(src.dim):
            if lhs.col(j) != rhs.col(j):
                witness = (f"f(B({src.algebra.labels[j]})) != B'(f("
                           f"{src.algebra.labels[j]}))")
                break
    report.add(checked("operator-intertwining", "operator-intertwining", witness))
    return report


def lemma_suite_lie(rb: RotaBaxterLie, bicrossed=None) -> Report:
    """Operator identity suite on basis pairs.

    Checks: (i) the descendent bracket of B is the negative of the
    descendent bracket of its companion; (ii) B and its companion commute,
    both equal to -λB - B²; (iii) when the bicrossed product of the induced
    matched pair is supplied, the doubled-image bracket identity
    [(-B∘B~(x), B~∘B(x)), (-B∘B~(y), B~∘B(y))] = λ(B[B~x,B~y], B~[Bx,By]).
    """
    g = rb.algebra
    report = Report(subject=f"lemma_suite(dim={g.dim},weight={rb.weight})")
    tilde = tilde_operator(rb)

    witness = None
    for i in range(g.dim):
        for j in range(g.dim):
            x, y = g.basis_vector(i), g.basis_vector(j)
            lhs = rb.descendent_bracket(x, y)
            rhs = tilde.descendent_bracket(x, y)
            if not is_zero_vector(vadd(lhs, rhs)):
                witness = f"pair ({g.labels[i]},{g.labels[j]})"
                break
        if witness:
            break
    report.add(checked("descendent-brackets-opposite", "companion-bracket-negation",
                       witness))

    bt = rb.tilde_matrix()
    prod1 = rb.operator @ bt
    prod2 = bt @ rb.operator
    closed = (rb.operator.scale(-rb.weight)) - (rb.operator @ rb.operator)
    report.add(checked(
        "operator-commutes-with-companion", "companion-commutation",
        None if prod1 == prod2 == closed
        else "B∘B~, B~∘B, and -λB - B² are not all equal"))

    if bicrossed is not None:
        witness = None
        for i in range(g.dim):
            for j in range(g.dim):
                x, y = g.basis_vector(i), g.basis_vector(j)
                wx = bicrossed.embed_ambient_pair(
                    tuple(-a for a in prod1.matvec(x)), prod2.matvec(x))
                wy = bicrossed.embed_ambient_pair(
                    tuple(-a for a in prod1.matvec(y)), prod2.matvec(y))
                if wx is None or wy is None:
                    witness = (f"pair ({g.labels[i]},{g.labels[j]}): doubled image "
                               "not inside the bicrossed factors")
                    break
                lhs = bicrossed.total.bracket(wx, wy)
                plus = vscale(rb.weight,
                              rb.apply(g.bracket(tilde.apply(x), tilde.apply(y))))
                minus = vscale(rb.weight,
                               tilde.apply(g.bracket(rb.apply(x), rb.apply(y))))
                rhs = bicrossed.embed_ambient_pair(plus, minus)
                if rhs is None or lhs != rhs:
                    witness = f"pair ({g.labels[i]},{g.labels[j]})"
                    break
            if witness:
                break
        report.add(checked("doubled-image-bracket", "doubled-image-identity",
                           witness))
    return report
