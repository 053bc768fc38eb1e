"""Finite-dimensional Lie algebras over Q, presented by structure constants.

An algebra of dimension n stores the full tensor c[i][j] = coordinates of the
bracket of basis vectors i and j.  Alongside it, built once per algebra on
first use, it keeps a sparse term table (for each basis pair the nonzero
(k, c[i][j][k])) and its basis vectors; the bracket reads only the table.
Validation is exhaustive: antisymmetry and the Jacobi identity are checked on
every index combination and the first failure is returned as a concrete
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, NotAnIdealError, NotClosedError
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    frac,
    is_zero_vector,
    vadd,
    vector,
    vzero,
)
from .reports import Check, Report, checked

BracketTensor = tuple[tuple[Vector, ...], ...]
TermTable = tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]


def default_labels(n: int, prefix: str = "x") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def term_table(tensor: BracketTensor) -> TermTable:
    """table[i][j]: the nonzero (k, tensor[i][j][k]) in increasing k."""
    return tuple(
        tuple(tuple((k, v) for k, v in enumerate(vec) if v) for vec in row)
        for row in tensor)


def contract(table: TermTable, x: Vector, y: Vector, dim: int) -> Vector:
    """The bilinear map sum over i, j, k of x[i]·y[j]·t[i][j][k] e_k, for the
    tensor t of ``table``, with output length ``dim``.

    Only nonzero x[i], y[j] and t[i][j][k] contribute: every skipped term
    is an exact zero, so each coordinate is the same Fraction as the dense
    sum, and the nonzero terms are added in the dense loop's order."""
    out = list(vzero(dim))
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in ys:
            pair = row[j]
            if pair:
                s = xi * yj
                for k, c in pair:
                    out[k] += s * c
    return tuple(out)


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra given by labeled basis and structure constant tensor."""

    labels: tuple[str, ...]
    c: BracketTensor

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.c) != n or any(
                len(row) != n or any(len(v) != n for v in row) for row in self.c):
            raise DimensionMismatchError("structure tensor shape does not match dim")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @classmethod
    def abelian(cls, n: int, labels: Sequence[str] | None = None) -> "LieAlgebra":
        labs = tuple(labels) if labels is not None else default_labels(n)
        zero = vzero(n)
        return cls(labs, tuple(tuple(zero for _ in range(n)) for _ in range(n)))

    @classmethod
    def from_sparse(
        cls,
        labels: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, object] | Sequence[tuple[int, object]]],
    ) -> "LieAlgebra":
        """Build from brackets of basis pairs i < j; antisymmetry is filled in."""
        labs = tuple(labels)
        n = len(labs)
        tensor = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
        for (i, j), terms in brackets.items():
            if not (0 <= i < j < n):
                raise DimensionMismatchError(
                    f"bracket key ({i},{j}) must satisfy 0 <= i < j < {n}")
            items = terms.items() if isinstance(terms, Mapping) else terms
            for k, coeff in items:
                value = frac(coeff)
                tensor[i][j][k] = value
                tensor[j][i][k] = -value
        frozen = tuple(tuple(tuple(v) for v in row) for row in tensor)
        return cls(labs, frozen)

    @cached_property
    def terms(self) -> TermTable:
        """terms[i][j]: the nonzero (k, c[i][j][k]) in increasing k."""
        return term_table(self.c)

    @cached_property
    def _basis(self) -> tuple[Vector, ...]:
        n = self.dim
        return tuple(tuple(Fraction(1 if j == i else 0) for j in range(n))
                     for i in range(n))

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.c[i][j]

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] = sum over i, j, k of x[i]·y[j]·c[i][j][k] e_k, read from
        the term table.  Skipping the terms with a zero x[i], y[j] or
        c[i][j][k] is exact: each of them is an exact rational zero, and
        adding it would leave every coordinate unchanged."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError("bracket operands must have length dim")
        return contract(self.terms, x, y, n)

    def basis_vector(self, i: int) -> Vector:
        return self._basis[i]

    def relabel(self, labels: Sequence[str]) -> "LieAlgebra":
        labs = tuple(labels)
        if len(labs) != self.dim:
            raise DimensionMismatchError("label count must match dimension")
        return LieAlgebra(labs, self.c)


def validate_lie_algebra(g: LieAlgebra) -> Report:
    """Exhaustive antisymmetry and Jacobi verification with witnesses."""
    report = Report(subject=f"lie_algebra(dim={g.dim})")
    n = g.dim

    witness = None
    for i in range(n):
        for j in range(n):
            if not is_zero_vector(vadd(g.c[i][j], g.c[j][i])):
                witness = (f"bracket({g.labels[i]},{g.labels[j]}) + "
                           f"bracket({g.labels[j]},{g.labels[i]}) != 0")
                break
        if witness:
            break
    report.add(checked("antisymmetry", "lie-bracket-antisymmetry", witness))

    report.add(checked("jacobi", "lie-jacobi-identity", _jacobi_witness(g)))
    return report


def _jacobi_witness(g: LieAlgebra) -> str | None:
    """The first (i, j, k) whose jacobiator
    [[eᵢ,eⱼ],eₖ] + [[eⱼ,eₖ],eᵢ] + [[eₖ,eᵢ],eⱼ] is nonzero.

    Each term is summed from the term table: [[a,b],e] has coordinate l
    equal to the sum over the nonzero c[a][b][m] and c[m][e][l] of their
    products, which is ``bracket(c[a][b], basis_vector(e))`` without its
    exact zero terms."""
    n = g.dim
    terms = g.terms
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = list(vzero(n))
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in terms[a][b]:
                        for l, w in terms[m][e]:
                            acc[l] += v * w
                if any(acc):
                    return (f"jacobiator({g.labels[i]},{g.labels[j]},"
                            f"{g.labels[k]}) = {[str(x) for x in acc]}")
    return None


@dataclass(frozen=True)
class LieHom:
    """A linear map between Lie algebras, as a target_dim x source_dim matrix."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: Matrix

    def __post_init__(self) -> None:
        if (self.matrix.rows, self.matrix.cols) != (self.target.dim, self.source.dim):
            raise DimensionMismatchError(
                f"hom matrix must be {self.target.dim}x{self.source.dim}, "
                f"got {self.matrix.rows}x{self.matrix.cols}")

    def apply(self, v: Vector) -> Vector:
        return self.matrix.matvec(v)

    def compose(self, inner: "LieHom") -> "LieHom":
        if inner.target is not self.source and inner.target != self.source:
            raise DimensionMismatchError("composition needs matching middle algebra")
        return LieHom(inner.source, self.target, self.matrix @ inner.matrix)

    def is_bijective(self) -> bool:
        return (self.source.dim == self.target.dim
                and self.matrix.rank() == self.source.dim)


def check_homomorphism(f: LieHom, name: str = "lie-homomorphism") -> Check:
    """Does f carry every basis bracket to the bracket of the images?"""
    src, tgt = f.source, f.target
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            lhs = f.apply(src.c[i][j])
            rhs = tgt.bracket(f.apply(src.basis_vector(i)), f.apply(src.basis_vector(j)))
            if lhs != rhs:
                witness = (f"pair ({src.labels[i]},{src.labels[j]}): "
                           f"f([x,y]) = {[str(v) for v in lhs]} but "
                           f"[f(x),f(y)] = {[str(v) for v in rhs]}")
                return checked(name, "bracket-preservation", witness)
    return checked(name, "bracket-preservation", None)


@dataclass(frozen=True)
class EmbeddedSubalgebra:
    """A subspace of a parent algebra that closed under the bracket,
    together with the induced algebra in the subspace's echelon basis."""

    parent: LieAlgebra
    space: Subspace
    algebra: LieAlgebra

    @property
    def dim(self) -> int:
        return self.space.dim

    def embed(self, coords: Vector) -> Vector:
        return self.space.linear_combination(coords)

    def coordinates(self, v: Vector) -> Vector | None:
        return self.space.coordinates_of(v)


def induced_subalgebra(
    g: LieAlgebra, space: Subspace, label_prefix: str = "s"
) -> EmbeddedSubalgebra:
    """Structure constants induced on a bracket-closed subspace.

    Raises NotClosedError naming the first basis pair whose bracket escapes.
    """
    if space.ambient_dim != g.dim:
        raise DimensionMismatchError("subspace ambient does not match algebra dim")
    k = space.dim
    rows = space.basis_vectors()
    tensor = []
    for r in range(k):
        row = []
        for s in range(k):
            w = g.bracket(rows[r], rows[s])
            coords = space.coordinates_of(w)
            if coords is None:
                raise NotClosedError(
                    f"bracket of subspace basis vectors {r} and {s} escapes the subspace",
                    witness=f"pair ({r},{s})")
            row.append(coords)
        tensor.append(tuple(row))
    algebra = LieAlgebra(default_labels(k, label_prefix), tuple(tensor))
    return EmbeddedSubalgebra(g, space, algebra)


def quotient_by_ideal(
    g: LieAlgebra, ideal: Subspace, label_prefix: str = "q"
) -> tuple[LieAlgebra, LieHom]:
    """The quotient algebra and its projection homomorphism.

    The quotient basis is the set of ambient coordinates away from the
    ideal's pivot columns, so the construction is canonical.  Raises
    NotAnIdealError with a witness when the ideal property fails.
    """
    if ideal.ambient_dim != g.dim:
        raise DimensionMismatchError("ideal ambient does not match algebra dim")
    for r in range(g.dim):
        for s, w in enumerate(ideal.basis_vectors()):
            image = g.bracket(g.basis_vector(r), w)
            if not ideal.contains(image):
                raise NotAnIdealError(
                    f"bracket of basis vector {g.labels[r]} with ideal vector {s} "
                    "leaves the subspace",
                    witness=f"pair ({g.labels[r]},ideal[{s}])")
    pivot_set = set(ideal.pivots())
    positions = [t for t in range(g.dim) if t not in pivot_set]
    qdim = len(positions)

    def project(v: Vector) -> Vector:
        residue = ideal.reduce(v)
        return tuple(residue[t] for t in positions)

    tensor = []
    for a in range(qdim):
        row = []
        for b in range(qdim):
            w = g.bracket(g.basis_vector(positions[a]), g.basis_vector(positions[b]))
            row.append(project(w))
        tensor.append(tuple(row))
    quotient = LieAlgebra(default_labels(qdim, label_prefix), tuple(tensor))
    proj_matrix = Matrix.from_rows(
        [[project(g.basis_vector(j))[a] for j in range(g.dim)] for a in range(qdim)],
        g.dim)
    return quotient, LieHom(g, quotient, proj_matrix)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block direct sum: factors bracket independently, cross terms vanish."""
    n, m = a.dim, b.dim
    labels = tuple(f"1.{lab}" for lab in a.labels) + tuple(f"2.{lab}" for lab in b.labels)
    total = n + m
    tensor = [[list(vzero(total)) for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                tensor[i][j][k] = a.c[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                tensor[n + i][n + j][n + k] = b.c[i][j][k]
    return LieAlgebra(labels, tuple(tuple(tuple(v) for v in row) for row in tensor))


def hom_from_images(source: LieAlgebra, target: LieAlgebra,
                    images: Iterable[Sequence]) -> LieHom:
    """Build a LieHom from the images of the source basis vectors."""
    cols = [vector(v) for v in images]
    if len(cols) != source.dim or any(len(v) != target.dim for v in cols):
        raise DimensionMismatchError("need one target vector per source basis vector")
    rows = [[cols[j][i] for j in range(source.dim)] for i in range(target.dim)]
    return LieHom(source, target, Matrix.from_rows(rows, source.dim))


def adjoint_matrix(g: LieAlgebra, x) -> Matrix:
    """The matrix of v |-> [x, v] in the chosen basis."""
    x = vector(x)
    if len(x) != g.dim:
        raise DimensionMismatchError("vector length does not match the algebra")
    cols = [g.bracket(x, g.basis_vector(j)) for j in range(g.dim)]
    rows = [[cols[j][i] for j in range(g.dim)] for i in range(g.dim)]
    return Matrix.from_rows(rows, g.dim)


def killing_form(g: LieAlgebra) -> Matrix:
    """The trace form of the adjoint action, K(x, y) = tr(ad x . ad y)."""
    ads = [adjoint_matrix(g, g.basis_vector(i)) for i in range(g.dim)]
    n = g.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = ads[i] @ ads[j]
            row.append(sum((prod.entries[k][k] for k in range(n)), Fraction(0)))
        rows.append(row)
    return Matrix.from_rows(rows, n)
