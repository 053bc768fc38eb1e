"""Exact linear algebra over the rationals.

Matrices are immutable tuples of ``fractions.Fraction`` entries and every
routine is exact; floats are rejected outright.  Subspaces are stored as
reduced row echelon bases, which makes equality of subspaces literal equality
of matrices and keeps all downstream constructions canonical and
reproducible.

The vector kernels skip zero entries: ``vdot`` (and so ``matvec`` and ``@``)
multiplies only pairs of nonzero factors, ``vadd`` and ``vscale`` return the
other operand's entry where one entry is zero, and ``vsub`` the entry or its
negation.  Adding or multiplying by an exact zero changes no value, so the
results equal the plain zipped arithmetic entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, ExactnessError

Vector = tuple[Fraction, ...]


def frac(value) -> Fraction:
    """Coerce an int, a string like ``"2/3"``, or a Fraction to a Fraction.

    Floats are refused: silently converting them would launder rounding
    error into a library whose whole point is exactness.
    """
    if isinstance(value, bool):
        raise ExactnessError(f"not an exact rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExactnessError(f"not an exact rational: {value!r}") from exc
    raise ExactnessError(f"not an exact rational: {value!r}")


def vector(values: Iterable) -> Vector:
    return tuple(frac(v) for v in values)


_ZERO = Fraction(0)


def vzero(n: int) -> Vector:
    return (_ZERO,) * n


def vadd(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple((a + b if b else a) if a else b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple((a - b if b else a) if a else -b for a, b in zip(x, y))


def vscale(s, x: Vector) -> Vector:
    c = frac(s)
    return tuple(c * a if a else a for a in x)


def vneg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def vdot(x: Vector, y: Vector) -> Fraction:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths differ: {len(x)} vs {len(y)}")
    total = _ZERO
    for a, b in zip(x, y):
        if a and b:
            total += a * b
    return total


def is_zero_vector(x: Vector) -> bool:
    return not any(x)


@dataclass(frozen=True)
class Matrix:
    """An immutable rows x cols matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        data = tuple(vector(row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DimensionMismatchError("ragged rows in matrix literal")
            if cols is not None and cols != width:
                raise DimensionMismatchError(
                    f"declared {cols} columns but rows have {width}")
            cols = width
        elif cols is None:
            raise DimensionMismatchError("empty matrix needs an explicit column count")
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, tuple((vzero(cols),) * rows))

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        diag = vector(values)
        n = len(diag)
        return cls(n, n, tuple(
            tuple(diag[i] if i == j else Fraction(0) for j in range(n))
            for i in range(n)))

    # ------------------------------------------------------------ structure

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack needs equal row counts")
        return Matrix(self.rows, self.cols + other.cols, tuple(
            a + b for a, b in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack needs equal column counts")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(is_zero_vector(row) for row in self.entries)

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ in addition")
        return Matrix(self.rows, self.cols, tuple(
            vadd(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ in subtraction")
        return Matrix(self.rows, self.cols, tuple(
            vsub(a, b) for a, b in zip(self.entries, other.entries)))

    def scale(self, s) -> "Matrix":
        c = frac(s)
        return Matrix(self.rows, self.cols, tuple(
            tuple(c * x for x in row) for row in self.entries))

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.transpose().entries
        return Matrix(self.rows, other.cols, tuple(
            tuple(vdot(row, col) for col in cols) for row in self.entries))

    def matvec(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"matrix has {self.cols} columns, vector has {len(v)}")
        return tuple(vdot(row, v) for row in self.entries)

    # -------------------------------------------------------------- echelon

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Deterministic: scans columns left to right, always picking the first
        nonzero entry below the current row as pivot.
        """
        work = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if work[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            inv = work[r][c]
            work[r] = [x / inv for x in work[r]]
            for i in range(self.rows):
                if i != r and work[i][c] != 0:
                    factor = work[i][c]
                    work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        reduced = Matrix(self.rows, self.cols, tuple(tuple(row) for row in work))
        return reduced, tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nonzero_rows(self) -> tuple[Vector, ...]:
        return tuple(row for row in self.entries if not is_zero_vector(row))


def solve_linear(a: Matrix, b: Vector) -> Vector | None:
    """A particular solution x of a @ x = b, or None when inconsistent.

    Deterministic: free variables are set to zero.
    """
    if len(b) != a.rows:
        raise DimensionMismatchError(
            f"matrix has {a.rows} rows, right-hand side has {len(b)}")
    augmented = a.hstack(Matrix(a.rows, 1, tuple((x,) for x in b)))
    reduced, pivots = augmented.rref()
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for row_idx, pivot_col in enumerate(pivots):
        x[pivot_col] = reduced.entries[row_idx][a.cols]
    return tuple(x)


def kernel_vectors(m: Matrix) -> list[Vector]:
    """A spanning set for the right null space {x : m @ x = 0}."""
    reduced, pivots = m.rref()
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for row_idx, pivot_col in enumerate(pivots):
            v[pivot_col] = -reduced.entries[row_idx][f]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n held as a reduced-row-echelon basis.

    The canonical basis makes dataclass equality coincide with equality of
    subspaces, and keeps every construction built on top deterministic.
    """

    ambient_dim: int
    basis: Matrix  # rref with zero rows dropped; rows span the space

    @classmethod
    def from_spanning(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        rows = [vector(v) for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"spanning vector has length {len(v)}, ambient is {ambient_dim}")
        if not rows:
            return cls.zero(ambient_dim)
        reduced, pivots = Matrix.from_rows(rows, ambient_dim).rref()
        kept = reduced.entries[:len(pivots)]
        return cls(ambient_dim, Matrix(len(kept), ambient_dim, kept))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(0, ambient_dim, ()))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivots(self) -> tuple[int, ...]:
        pivots = []
        for row in self.basis.entries:
            for c, x in enumerate(row):
                if x:
                    pivots.append(c)
                    break
        return tuple(pivots)

    def basis_vectors(self) -> tuple[Vector, ...]:
        return self.basis.entries

    def reduce(self, v: Vector) -> Vector:
        """v minus its projection onto the space along the pivot coordinates.

        Result has zeros in every pivot column; it is zero iff v lies in the
        space.
        """
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector length {len(v)} does not match ambient {self.ambient_dim}")
        residue = list(v)
        for row, pivot_col in zip(self.basis.entries, self.pivots()):
            coeff = residue[pivot_col]
            if coeff != 0:
                residue = [a - coeff * b for a, b in zip(residue, row)]
        return tuple(residue)

    def contains(self, v: Vector) -> bool:
        return is_zero_vector(self.reduce(v))

    def coordinates_of(self, v: Vector) -> Vector | None:
        """Coefficients of v in the echelon basis, or None when v is outside."""
        if not self.contains(v):
            return None
        pivots = self.pivots()
        return tuple(v[p] for p in pivots)

    def linear_combination(self, coords: Vector) -> Vector:
        if len(coords) != self.dim:
            raise DimensionMismatchError(
                f"{len(coords)} coefficients for a {self.dim}-dimensional space")
        out = vzero(self.ambient_dim)
        for c, row in zip(coords, self.basis.entries):
            if c != 0:
                out = vadd(out, vscale(c, row))
        return out

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("subspaces live in different ambients")
        return all(other.contains(row) for row in self.basis.entries)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("subspaces live in different ambients")
        return Subspace.from_spanning(
            self.basis.entries + other.basis.entries, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the Zassenhaus block construction."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("subspaces live in different ambients")
        n = self.ambient_dim
        blocks = [row + row for row in self.basis.entries]
        blocks += [row + vzero(n) for row in other.basis.entries]
        if not blocks:
            return Subspace.zero(n)
        reduced, _ = Matrix.from_rows(blocks, 2 * n).rref()
        inter_rows = [row[n:] for row in reduced.entries
                      if is_zero_vector(row[:n]) and not is_zero_vector(row[n:])]
        return Subspace.from_spanning(inter_rows, n)


def image_and_kernel(m: Matrix) -> tuple[Subspace, Subspace]:
    """Column space and right null space of m, both canonicalized."""
    image = Subspace.from_spanning(
        [m.col(j) for j in range(m.cols)], m.rows)
    kernel = Subspace.from_spanning(kernel_vectors(m), m.cols)
    return image, kernel
