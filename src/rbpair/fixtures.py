"""Small concrete algebras and groups used by tests, examples, and the
acceptance suite."""

from __future__ import annotations

from fractions import Fraction

from .groups import (
    FiniteGroup,
    GroupMap,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric3,
)
from .lie import LieAlgebra
from .linalg import Matrix
from .rb_lie import RotaBaxterLie
from .rb_group import RotaBaxterGroup


def sl2() -> LieAlgebra:
    """The 3-dimensional simple algebra in the basis (e, h, f):
    [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieAlgebra.from_sparse(
        ("e", "h", "f"),
        {
            (0, 1): {0: -2},   # [e,h] = -2e
            (0, 2): {1: 1},    # [e,f] = h
            (1, 2): {2: -2},   # [h,f] = -2f
        },
    )


def aff1() -> LieAlgebra:
    """The nonabelian 2-dimensional algebra: [a,b] = b."""
    return LieAlgebra.from_sparse(("a", "b"), {(0, 1): {1: 1}})


def heisenberg() -> LieAlgebra:
    """The 3-dimensional algebra with [x,y] = z central."""
    return LieAlgebra.from_sparse(("x", "y", "z"), {(0, 1): {2: 1}})


def sl2_projection_rb() -> RotaBaxterLie:
    """sl2 with the projection onto span{h,f} along span{e}; weight -1."""
    return RotaBaxterLie(sl2(), Matrix.diagonal([0, 1, 1]), Fraction(-1))


def abelian2_half_rb() -> RotaBaxterLie:
    """2-dimensional abelian algebra with operator diag(1/2, 1); weight -1."""
    return RotaBaxterLie(
        LieAlgebra.abelian(2, ("x1", "x2")),
        Matrix.diagonal([Fraction(1, 2), 1]),
        Fraction(-1),
    )


def abelian1_half_rb() -> RotaBaxterLie:
    """1-dimensional abelian algebra with operator (1/2); weight -1."""
    return RotaBaxterLie(
        LieAlgebra.abelian(1, ("x",)),
        Matrix.diagonal([Fraction(1, 2)]),
        Fraction(-1),
    )


def _borel_rb(n: int, traceless: bool) -> RotaBaxterLie:
    """gl(n) or sl(n) with the projection onto the upper-triangular (Borel)
    subalgebra along the strictly lower-triangular one; weight -1.

    Basis of gl(n): the matrix units E_ij in row-major order, labelled eij.
    Basis of sl(n): E_ij for i != j in row-major order, then
    h_i = E_ii - E_(i+1)(i+1).
    """
    units = [(i, j) for i in range(n) for j in range(n)
             if not (traceless and i == j)]
    basis = [{u: 1} for u in units]
    labels = [f"e{i}{j}" for i, j in units]
    if traceless:
        basis += [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
        labels += [f"h{i}" for i in range(n - 1)]
    index = {u: k for k, u in enumerate(units)}

    def coords(m: dict) -> dict[int, int]:
        out = {index[u]: v for u, v in m.items()
               if v and (u[0] != u[1] or not traceless)}
        if traceless:
            running = 0   # h-coefficients are running sums of the diagonal
            for i in range(n - 1):
                running += m.get((i, i), 0)
                if running:
                    out[len(units) + i] = running
        return out

    def commutator(x: dict, y: dict) -> dict:
        out: dict = {}
        for (a, b), s in x.items():
            for (c, d), t in y.items():
                if b == c:
                    out[(a, d)] = out.get((a, d), 0) + s * t
                if d == a:
                    out[(c, b)] = out.get((c, b), 0) - s * t
        return out

    brackets = {}
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            terms = coords(commutator(basis[a], basis[b]))
            if terms:
                brackets[(a, b)] = terms
    upper = [i <= j for i, j in units] + [True] * (len(basis) - len(units))
    return RotaBaxterLie(LieAlgebra.from_sparse(labels, brackets),
                         Matrix.diagonal([1 if u else 0 for u in upper]),
                         Fraction(-1))


def gl_borel_rb(n: int) -> RotaBaxterLie:
    """gl(n) with its Borel projection; weight -1."""
    return _borel_rb(n, traceless=False)


def sl_borel_rb(n: int) -> RotaBaxterLie:
    """sl(n) with its Borel projection; weight -1."""
    return _borel_rb(n, traceless=True)


def klein_four() -> FiniteGroup:
    """The 2x2 elementary abelian group as a direct product."""
    return direct_product(cyclic(2), cyclic(2))


def census_groups() -> tuple[FiniteGroup, ...]:
    """The standard panel of small groups the exhaustive suites run over."""
    return (
        cyclic(2),
        cyclic(3),
        cyclic(4),
        klein_four(),
        cyclic(6),
        symmetric3(),
        cyclic(8),
        dihedral(4),
        quaternion8(),
    )


def z4_squaring_rb() -> RotaBaxterGroup:
    """Z4 with the squaring endomorphism, the running worked example:
    the companion is inversion, both kernels are {0, 2}."""
    z4 = cyclic(4)
    return RotaBaxterGroup(z4, GroupMap(z4, z4, (0, 2, 0, 2)))
