"""Exact linear algebra against an independent oracle: sympy's DomainMatrix
over QQ, on matrices that are mostly zeros (the case the zero shortcuts in
the vector kernels hit).  sympy is a test-only dependency."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from rbpair.linalg import Matrix, Subspace, kernel_vectors  # noqa: E402

F = Fraction
QQ = sympy.QQ

entries = st.sampled_from([F(0)] * 7 + [F(1), F(-1), F(3), F(1, 2), F(-2, 3)])


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(lambda cols: st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=0, max_size=max_rows).map(
            lambda rows: Matrix.from_rows(rows, cols)))


def to_domain(rows, cols: int) -> DomainMatrix:
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                         for row in rows], (len(rows), cols), QQ)


def to_fractions(dm: DomainMatrix) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(F(int(x.numerator), int(x.denominator)) for x in row)
                 for row in dm.to_list())


def oracle_echelon(rows, cols: int) -> tuple[tuple[Fraction, ...], ...]:
    """The reduced row echelon basis of the span of ``rows``, by sympy."""
    if not rows:
        return ()
    reduced, pivots = to_domain(rows, cols).rref()
    return to_fractions(reduced)[:len(pivots)]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_and_rref_match_sympy(m):
    dm = to_domain(m.entries, m.cols)
    reduced, pivots = m.rref()
    expected, expected_pivots = dm.rref()
    assert pivots == tuple(expected_pivots)
    assert reduced.entries == to_fractions(expected)
    assert m.rank() == dm.rank()


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_vectors_match_sympy_nullspace(m):
    ours = kernel_vectors(m)
    if m.rows:
        theirs = to_fractions(to_domain(m.entries, m.cols).nullspace())
    else:
        theirs = Matrix.identity(m.cols).entries
    assert len(ours) == len(theirs) == m.cols - m.rank()
    assert (Subspace.from_spanning(ours, m.cols).basis.entries
            == oracle_echelon(list(theirs), m.cols))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4),
    st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4),
    st.just(n))))
def test_intersect_matches_sympy(args):
    a_rows, b_rows, n = args
    a = Subspace.from_spanning(a_rows, n)
    b = Subspace.from_spanning(b_rows, n)
    assert a.basis.entries == oracle_echelon(a_rows, n)
    # x lies in both spans iff x = α·A = β·B, i.e. (α, β) is in the kernel
    # of the n x (|A|+|B|) matrix [Aᵀ | -Bᵀ].
    spanning = [list(r) for r in a_rows] + [[-x for x in r] for r in b_rows]
    expected = ()
    if spanning:
        null = to_fractions(to_domain(spanning, n).transpose().nullspace())
        meets = [[sum((alpha[r] * a_rows[r][t] for r in range(len(a_rows))), F(0))
                  for t in range(n)] for alpha in null]
        expected = oracle_echelon([v for v in meets if any(v)], n)
    assert a.intersect(b).basis.entries == expected
