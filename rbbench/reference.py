"""A fixed, stdlib-only CPU task that the benchmark times as a yardstick.

    python3 rbbench/reference.py

run.py starts this script in a fresh interpreter next to every pass and
divides each pass's wall time by the reference's, so a change in the
host's speed during a run cancels out of ``wall_ref``.  The work mirrors
rbpair's two sides: exact Gauss-Jordan elimination over Fraction, and a
permutation group's multiplication table built from tuples and a dict.
It never imports rbpair, so no change to the program moves it.
"""

from fractions import Fraction
from itertools import permutations


def eliminate(n: int) -> list[list[Fraction]]:
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def symmetric_table(k: int) -> list[list[int]]:
    perms = list(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(k))] for q in perms]
            for p in perms]


if __name__ == "__main__":
    eliminate(26)
    symmetric_table(5)
