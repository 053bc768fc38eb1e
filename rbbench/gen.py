"""Seeded input generators for the rbpair benchmark.

Every input is written as a JSON file in rbpair's wire format; the program
under test sees only these files.  The seed picks one presentation per
input and changes nothing an answer depends on:

* a Lie input gets a signed permutation of its basis, b'_k = s_k b_{pi(k)},
  which transforms structure constants, operator and form by
  c'[a][b][k] = s_a s_b s_k c[pi a][pi b][pi k] and M'[a][b] = s_a s_b M[pi a][pi b];
* a group input gets a relabeling of its elements that keeps the identity
  at index 0, so the program's own identity pinning never fires.

Verdicts, operator counts and decomposition dimensions are therefore the
same for every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from rbpair.groups import (
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric3,
)
from rbpair.lie import LieAlgebra
from rbpair.quadratic import cotangent_fixture


# ------------------------------------------------------------- Lie algebras


def _matrix_unit(n: int, i: int, j: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


def _commutator(x, y):
    n = len(x)
    xy = [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    yx = [[sum(y[i][k] * x[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[xy[i][j] - yx[i][j] for j in range(n)] for i in range(n)]


def matrix_algebra(n: int, traceless: bool):
    """gl(n) or sl(n) with its Borel projection, as plain Python data.

    Basis of gl(n): E_ij in row-major order.  Basis of sl(n): E_ij for
    i != j, then H_i = E_ii - E_{i+1,i+1}.  Returns (labels, brackets,
    diag) where brackets maps (i, j), i < j, to {k: coefficient} and diag is
    the diagonal of the projection onto the upper-triangular (Borel)
    subalgebra along the strictly lower-triangular one, a weight -1
    Rota-Baxter operator.
    """
    if traceless:
        units = [(i, j) for i in range(n) for j in range(n) if i != j]
        mats = [_matrix_unit(n, i, j) for i, j in units]
        labels = [f"e{i}{j}" for i, j in units]
        upper = [i < j for i, j in units]
        for i in range(n - 1):
            h = _matrix_unit(n, i, i)
            h[i + 1][i + 1] = -1
            mats.append(h)
            labels.append(f"h{i}")
            upper.append(True)
    else:
        units = [(i, j) for i in range(n) for j in range(n)]
        mats = [_matrix_unit(n, i, j) for i, j in units]
        labels = [f"e{i}{j}" for i, j in units]
        upper = [i <= j for i, j in units]

    def coords(m) -> dict[int, int]:
        out = {}
        for idx, (i, j) in enumerate(units):
            if i != j and m[i][j]:
                out[idx] = m[i][j]
            elif i == j and not traceless and m[i][i]:
                out[idx] = m[i][i]
        if traceless:
            running = 0
            for i in range(n - 1):
                running += m[i][i]
                if running:
                    out[len(units) + i] = running
        return out

    brackets = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            terms = coords(_commutator(mats[a], mats[b]))
            if terms:
                brackets[(a, b)] = terms
    return labels, brackets, [1 if u else 0 for u in upper]


def signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def _fr(value) -> str:
    return str(Fraction(value))


def lie_algebra_dict(labels, brackets, perm, signs) -> dict:
    """Serialize an algebra in the permuted, sign-flipped basis."""
    n = len(labels)
    dense = {}
    for (i, j), terms in brackets.items():
        dense[(i, j)] = terms
        dense[(j, i)] = {k: -v for k, v in terms.items()}
    inv = [0] * n
    for new, old in enumerate(perm):
        inv[old] = new
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            terms = dense.get((perm[a], perm[b]))
            if not terms:
                continue
            new_terms = sorted(
                (inv[k], signs[a] * signs[b] * signs[inv[k]] * v)
                for k, v in terms.items())
            out.append({"i": a, "j": b,
                        "terms": [[k, _fr(v)] for k, v in new_terms]})
    return {"kind": "lie_algebra", "dim": n,
            "basis": [labels[perm[a]] for a in range(n)], "brackets": out}


def _transform_matrix(rows, perm, signs) -> list[list[str]]:
    n = len(perm)
    return [[_fr(signs[a] * signs[b] * rows[perm[a]][perm[b]])
             for b in range(n)] for a in range(n)]


def rb_lie_dict(labels, brackets, operator_rows, perm, signs) -> dict:
    return {"kind": "rb_lie", "weight": "-1",
            "algebra": lie_algebra_dict(labels, brackets, perm, signs),
            "operator": {"matrix": _transform_matrix(operator_rows, perm,
                                                     signs)}}


def _diagonal(diag) -> list[list[int]]:
    n = len(diag)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def borel_rb_lie(n: int, traceless: bool, rng: random.Random) -> dict:
    """gl(n) or sl(n) with the Borel projection, weight -1, seeded basis."""
    labels, brackets, diag = matrix_algebra(n, traceless)
    perm, signs = signed_permutation(rng, len(labels))
    return rb_lie_dict(labels, brackets, _diagonal(diag), perm, signs)


def cotangent_gl2(rng: random.Random) -> dict:
    """T*gl(2) from rbpair's cotangent construction, seeded basis."""
    labels, brackets, _ = matrix_algebra(2, traceless=False)
    q = cotangent_fixture(LieAlgebra.from_sparse(labels, brackets))
    g = q.rb.algebra
    n = g.dim
    sparse = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = {k: v for k, v in enumerate(g.c[i][j]) if v}
            if terms:
                sparse[(i, j)] = terms
    perm, signs = signed_permutation(rng, n)
    return {"kind": "quadratic_rb",
            "rb": rb_lie_dict(g.labels, sparse, q.rb.operator.entries,
                              perm, signs),
            "form": _transform_matrix(q.form.entries, perm, signs)}


# ------------------------------------------------------------------- groups


def symmetric4() -> tuple[list[str], list[list[int]]]:
    """S4 as permutations in lexicographic order, (p*q)(i) = p(q(i))."""
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(4))] for q in perms]
             for p in perms]
    return ["".join(map(str, p)) for p in perms], table


def _constructed(group) -> tuple[list[str], list[list[int]]]:
    return list(group.labels), [list(row) for row in group.table]


GROUPS = {
    "S4": symmetric4,
    "D6": lambda: _constructed(dihedral(6)),
    "Z2xD4": lambda: _constructed(direct_product(cyclic(2), dihedral(4))),
    "Z2xD6": lambda: _constructed(direct_product(cyclic(2), dihedral(6))),
    "Z2xZ2xZ4": lambda: _constructed(
        direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(4))),
    "Z2xQ8": lambda: _constructed(direct_product(cyclic(2), quaternion8())),
    "S3": lambda: _constructed(symmetric3()),
    "Z4": lambda: _constructed(cyclic(4)),
}


def relabeled_group(name: str, rng: random.Random
                    ) -> tuple[dict, list[list[int]]]:
    """A group file with a seeded relabeling fixing the identity at 0.

    Returns the file payload and its table, which the gate uses to recheck
    every census operator.
    """
    labels, table = GROUPS[name]()
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    sigma = [0] + rest
    new_table = [[0] * n for _ in range(n)]
    new_labels = [""] * n
    for a in range(n):
        new_labels[sigma[a]] = labels[a]
        for b in range(n):
            new_table[sigma[a]][sigma[b]] = sigma[table[a][b]]
    payload = {"kind": "group", "order": n, "elements": new_labels,
               "table": new_table}
    return payload, new_table


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
