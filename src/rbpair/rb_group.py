"""Rota-Baxter operators of weight -1 on finite groups.

The defining identity, checked on all pairs, is

    B(a)·B(b) = B(Ad_{B(a)}(b) · a),      Ad_x(y) = x·y·x⁻¹.

Setting a = b = e forces B(e)² = B(e), so B(e) = e for every valid operator;
enumeration pins that value up front but verification never assumes it.

Alongside verification the module builds the companion operator
B~(a) = a·B(a⁻¹), the descendent group a∘b = Ad_{B(a)}(b)·a, the four
distinguished subgroups (images and kernels of B and B~), the quotient of
the descendent group by the subgroup the kernels generate, and an exhaustive
or pruned enumeration of every operator on a small group.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product

from .errors import (
    MalformedInputError,
    OrderBoundExceededError,
    RepresentativeDisagreementError,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    SubgroupStruct,
    check_group_homomorphism,
    generated_subgroup,
    normality_and_quotient,
    subgroup_from_members,
)
from .reports import Check, Report, checked

DEFAULT_ORDER_BOUND = 12
ORDER_BOUND_ENV = "RBPAIR_MAX_GROUP_ORDER"

__all__ = [
    "RotaBaxterGroup",
    "RBGroupSplit",
    "check_rb_group",
    "tilde_map",
    "tilde_rb_group",
    "descendent_group",
    "split_subgroups",
    "quotient_rb_group",
    "enumerate_rb_operators",
    "check_rb_group_homomorphism",
    "lemma_suite_group",
    "DEFAULT_ORDER_BOUND",
    "ORDER_BOUND_ENV",
]


@dataclass(frozen=True)
class RotaBaxterGroup:
    """A finite group with a candidate Rota-Baxter operator (weight -1)."""

    group: FiniteGroup
    operator: GroupMap

    def __post_init__(self) -> None:
        if (self.operator.source != self.group
                or self.operator.target != self.group):
            raise MalformedInputError(
                "operator must map the group to itself")

    @property
    def order(self) -> int:
        return self.group.order

    def apply(self, a: int) -> int:
        return self.operator.values[a]

    def apply_tilde(self, a: int) -> int:
        g = self.group
        return g.mul(a, self.operator.values[g.inv(a)])

    def descendent_mul(self, a: int, b: int) -> int:
        g = self.group
        return g.mul(g.conj(self.operator.values[a], b), a)

    @cached_property
    def descendent(self) -> FiniteGroup:
        """The descendent group, built once per operator and shared by the
        identity suite and the quotient."""
        return descendent_group(self)


def _rb_identity_witness(g: FiniteGroup, values) -> str | None:
    """First pair violating the operator identity, None if it holds."""
    for a in g.elements():
        ba = values[a]
        for b in g.elements():
            if g.mul(ba, values[b]) != values[g.mul(g.conj(ba, b), a)]:
                return f"pair ({g.labels[a]},{g.labels[b]})"
    return None


def check_rb_group(g: FiniteGroup, operator: GroupMap) -> Check:
    """Verify the weight -1 operator identity on every pair of elements."""
    if operator.source != g or operator.target != g:
        raise MalformedInputError("operator must map the group to itself")
    witness = _rb_identity_witness(g, operator.values)
    return checked("rota-baxter", "group-rota-baxter-identity", witness)


def tilde_map(rbg: RotaBaxterGroup) -> GroupMap:
    """The companion map a -> a·B(a⁻¹)."""
    g = rbg.group
    return GroupMap(g, g, tuple(rbg.apply_tilde(a) for a in g.elements()))


def tilde_rb_group(rbg: RotaBaxterGroup) -> RotaBaxterGroup:
    """The companion operator packaged as an operator in its own right."""
    return RotaBaxterGroup(rbg.group, tilde_map(rbg))


def descendent_group(rbg: RotaBaxterGroup) -> FiniteGroup:
    """The same elements under the twisted product a∘b = Ad_{B(a)}(b)·a."""
    g = rbg.group
    table = tuple(
        tuple(rbg.descendent_mul(a, b) for b in g.elements())
        for a in g.elements())
    return FiniteGroup(g.labels, table)


@dataclass(frozen=True)
class RBGroupSplit:
    """The four distinguished subgroups of a Rota-Baxter group operator."""

    parent: RotaBaxterGroup
    b_tilde: GroupMap
    g_plus: SubgroupStruct   # image of B
    g_minus: SubgroupStruct  # image of B~
    h_plus: SubgroupStruct   # kernel of B~ (preimage of e)
    h_minus: SubgroupStruct  # kernel of B
    report: Report = field(compare=False, repr=False)


def split_subgroups(rbg: RotaBaxterGroup) -> RBGroupSplit:
    """Images and kernels of the operator and its companion, certified.

    The split's report certifies that each image and kernel is closed
    (closure failure raises instead, signalling an invalid operator), that
    each kernel sits inside the matching image, and that it is normal there.
    """
    g = rbg.group
    tilde = tilde_map(rbg)
    report = Report(subject=f"rb_group_split(order={g.order})")

    g_plus = subgroup_from_members(g, set(rbg.operator.values))
    g_minus = subgroup_from_members(g, set(tilde.values))
    h_plus = subgroup_from_members(
        g, {a for a in g.elements() if tilde.values[a] == 0})
    h_minus = subgroup_from_members(
        g, {a for a in g.elements() if rbg.operator.values[a] == 0})
    for name in ("operator-image-closed", "companion-image-closed",
                 "companion-kernel-closed", "operator-kernel-closed"):
        report.add(checked(name, "subgroup-closure", None))

    def containment(kernel: SubgroupStruct, image: SubgroupStruct,
                    tag: str) -> str | None:
        for m in kernel.members:
            if not image.contains(m):
                return f"{g.labels[m]} lies in the {tag} kernel but not the image"
        return None

    report.add(checked("companion-kernel-inside-operator-image",
                       "kernel-image-containment",
                       containment(h_plus, g_plus, "companion")))
    report.add(checked("operator-kernel-inside-companion-image",
                       "kernel-image-containment",
                       containment(h_minus, g_minus, "operator")))

    def normal_inside(kernel: SubgroupStruct,
                      image: SubgroupStruct) -> str | None:
        members = set(kernel.members)
        for a in image.members:
            for m in kernel.members:
                if g.conj(a, m) not in members:
                    return (f"conjugation by {g.labels[a]} moves "
                            f"{g.labels[m]} outside")
        return None

    report.add(checked("companion-kernel-normal-in-operator-image",
                       "kernel-normality", normal_inside(h_plus, g_plus)))
    report.add(checked("operator-kernel-normal-in-companion-image",
                       "kernel-normality", normal_inside(h_minus, g_minus)))

    return RBGroupSplit(rbg, tilde, g_plus, g_minus, h_plus, h_minus, report)


def quotient_rb_group(
    split: RBGroupSplit,
) -> tuple[RotaBaxterGroup, GroupMap, Report]:
    """Quotient of the descendent group by the subgroup its kernels generate.

    Takes the split of the operator (whose certificates it carries over
    under ``split-``), generates the subgroup spanned by both kernels inside
    the descendent group, quotients (normality there is a theorem; failure
    raises and signals an invalid operator), and pushes the operator down,
    checking the induced value on every coset representative.
    """
    rbg = split.parent
    g = rbg.group
    report = Report(subject=f"rb_group_quotient(order={g.order})")
    desc = rbg.descendent
    report.merge(split.report, prefix="split-")

    kernel_union = set(split.h_plus.members) | set(split.h_minus.members)
    generated = generated_subgroup(desc, kernel_union)
    quotient, projection = normality_and_quotient(desc, generated)
    report.add(checked("kernel-span-normal-in-descendent",
                       "descendent-normality", None))

    values = projection.values
    induced = [-1] * quotient.order
    witness = None
    for a in g.elements():
        coset = values[a]
        pushed = values[rbg.operator.values[a]]
        if induced[coset] == -1:
            induced[coset] = pushed
        elif induced[coset] != pushed:
            witness = (f"representatives of coset {quotient.labels[coset]} "
                       f"disagree at {g.labels[a]}")
            break
    if witness is not None:
        raise RepresentativeDisagreementError(
            "quotient operator is not constant on cosets", witness=witness)
    report.add(checked("quotient-operator-well-defined",
                       "quotient-well-defined", None))

    quotient_map = GroupMap(quotient, quotient, tuple(induced))
    report.add(replace(check_rb_group(quotient, quotient_map),
                       name="quotient-rota-baxter"))
    return RotaBaxterGroup(quotient, quotient_map), projection, report


# --------------------------------------------------------------- enumeration


def _order_bound() -> int:
    raw = os.environ.get(ORDER_BOUND_ENV)
    if raw is None:
        return DEFAULT_ORDER_BOUND
    try:
        bound = int(raw)
    except ValueError as exc:
        raise MalformedInputError(
            f"{ORDER_BOUND_ENV} must be an integer, got {raw!r}") from exc
    if bound < 1:
        raise MalformedInputError(f"{ORDER_BOUND_ENV} must be positive")
    return bound


def _naive_subtree(table: tuple[tuple[int, ...], ...],
                   first_value: int) -> list[tuple[int, ...]]:
    """All full maps with B(e)=e, B at element 1 fixed, satisfying the law."""
    n = len(table)
    inverse = [next(c for c in range(n) if table[r][c] == 0) for r in range(n)]
    out = []
    for rest in product(range(n), repeat=n - 2):
        values = (0, first_value) + rest
        ok = True
        for a in range(1, n):  # pairs with a = e hold whenever B(e) = e
            ba = values[a]
            inv_ba = inverse[ba]
            row = table[ba]
            for b in range(n):
                conj = table[row[b]][inv_ba]
                if row[values[b]] != values[table[conj][a]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(values)
    return out


def _propagate(table, values, queue) -> bool:
    """Constraint propagation for partial maps: each assigned pair (a, b)
    forces B(Ad_{B(a)}(b)·a) = B(a)B(b).  Returns False on contradiction."""
    n = len(table)
    inverse = [next(c for c in range(n) if table[r][c] == 0) for r in range(n)]
    assigned = [a for a in range(n) if values[a] >= 0]
    while queue:
        a = queue.pop()
        for b in list(assigned):
            for x, y in ((a, b), (b, a)):
                bx, by = values[x], values[y]
                if bx < 0 or by < 0:
                    continue
                conj = table[table[bx][y]][inverse[bx]]
                target = table[conj][x]
                forced = table[bx][by]
                if values[target] < 0:
                    values[target] = forced
                    assigned.append(target)
                    queue.append(target)
                elif values[target] != forced:
                    return False
    return True


def _pruned_subtree(table: tuple[tuple[int, ...], ...],
                    first_value: int) -> list[tuple[int, ...]]:
    """DFS over value assignments rooted at B(1) = first_value."""
    n = len(table)
    root = [-1] * n
    root[0] = 0
    root[1] = first_value
    if not _propagate(table, root, [0, 1]):
        return []
    out: list[tuple[int, ...]] = []
    stack = [root]
    while stack:
        values = stack.pop()
        free = next((a for a in range(n) if values[a] < 0), None)
        if free is None:
            if _rb_identity_witness_raw(table, values) is None:
                out.append(tuple(values))
            continue
        # push candidates in descending order so the DFS explores ascending
        for v in range(n - 1, -1, -1):
            branch = list(values)
            branch[free] = v
            if _propagate(table, branch, [free]):
                stack.append(branch)
    out.sort()
    return out


def _rb_identity_witness_raw(table, values) -> tuple[int, int] | None:
    n = len(table)
    inverse = [next(c for c in range(n) if table[r][c] == 0) for r in range(n)]
    for a in range(n):
        ba = values[a]
        row = table[ba]
        inv_ba = inverse[ba]
        for b in range(n):
            conj = table[row[b]][inv_ba]
            if row[values[b]] != values[table[conj][a]]:
                return (a, b)
    return None


def enumerate_rb_operators(g: FiniteGroup, mode: str = "pruned",
                           jobs: int = 1) -> list[GroupMap]:
    """Every weight -1 operator on g, lexicographically sorted by value table.

    ``naive`` tries all order^(order-1) maps with B(e) = e pinned; ``pruned``
    runs a DFS with constraint propagation.  Both return identical lists.
    Work may be split across processes on the value of B at element 1, with
    at most one process per value; the merged output is independent of
    ``jobs``.
    """
    bound = _order_bound()
    if g.order > bound:
        raise OrderBoundExceededError(
            f"group order {g.order} exceeds the enumeration bound {bound} "
            f"(raise {ORDER_BOUND_ENV} to override)")
    if mode not in ("naive", "pruned"):
        raise MalformedInputError(f"unknown enumeration mode {mode!r}")
    if jobs < 1:
        raise MalformedInputError("jobs must be at least 1")

    if g.order == 1:
        return [GroupMap(g, g, (0,))]

    worker = _naive_subtree if mode == "naive" else _pruned_subtree
    roots = list(range(g.order))
    if jobs == 1:
        chunks = [worker(g.table, v) for v in roots]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(roots))) as pool:
            chunks = list(pool.map(worker, [g.table] * len(roots), roots))
    merged = sorted(values for chunk in chunks for values in chunk)
    return [GroupMap(g, g, values) for values in merged]


def check_rb_group_homomorphism(f: GroupMap, src: RotaBaxterGroup,
                                dst: RotaBaxterGroup) -> Report:
    """Group homomorphism + operator intertwining f∘B = B'∘f, both certified."""
    if f.source != src.group or f.target != dst.group:
        raise MalformedInputError("hom endpoints do not match the operators")
    report = Report(subject="rb_group_homomorphism")
    report.add(check_group_homomorphism(f))
    witness = None
    for a in src.group.elements():
        if f.values[src.apply(a)] != dst.apply(f.values[a]):
            witness = f"f(B({src.group.labels[a]})) != B'(f({src.group.labels[a]}))"
            break
    report.add(checked("operator-intertwining", "operator-intertwining", witness))
    return report


def lemma_suite_group(rbg: RotaBaxterGroup) -> Report:
    """Elementwise identity suite for a verified operator.

    Required checks: the operator identity itself; B(e) = e; the descendent
    inverse a† = Ad_{B(a)⁻¹}(a⁻¹) maps to B(a)⁻¹; B(a)·B~(a⁻¹)⁻¹ = a and the
    round-trip B(a) = a·B~(a⁻¹); the image exchange B~(B(a)) = B(B~(a⁻¹)⁻¹);
    the companion of the companion is the original map; the companion is
    itself a Rota-Baxter operator; the cross-operator inversion rule
    a ∘~ b = (a⁻¹ ∘ b⁻¹)⁻¹  relating the two descendent products; B is
    Rota-Baxter for the descendent product; and B, applied to descendent
    products, is a homomorphism into the original group.

    Informational checks record candidate identities that fail on some valid
    operators: the same-conjugation variant B(Ad_{B(a)}(a⁻¹)) = B(a)⁻¹, the
    same-operator inversion rule  a ∘ b = (a⁻¹ ∘ b⁻¹)⁻¹, the companion's
    homomorphism property out of the descendent group, and both maps read as
    homomorphisms from the original group into the descendent one.
    """
    g = rbg.group
    report = Report(subject=f"group_lemma_suite(order={g.order})")
    b = rbg.operator.values
    tilde_rbg = tilde_rb_group(rbg)
    bt = tilde_rbg.operator.values

    report.add(check_rb_group(g, rbg.operator))
    report.add(checked("identity-fixed", "identity-image",
                       None if b[0] == 0 else f"B(e) = {g.labels[b[0]]}"))

    def scan(testfn) -> str | None:
        for a in g.elements():
            if not testfn(a):
                return f"element {g.labels[a]}"
        return None

    report.add(checked(
        "descendent-inverse-maps-to-inverse", "descendent-inverse-image",
        scan(lambda a: b[g.conj(g.inv(b[a]), g.inv(a))] == g.inv(b[a]))))
    report.add(checked(
        "stated-twisted-inverse-maps-to-inverse", "descendent-inverse-image",
        scan(lambda a: b[g.conj(b[a], g.inv(a))] == g.inv(b[a])),
        required=False))
    report.add(checked(
        "operator-times-companion-inverse", "element-recovery",
        scan(lambda a: g.mul(b[a], g.inv(bt[g.inv(a)])) == a)))
    report.add(checked(
        "operator-from-companion-roundtrip", "companion-roundtrip",
        scan(lambda a: b[a] == g.mul(a, bt[g.inv(a)]))))
    report.add(checked(
        "companion-of-image-exchange", "image-swap-identity",
        scan(lambda a: bt[b[a]] == b[g.inv(bt[g.inv(a)])])))

    double = tilde_map(tilde_rbg)
    report.add(checked(
        "companion-involution", "companion-involution",
        None if double.values == rbg.operator.values
        else "companion applied twice differs from the original map"))

    report.add(replace(check_rb_group(g, tilde_rbg.operator),
                       name="companion-rota-baxter"))

    def pair_scan(testfn) -> str | None:
        for a in g.elements():
            for c in g.elements():
                if not testfn(a, c):
                    return f"pair ({g.labels[a]},{g.labels[c]})"
        return None

    report.add(checked(
        "same-product-inversion-rule", "descendent-inversion-stated",
        pair_scan(lambda a, c: rbg.descendent_mul(a, c)
                  == g.inv(rbg.descendent_mul(g.inv(a), g.inv(c)))),
        required=False))
    report.add(checked(
        "cross-product-inversion-rule", "descendent-inversion-corrected",
        pair_scan(lambda a, c: tilde_rbg.descendent_mul(a, c)
                  == g.inv(rbg.descendent_mul(g.inv(a), g.inv(c))))))

    desc = rbg.descendent
    report.add(replace(check_rb_group(desc, GroupMap(desc, desc, b)),
                       name="operator-rota-baxter-on-descendent"))

    report.add(checked(
        "operator-descendent-to-parent-homomorphism",
        "descendent-to-parent-homomorphism",
        pair_scan(lambda a, c: b[rbg.descendent_mul(a, c)]
                  == g.mul(b[a], b[c]))))
    report.add(checked(
        "companion-descendent-to-parent-homomorphism",
        "descendent-to-parent-homomorphism",
        pair_scan(lambda a, c: bt[rbg.descendent_mul(a, c)]
                  == g.mul(bt[a], bt[c])),
        required=False))
    report.add(checked(
        "operator-parent-to-descendent-homomorphism",
        "parent-to-descendent-homomorphism",
        pair_scan(lambda a, c: b[g.mul(a, c)]
                  == rbg.descendent_mul(b[a], b[c])),
        required=False))
    report.add(checked(
        "companion-parent-to-descendent-homomorphism",
        "parent-to-descendent-homomorphism",
        pair_scan(lambda a, c: bt[g.mul(a, c)]
                  == rbg.descendent_mul(bt[a], bt[c])),
        required=False))
    return report
