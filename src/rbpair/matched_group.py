"""Matched pairs of finite groups and the bicrossed-product calculus.

A matched pair (G₊, G₋, ρ, μ) consists of two finite groups and two left
actions ρ: G₊ → Maps(G₋), μ: G₋ → Maps(G₊) subject to four mixed
compatibility conditions.  The bicrossed product puts a group structure on
the product set:

    (a₁,b₁) ·⋈ (a₂,b₂) = ((μ(b₂⁻¹)(a₁⁻¹))⁻¹ · a₂,  b₁ · ρ(a₁)(b₂)).

A weight −1 Rota-Baxter operator B on a finite group G induces such a pair
on (im B, im B~) via

    ρ(B(a))(B~(b)) = B~(Ad_{B(a)}(b)),      μ(B~(a))(B(b)) = B(Ad_{B~(a)}(b)),

where the value is computed through preimage representatives and checked
over every preimage, never a sample.  The module builds that pair, the
bicrossed product with its per-element inverse-formula certificate, the
canonical idempotent pair of the bicrossed group

    Ĉ((u,v))  = (B(u⁻¹v⁻¹)⁻¹, B~(v·u)),
    C~((B(a),B~(b))) = (B(B~(b)·B~(a⁻¹))⁻¹, B~(B(a)⁻¹·B(b⁻¹)⁻¹)),

the weight −1 operators any group projection induces on its kernel, and the
isomorphism from the quotient of the descendent group by the subgroup its
kernels generate onto the second factor im C~.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    AxiomsFailedError,
    MalformedInputError,
    NotClosedError,
    RepresentativeDisagreementError,
)
from .groups import (
    FiniteGroup,
    GroupMap,
    SubgroupStruct,
    check_group_homomorphism,
    subgroup_from_members,
    validate_group,
)
from .rb_group import (
    RBGroupSplit,
    RotaBaxterGroup,
    check_rb_group,
    check_rb_group_homomorphism,
    quotient_rb_group,
    split_subgroups,
)
from .reports import Report, checked

__all__ = [
    "MatchedPairGroup",
    "BicrossedGroup",
    "GroupProjection",
    "trivial_actions",
    "verify_matched_pair_group",
    "bicrossed_group",
    "bicrossed_group_certificates",
    "matched_pair_from_rb_group",
    "bicrossed_from_rb_group",
    "group_projection_check",
    "canonical_group_projections",
    "rb_from_group_projection",
    "iso_second_factor_quotient_group",
    "induced_mpg_homomorphism",
]


@dataclass(frozen=True)
class MatchedPairGroup:
    """Two finite groups with mutual actions, stored as full lookup tables.

    rho[a][b] is the G₋ element ρ(a)(b) for a ∈ G₊, b ∈ G₋;
    mu[b][a] is the G₊ element μ(b)(a) for b ∈ G₋, a ∈ G₊.
    """

    g_plus: FiniteGroup
    g_minus: FiniteGroup
    rho: tuple[tuple[int, ...], ...]
    mu: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        p, q = self.g_plus.order, self.g_minus.order
        if len(self.rho) != p or any(len(row) != q for row in self.rho):
            raise MalformedInputError(f"rho table must be {p} x {q}")
        if len(self.mu) != q or any(len(row) != p for row in self.mu):
            raise MalformedInputError(f"mu table must be {q} x {p}")
        for row in self.rho:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < q:
                    raise MalformedInputError(
                        f"rho entry {v!r} is not an element index below {q}")
        for row in self.mu:
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < p:
                    raise MalformedInputError(
                        f"mu entry {v!r} is not an element index below {p}")

    def act_plus(self, a: int, b: int) -> int:
        """ρ(a)(b): the plus element a acting on the minus element b."""
        return self.rho[a][b]

    def act_minus(self, b: int, a: int) -> int:
        """μ(b)(a): the minus element b acting on the plus element a."""
        return self.mu[b][a]


def trivial_actions(g_plus: FiniteGroup, g_minus: FiniteGroup) -> MatchedPairGroup:
    """The direct-product matched pair: both actions are trivial."""
    p, q = g_plus.order, g_minus.order
    return MatchedPairGroup(
        g_plus, g_minus,
        tuple(tuple(range(q)) for _ in range(p)),
        tuple(tuple(range(p)) for _ in range(q)))


def verify_matched_pair_group(mp: MatchedPairGroup) -> Report:
    """Left-action axioms plus the four mixed conditions, on all tuples.

    The two product rules are evaluated exactly as defined — with every
    inverse in place — rather than through any algebraic simplification.
    """
    gp, gm = mp.g_plus, mp.g_minus
    rho, mu = mp.rho, mp.mu
    report = Report(subject=f"matched_pair_group(p={gp.order},q={gm.order})")

    witness = None
    for b in gm.elements():
        if rho[0][b] != b:
            witness = f"element {gm.labels[b]}"
            break
    report.add(checked("plus-action-unital", "group-action-axioms", witness))

    witness = None
    for a1 in gp.elements():
        for a2 in gp.elements():
            row = rho[gp.mul(a1, a2)]
            for b in gm.elements():
                if row[b] != rho[a1][rho[a2][b]]:
                    witness = (f"triple ({gp.labels[a1]},{gp.labels[a2]},"
                               f"{gm.labels[b]})")
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("plus-action-composition", "group-action-axioms", witness))

    witness = None
    for a in gp.elements():
        if mu[0][a] != a:
            witness = f"element {gp.labels[a]}"
            break
    report.add(checked("minus-action-unital", "group-action-axioms", witness))

    witness = None
    for b1 in gm.elements():
        for b2 in gm.elements():
            row = mu[gm.mul(b1, b2)]
            for a in gp.elements():
                if row[a] != mu[b1][mu[b2][a]]:
                    witness = (f"triple ({gm.labels[b1]},{gm.labels[b2]},"
                               f"{gp.labels[a]})")
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("minus-action-composition", "group-action-axioms", witness))

    witness = None
    for a in gp.elements():
        if rho[a][0] != 0:
            witness = f"element {gp.labels[a]}"
            break
    report.add(checked("plus-action-fixes-identity", "action-fixes-identity",
                       witness))

    witness = None
    for b in gm.elements():
        if mu[b][0] != 0:
            witness = f"element {gm.labels[b]}"
            break
    report.add(checked("minus-action-fixes-identity", "action-fixes-identity",
                       witness))

    # ρ(a⁻¹)(b₁b₂) = ρ(a⁻¹)(b₁) · ρ((μ(b₁⁻¹)(a))⁻¹)(b₂)
    witness = None
    for a in gp.elements():
        ainv = gp.inv(a)
        for b1 in gm.elements():
            shifted = gp.inv(mu[gm.inv(b1)][a])
            for b2 in gm.elements():
                lhs = rho[ainv][gm.mul(b1, b2)]
                rhs = gm.mul(rho[ainv][b1], rho[shifted][b2])
                if lhs != rhs:
                    witness = (f"triple ({gp.labels[a]},{gm.labels[b1]},"
                               f"{gm.labels[b2]})")
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("plus-action-product-rule", "mixed-compatibility-1",
                       witness))

    # μ(b⁻¹)(a₁a₂) = μ(b⁻¹)(a₁) · μ((ρ(a₁⁻¹)(b))⁻¹)(a₂)
    witness = None
    for b in gm.elements():
        binv = gm.inv(b)
        for a1 in gp.elements():
            shifted = gm.inv(rho[gp.inv(a1)][b])
            for a2 in gp.elements():
                lhs = mu[binv][gp.mul(a1, a2)]
                rhs = gp.mul(mu[binv][a1], mu[shifted][a2])
                if lhs != rhs:
                    witness = (f"triple ({gm.labels[b]},{gp.labels[a1]},"
                               f"{gp.labels[a2]})")
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("minus-action-product-rule", "mixed-compatibility-2",
                       witness))
    return report


@dataclass(frozen=True)
class BicrossedGroup:
    """The bicrossed product group on the product set G₊ × G₋.

    Element (i, j) of the factors sits at total index i·|G₋| + j.  When the
    pair came from a Rota-Baxter operator the split is attached, linking
    factor indices back to elements of the original group.
    """

    pair: MatchedPairGroup
    total: FiniteGroup
    split: RBGroupSplit | None = None

    @property
    def p(self) -> int:
        return self.pair.g_plus.order

    @property
    def q(self) -> int:
        return self.pair.g_minus.order

    def index(self, i: int, j: int) -> int:
        """Total index of the pair (plus index i, minus index j)."""
        if not 0 <= i < self.p or not 0 <= j < self.q:
            raise MalformedInputError("factor indices out of range")
        return i * self.q + j

    def components(self, w: int) -> tuple[int, int]:
        """Factor indices (i, j) of a total index."""
        if not 0 <= w < self.total.order:
            raise MalformedInputError("total index out of range")
        return divmod(w, self.q)

    def attached_split(self) -> RBGroupSplit:
        """The split the pair was built from; raises when none is attached."""
        if self.split is None:
            raise MalformedInputError("bicrossed group has no attached split")
        return self.split

    def index_of_parent_pair(self, u: int, v: int) -> int | None:
        """Total index of (u, v) for parent elements u ∈ im B, v ∈ im B~.

        Requires the split; returns None when either element lies outside
        its factor.
        """
        split = self.attached_split()
        i = split.g_plus.position(u)
        j = split.g_minus.position(v)
        if i is None or j is None:
            return None
        return i * self.q + j

    def parent_pair(self, w: int) -> tuple[int, int]:
        """Parent elements (u, v) behind a total index; needs the split."""
        split = self.attached_split()
        i, j = self.components(w)
        return split.g_plus.members[i], split.g_minus.members[j]


def bicrossed_group(mp: MatchedPairGroup,
                    split: RBGroupSplit | None = None) -> BicrossedGroup:
    """Build the bicrossed product; the matched-pair axioms are verified
    first and a failure raises rather than building a broken table."""
    axioms = verify_matched_pair_group(mp)
    if not axioms.ok:
        raise AxiomsFailedError(
            "matched-pair axioms fail: "
            + "; ".join(c.name for c in axioms.failures()), axioms)
    gp, gm = mp.g_plus, mp.g_minus
    q = gm.order
    labels = tuple(f"({la},{lb})" for la in gp.labels for lb in gm.labels)

    def mul(w1: int, w2: int) -> int:
        a1, b1 = divmod(w1, q)
        a2, b2 = divmod(w2, q)
        plus = gp.mul(gp.inv(mp.mu[gm.inv(b2)][gp.inv(a1)]), a2)
        minus = gm.mul(b1, mp.rho[a1][b2])
        return plus * q + minus

    size = gp.order * q
    table = tuple(tuple(mul(w1, w2) for w2 in range(size)) for w1 in range(size))
    return BicrossedGroup(mp, FiniteGroup(labels, table), split)


def bicrossed_group_certificates(bc: BicrossedGroup) -> Report:
    """Full group validation of the total table, the per-element inverse
    formula (a,b)⁻¹ = ((μ(b)(a))⁻¹, ρ(a⁻¹)(b⁻¹)), and the two block
    embeddings as homomorphisms."""
    report = Report(subject=f"bicrossed_group(p={bc.p},q={bc.q})")
    report.merge(validate_group(bc.total.table), prefix="total-")

    mp, total, q = bc.pair, bc.total, bc.q
    gp, gm = mp.g_plus, mp.g_minus
    witness = None
    for w in total.elements():
        a, b = divmod(w, q)
        stated = gp.inv(mp.mu[b][a]) * q + mp.rho[gp.inv(a)][gm.inv(b)]
        if total.inv(w) != stated:
            witness = f"element {total.labels[w]}"
            break
    report.add(checked("stated-inverse-formula", "bicrossed-inverse", witness))

    inc_plus = GroupMap(gp, total, tuple(a * q for a in gp.elements()))
    inc_minus = GroupMap(gm, total, tuple(gm.elements()))
    report.add(replace(check_group_homomorphism(inc_plus),
                       name="plus-embedding-homomorphism", anchor="block-embedding"))
    report.add(replace(check_group_homomorphism(inc_minus),
                       name="minus-embedding-homomorphism", anchor="block-embedding"))
    return report


def _preimages(values: tuple[int, ...], n: int) -> dict[int, list[int]]:
    table: dict[int, list[int]] = {}
    for a in range(n):
        table.setdefault(values[a], []).append(a)
    return table


def matched_pair_from_rb_group(
    rbg: RotaBaxterGroup,
) -> tuple[MatchedPairGroup, RBGroupSplit]:
    """The matched pair on (im B, im B~) induced by a Rota-Baxter operator.

    Action values are computed through preimage representatives; every
    preimage is tried and any disagreement raises rather than silently
    canonicalizing one choice.
    """
    g = rbg.group
    split = split_subgroups(rbg)
    bvals = rbg.operator.values
    tvals = split.b_tilde.values
    plus, minus = split.g_plus, split.g_minus
    pre_minus = _preimages(tvals, g.order)

    rho = []
    for u in plus.members:
        row = []
        for v in minus.members:
            value = None
            for b in pre_minus[v]:
                got = tvals[g.conj(u, b)]
                if value is None:
                    value = got
                elif value != got:
                    raise RepresentativeDisagreementError(
                        "plus action depends on the preimage choice",
                        witness=f"acting pair ({g.labels[u]},{g.labels[v]})")
            pos = minus.position(value)
            if pos is None:
                raise RepresentativeDisagreementError(
                    "plus action value escapes the minus factor",
                    witness=f"acting pair ({g.labels[u]},{g.labels[v]})")
            row.append(pos)
        rho.append(tuple(row))

    pre_plus = _preimages(bvals, g.order)
    mu = []
    for v in minus.members:
        row = []
        for u in plus.members:
            value = None
            for b in pre_plus[u]:
                got = bvals[g.conj(v, b)]
                if value is None:
                    value = got
                elif value != got:
                    raise RepresentativeDisagreementError(
                        "minus action depends on the preimage choice",
                        witness=f"acting pair ({g.labels[v]},{g.labels[u]})")
            pos = plus.position(value)
            if pos is None:
                raise RepresentativeDisagreementError(
                    "minus action value escapes the plus factor",
                    witness=f"acting pair ({g.labels[v]},{g.labels[u]})")
            row.append(pos)
        mu.append(tuple(row))

    mp = MatchedPairGroup(plus.induced, minus.induced, tuple(rho), tuple(mu))
    return mp, split


def bicrossed_from_rb_group(rbg: RotaBaxterGroup) -> BicrossedGroup:
    """The bicrossed group of the pair an operator induces, split attached."""
    mp, split = matched_pair_from_rb_group(rbg)
    return bicrossed_group(mp, split)


@dataclass(frozen=True)
class GroupProjection:
    """An idempotent endomorphism of a bicrossed product group."""

    ambient: BicrossedGroup
    operator: GroupMap


def group_projection_check(bc: BicrossedGroup, c: GroupMap) -> Report:
    """Idempotency, the endomorphism property, and the consequence that an
    idempotent endomorphism is a weight −1 Rota-Baxter operator."""
    total = bc.total
    if c.source != total or c.target != total:
        raise MalformedInputError("projection must map the total group to itself")
    report = Report(subject=f"group_projection(order={total.order})")

    witness = None
    for w in total.elements():
        if c.values[c.values[w]] != c.values[w]:
            witness = f"element {total.labels[w]}"
            break
    report.add(checked("idempotent", "projection-idempotency", witness))

    report.add(replace(check_group_homomorphism(c), name="endomorphism",
                       anchor="projection-endomorphism"))
    report.add(replace(check_rb_group(total, c), name="projection-rota-baxter"))
    return report


def canonical_group_projections(
    bc: BicrossedGroup,
) -> tuple[GroupProjection, GroupProjection, Report]:
    """The complementary idempotent pair of the bicrossed group of a
    Rota-Baxter operator, in closed form on parent representatives:

        Ĉ((u,v))           = (B(u⁻¹v⁻¹)⁻¹,        B~(v·u)),
        C~((B(a),B~(b)))   = (B(B~(b)·B~(a⁻¹))⁻¹,  B~(B(a)⁻¹·B(b⁻¹)⁻¹)).

    The first formula reads only the factor elements themselves; the second
    needs representatives a, b and is evaluated on every preimage pair, with
    any disagreement raised.  Both are certified idempotent endomorphisms,
    the pointwise factorization Ĉ(x)·⋈C~(x) = x is checked on every element,
    and every element of im Ĉ is checked to commute with every element of
    im C~.

    ``bc`` is the bicrossed group built with its split attached, as by
    ``bicrossed_from_rb_group``; the operator B is ``bc.split.parent``.
    Without a split it raises ``MalformedInputError``.
    """
    split = bc.attached_split()
    rbg = split.parent
    g = rbg.group
    total = bc.total
    bvals = rbg.operator.values
    tvals = split.b_tilde.values
    plus, minus = split.g_plus, split.g_minus
    q = minus.order
    report = Report(subject=f"group_projections(order={g.order})")

    def locate(u: int, v: int, context: str) -> int:
        i, j = plus.position(u), minus.position(v)
        if i is None or j is None:
            raise RepresentativeDisagreementError(
                f"{context} value escapes the factors",
                witness=f"pair ({g.labels[u]},{g.labels[v]})")
        return i * q + j

    chat_values = []
    for w in total.elements():
        i, j = divmod(w, q)
        u, v = plus.members[i], minus.members[j]
        p_part = g.inv(bvals[g.mul(g.inv(u), g.inv(v))])
        m_part = tvals[g.mul(v, u)]
        chat_values.append(locate(p_part, m_part, "first projection"))

    pre_plus = _preimages(bvals, g.order)
    pre_minus = _preimages(tvals, g.order)
    ct_values = []
    for w in total.elements():
        i, j = divmod(w, q)
        u, v = plus.members[i], minus.members[j]
        value = None
        for a in pre_plus[u]:
            t_ainv = tvals[g.inv(a)]
            b_ainv = g.inv(bvals[a])
            for b in pre_minus[v]:
                p_part = g.inv(bvals[g.mul(tvals[b], t_ainv)])
                m_part = tvals[g.mul(b_ainv, g.inv(bvals[g.inv(b)]))]
                got = locate(p_part, m_part, "second projection")
                if value is None:
                    value = got
                elif value != got:
                    raise RepresentativeDisagreementError(
                        "second projection depends on the representative choice",
                        witness=f"element ({g.labels[u]},{g.labels[v]})")
        ct_values.append(value)

    chat_map = GroupMap(total, total, tuple(chat_values))
    ct_map = GroupMap(total, total, tuple(ct_values))
    report.merge(group_projection_check(bc, chat_map), prefix="first-")
    report.merge(group_projection_check(bc, ct_map), prefix="second-")
    report.add(checked("representative-independence",
                       "projection-representative-independence", None))

    witness = None
    for w in total.elements():
        if total.mul(chat_values[w], ct_values[w]) != w:
            witness = f"element {total.labels[w]}"
            break
    report.add(checked("factorization-recovers-element",
                       "projection-factorization", witness))

    witness = None
    for x in sorted(set(chat_values)):
        for y in sorted(set(ct_values)):
            if total.mul(x, y) != total.mul(y, x):
                witness = f"pair ({total.labels[x]},{total.labels[y]})"
                break
        if witness:
            break
    report.add(checked("images-commute", "image-commutation", witness))

    return GroupProjection(bc, chat_map), GroupProjection(bc, ct_map), report


def rb_from_group_projection(
    bc: BicrossedGroup, proj: GroupProjection,
) -> tuple[RotaBaxterGroup, RotaBaxterGroup, SubgroupStruct, Report]:
    """Weight −1 operators induced on ker C by a group projection C:

        B((a,b)) = C~((a,e')),     B~((a,b)) = C~((e,b)),

    with the complement C~(x) = C(x)⁻¹·x.  Both images must land back in
    ker C; the pair is certified Rota-Baxter and companion to each other."""
    total = bc.total
    c = proj.operator
    if c.source != total or c.target != total:
        raise MalformedInputError("projection must map the total group to itself")
    report = Report(subject=f"rb_from_group_projection(order={total.order})")
    cv = c.values
    ct = tuple(total.mul(total.inv(cv[w]), w) for w in total.elements())
    sub = subgroup_from_members(
        total, {w for w in total.elements() if cv[w] == 0})

    b_vals, bt_vals = [], []
    for m in sub.members:
        i, j = divmod(m, bc.q)
        for image, acc, tag in ((ct[bc.index(i, 0)], b_vals, "plus-part"),
                                (ct[bc.index(0, j)], bt_vals, "minus-part")):
            pos = sub.position(image)
            if pos is None:
                raise NotClosedError(
                    f"{tag} operator image escapes the kernel of the projection",
                    witness=total.labels[image])
            acc.append(pos)
    report.add(checked("images-stay-in-kernel", "kernel-stability", None))

    induced = sub.induced
    b_map = GroupMap(induced, induced, tuple(b_vals))
    bt_map = GroupMap(induced, induced, tuple(bt_vals))
    report.add(replace(check_rb_group(induced, b_map), name="plus-part-rota-baxter"))
    report.add(replace(check_rb_group(induced, bt_map),
                       name="minus-part-rota-baxter"))

    witness = None
    for t in induced.elements():
        if bt_vals[t] != induced.mul(t, b_vals[induced.inv(t)]):
            witness = f"element {induced.labels[t]}"
            break
    report.add(checked("minus-part-is-companion", "companion-consistency",
                       witness))
    return (RotaBaxterGroup(induced, b_map), RotaBaxterGroup(induced, bt_map),
            sub, report)


def iso_second_factor_quotient_group(ct: GroupProjection) -> Report:
    """ā ↦ (B(B~(a⁻¹))⁻¹, B~(B(a)⁻¹)) is a Rota-Baxter isomorphism from the
    quotient of the descendent group by the subgroup its kernels generate
    onto the second factor im C~ with its operator B₂((a,b)) = C~((e,b)).

    ``ct`` is the second projection C~ returned by
    ``canonical_group_projections``; its ambient bicrossed group carries the
    split, whose parent is (G, B) and whose companion map is B~."""
    bc = ct.ambient
    split = bc.attached_split()
    rbg = split.parent
    g = rbg.group
    report = Report(subject=f"second_factor_iso_group(order={g.order})")
    rb_bar, projection, qreport = quotient_rb_group(split)
    report.merge(qreport, prefix="quotient-")

    total = bc.total
    ctv = ct.operator.values
    g2 = subgroup_from_members(total, set(ctv))
    report.add(checked("second-image-subgroup", "subgroup-closure", None))

    b2_vals = []
    witness = None
    for m in g2.members:
        _, j = divmod(m, bc.q)
        pos = g2.position(ctv[bc.index(0, j)])
        if pos is None:
            witness = f"operator value at {total.labels[m]} escapes the factor"
            break
        b2_vals.append(pos)
    report.add(checked("induced-operator-preserves-factor", "factor-stability",
                       witness))
    if witness:
        return report
    b2_map = GroupMap(g2.induced, g2.induced, tuple(b2_vals))
    report.add(replace(check_rb_group(g2.induced, b2_map),
                       name="factor-operator-rota-baxter"))

    bvals = rbg.operator.values
    tvals = split.b_tilde.values
    pi_parent = []
    witness = None
    for a in g.elements():
        p_part = g.inv(bvals[tvals[g.inv(a)]])
        m_part = tvals[g.inv(bvals[a])]
        w = bc.index_of_parent_pair(p_part, m_part)
        pos = None if w is None else g2.position(w)
        if pos is None:
            witness = f"image of {g.labels[a]} misses the factor"
            break
        pi_parent.append(pos)
    report.add(checked("map-lands-in-factor", "graph-containment", witness))
    if witness:
        return report

    quotient = rb_bar.group
    per_coset = [-1] * quotient.order
    witness = None
    for a in g.elements():
        coset = projection.values[a]
        if per_coset[coset] == -1:
            per_coset[coset] = pi_parent[a]
        elif per_coset[coset] != pi_parent[a]:
            witness = (f"representatives of coset {quotient.labels[coset]} "
                       f"disagree at {g.labels[a]}")
            break
    report.add(checked("map-well-defined-on-cosets", "quotient-well-defined",
                       witness))
    if witness:
        return report

    pi = GroupMap(quotient, g2.induced, tuple(per_coset))
    report.add(check_group_homomorphism(pi, "quotient-map-homomorphism"))
    report.add(checked(
        "quotient-map-bijective", "second-factor-isomorphism",
        None if pi.is_bijective() else
        f"map on orders {quotient.order} -> {g2.order} is not a bijection"))

    witness = None
    for coset in quotient.elements():
        if pi.values[rb_bar.operator.values[coset]] != b2_vals[pi.values[coset]]:
            witness = f"intertwining fails at coset {quotient.labels[coset]}"
            break
    report.add(checked("quotient-map-intertwines-operators",
                       "operator-intertwining", witness))
    report.data["quotient_order"] = quotient.order
    report.data["g2_order"] = g2.order
    return report


def induced_mpg_homomorphism(f: GroupMap, src: RotaBaxterGroup,
                             dst: RotaBaxterGroup) -> Report:
    """Restrict a Rota-Baxter group homomorphism to the factors and certify
    it is a homomorphism of the induced matched pairs:

        F₋(ρ(a)(b)) = ρ'(F₊(a))(F₋(b)),    F₊(μ(b)(a)) = μ'(F₋(b))(F₊(a)).
    """
    report = Report(subject="matched_pair_group_homomorphism")
    report.merge(check_rb_group_homomorphism(f, src, dst), prefix="rb-")
    mp_s, split_s = matched_pair_from_rb_group(src)
    mp_d, split_d = matched_pair_from_rb_group(dst)

    restrictions = {}
    for tag, sub_s, sub_d in (("plus", split_s.g_plus, split_d.g_plus),
                              ("minus", split_s.g_minus, split_d.g_minus)):
        values = []
        for m in sub_s.members:
            pos = sub_d.position(f.values[m])
            if pos is None:
                raise NotClosedError(
                    f"map does not send the {tag} factor into its counterpart",
                    witness=f"{tag} member {src.group.labels[m]}")
            values.append(pos)
        restriction = GroupMap(sub_s.induced, sub_d.induced, tuple(values))
        restrictions[tag] = restriction
        report.add(check_group_homomorphism(
            restriction, f"{tag}-restriction-homomorphism"))

    fp = restrictions["plus"].values
    fm = restrictions["minus"].values
    witness = None
    for i in range(mp_s.g_plus.order):
        for j in range(mp_s.g_minus.order):
            if fm[mp_s.rho[i][j]] != mp_d.rho[fp[i]][fm[j]]:
                witness = (f"plus action at ({mp_s.g_plus.labels[i]},"
                           f"{mp_s.g_minus.labels[j]})")
                break
        if witness:
            break
    report.add(checked("plus-action-equivariance",
                       "matched-pair-hom-equivariance", witness))

    witness = None
    for j in range(mp_s.g_minus.order):
        for i in range(mp_s.g_plus.order):
            if fp[mp_s.mu[j][i]] != mp_d.mu[fm[j]][fp[i]]:
                witness = (f"minus action at ({mp_s.g_minus.labels[j]},"
                           f"{mp_s.g_plus.labels[i]})")
                break
        if witness:
            break
    report.add(checked("minus-action-equivariance",
                       "matched-pair-hom-equivariance", witness))
    return report
