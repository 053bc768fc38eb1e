"""Matched pairs of Lie algebras and the bicrossed-product calculus.

A matched pair (g₊, g₋, ▷, ▶) consists of two Lie algebras, a representation
▷ of g₊ on g₋, a representation ▶ of g₋ on g₊, and two mixed compatibility
identities.  The bicrossed product puts a Lie bracket on g₊ ⊕ g₋:

    [(x,u),(y,v)] = ([x,y]₊ + u▶y − v▶x,  [u,v]₋ + x▷v − y▷u).

A weight −1 Rota-Baxter operator B induces such a pair on (im B, im B~) via

    B(x) ▷ B~(y) = B~([B(x), y]),      B~(x) ▶ B(y) = B([B~(x), y]),

and the module builds that pair with exhaustively verified representative
independence, the canonical idempotent projections of the bicrossed algebra,
and the two factor isomorphisms: the first factor is isomorphic to (g, B)
itself, the second to the quotient of the descendent algebra by the sum of
the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import (
    AxiomsFailedError,
    DimensionMismatchError,
    NotClosedError,
    NotComplementaryError,
    RepresentativeDisagreementError,
    WeightUnsupportedError,
)
from .lie import (
    EmbeddedSubalgebra,
    LieAlgebra,
    LieHom,
    TermTable,
    check_homomorphism,
    contract,
    default_labels,
    direct_sum,
    hom_from_images,
    induced_subalgebra,
    term_table,
    validate_lie_algebra,
)
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    image_and_kernel,
    is_zero_vector,
    solve_linear,
    vadd,
    vector,
    vneg,
    vscale,
    vsub,
    vzero,
)
from .rb_lie import (
    RBSplit,
    RotaBaxterLie,
    check_rota_baxter,
    descendent_algebra,
    lemma_suite_lie,
    quotient_rb,
    split_subalgebras,
    tilde_operator,
)
from .reports import Report, checked

ACTION_CONVENTION = (
    "rhd: plus-factor acts on minus-factor; brhd: minus-factor acts on "
    "plus-factor; bracket((x,u),(y,v)) = ([x,y]+ + u.brhd.y - v.brhd.x, "
    "[u,v]- + x.rhd.v - y.rhd.u)")


@dataclass(frozen=True)
class MatchedPairLie:
    """Two algebras with mutual actions, stored as exact tensors.

    rhd[i][a] is the g₋-coordinate vector of (plus basis i) ▷ (minus basis a);
    brhd[a][i] is the g₊-coordinate vector of (minus basis a) ▶ (plus basis i).
    """

    g_plus: LieAlgebra
    g_minus: LieAlgebra
    rhd: tuple[tuple[Vector, ...], ...]
    brhd: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        p, q = self.g_plus.dim, self.g_minus.dim
        if len(self.rhd) != p or any(
                len(row) != q or any(len(v) != q for v in row) for row in self.rhd):
            raise DimensionMismatchError("rhd tensor must be p x q x q")
        if len(self.brhd) != q or any(
                len(row) != p or any(len(v) != p for v in row) for row in self.brhd):
            raise DimensionMismatchError("brhd tensor must be q x p x p")

    @cached_property
    def rhd_terms(self) -> TermTable:
        return term_table(self.rhd)

    @cached_property
    def brhd_terms(self) -> TermTable:
        return term_table(self.brhd)

    def act_plus(self, x: Vector, v: Vector) -> Vector:
        """x ▷ v for x in g₊ coordinates, v in g₋ coordinates."""
        return contract(self.rhd_terms, x, v, self.g_minus.dim)

    def act_minus(self, u: Vector, y: Vector) -> Vector:
        """u ▶ y for u in g₋ coordinates, y in g₊ coordinates."""
        return contract(self.brhd_terms, u, y, self.g_plus.dim)


def zero_actions(g_plus: LieAlgebra, g_minus: LieAlgebra) -> MatchedPairLie:
    """The direct-sum matched pair: both actions vanish."""
    p, q = g_plus.dim, g_minus.dim
    return MatchedPairLie(
        g_plus, g_minus,
        tuple(tuple(vzero(q) for _ in range(q)) for _ in range(p)),
        tuple(tuple(vzero(p) for _ in range(p)) for _ in range(q)))


def verify_matched_pair(mp: MatchedPairLie) -> Report:
    """Representation axioms plus both mixed identities, all basis tuples."""
    report = Report(subject=f"matched_pair(p={mp.g_plus.dim},q={mp.g_minus.dim})")
    gp, gm = mp.g_plus, mp.g_minus
    p, q = gp.dim, gm.dim

    witness = None
    for i in range(p):
        for j in range(p):
            for a in range(q):
                ea = gm.basis_vector(a)
                lhs = mp.act_plus(gp.c[i][j], ea)
                rhs = vsub(mp.act_plus(gp.basis_vector(i), mp.rhd[j][a]),
                           mp.act_plus(gp.basis_vector(j), mp.rhd[i][a]))
                if lhs != rhs:
                    witness = f"plus-action on bracket at (i={i},j={j},a={a})"
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("plus-action-is-representation", "action-representation",
                       witness))

    witness = None
    for a in range(q):
        for b in range(q):
            for i in range(p):
                ei = gp.basis_vector(i)
                lhs = mp.act_minus(gm.c[a][b], ei)
                rhs = vsub(mp.act_minus(gm.basis_vector(a), mp.brhd[b][i]),
                           mp.act_minus(gm.basis_vector(b), mp.brhd[a][i]))
                if lhs != rhs:
                    witness = f"minus-action on bracket at (a={a},b={b},i={i})"
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("minus-action-is-representation", "action-representation",
                       witness))

    # x ▷ [u,v] = [x▷u, v] + [u, x▷v] + (v▶x)▷u − (u▶x)▷v
    witness = None
    for i in range(p):
        xi = gp.basis_vector(i)
        for a in range(q):
            for b in range(q):
                ua, vb = gm.basis_vector(a), gm.basis_vector(b)
                lhs = mp.act_plus(xi, gm.c[a][b])
                rhs = gm.bracket(mp.rhd[i][a], vb)
                rhs = vadd(rhs, gm.bracket(ua, mp.rhd[i][b]))
                rhs = vadd(rhs, mp.act_plus(mp.brhd[b][i], ua))
                rhs = vsub(rhs, mp.act_plus(mp.brhd[a][i], vb))
                if lhs != rhs:
                    witness = f"mixed identity on minus bracket at (i={i},a={a},b={b})"
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("mixed-compatibility-minus-bracket",
                       "matched-pair-compatibility-1", witness))

    # u ▶ [x,y] = [u▶x, y] + [x, u▶y] + (y▷u)▶x − (x▷u)▶y
    witness = None
    for a in range(q):
        ua = gm.basis_vector(a)
        for i in range(p):
            for j in range(p):
                xi, yj = gp.basis_vector(i), gp.basis_vector(j)
                lhs = mp.act_minus(ua, gp.c[i][j])
                rhs = gp.bracket(mp.brhd[a][i], yj)
                rhs = vadd(rhs, gp.bracket(xi, mp.brhd[a][j]))
                rhs = vadd(rhs, mp.act_minus(mp.rhd[j][a], xi))
                rhs = vsub(rhs, mp.act_minus(mp.rhd[i][a], yj))
                if lhs != rhs:
                    witness = f"mixed identity on plus bracket at (a={a},i={i},j={j})"
                    break
            if witness:
                break
        if witness:
            break
    report.add(checked("mixed-compatibility-plus-bracket",
                       "matched-pair-compatibility-2", witness))
    return report


@dataclass(frozen=True)
class BicrossedLie:
    """The bicrossed product algebra on g₊ ⊕ g₋.

    When built from a Rota-Baxter operator the split is attached, linking
    total coordinates back to ambient vectors of the original algebra.
    """

    pair: MatchedPairLie
    total: LieAlgebra
    split: RBSplit | None = None

    @property
    def p(self) -> int:
        return self.pair.g_plus.dim

    @property
    def q(self) -> int:
        return self.pair.g_minus.dim

    def embed(self, plus_coords: Vector, minus_coords: Vector) -> Vector:
        if len(plus_coords) != self.p or len(minus_coords) != self.q:
            raise DimensionMismatchError("component coordinate lengths are wrong")
        return tuple(plus_coords) + tuple(minus_coords)

    def components(self, w: Vector) -> tuple[Vector, Vector]:
        if len(w) != self.p + self.q:
            raise DimensionMismatchError("total coordinate length is wrong")
        return w[:self.p], w[self.p:]

    def embed_ambient_pair(self, plus_ambient: Vector,
                           minus_ambient: Vector) -> Vector | None:
        """Total coordinates of (x, u) for ambient vectors x ∈ g₊, u ∈ g₋.

        Requires the split; returns None when either vector lies outside its
        factor.
        """
        if self.split is None:
            raise DimensionMismatchError("bicrossed algebra has no attached split")
        pc = self.split.g_plus.space.coordinates_of(plus_ambient)
        mc = self.split.g_minus.space.coordinates_of(minus_ambient)
        if pc is None or mc is None:
            return None
        return self.embed(pc, mc)

    def ambient_components(self, w: Vector) -> tuple[Vector, Vector]:
        """Ambient vectors (x, u) of a total coordinate vector; needs the split."""
        if self.split is None:
            raise DimensionMismatchError("bicrossed algebra has no attached split")
        pc, mc = self.components(w)
        return (self.split.g_plus.space.linear_combination(pc),
                self.split.g_minus.space.linear_combination(mc))


def bicrossed_product(mp: MatchedPairLie, split: RBSplit | None = None) -> BicrossedLie:
    """Build the bicrossed product; the matched-pair axioms are verified first."""
    axioms = verify_matched_pair(mp)
    if not axioms.ok:
        raise AxiomsFailedError(
            "matched-pair axioms fail: "
            + "; ".join(c.name for c in axioms.failures()), axioms)
    gp, gm = mp.g_plus, mp.g_minus
    p, q = gp.dim, gm.dim
    n = p + q
    labels = tuple(f"p.{l}" for l in gp.labels) + tuple(f"m.{l}" for l in gm.labels)

    def pad(plus_part: Vector, minus_part: Vector) -> Vector:
        return tuple(plus_part) + tuple(minus_part)

    tensor = [[vzero(n) for _ in range(n)] for _ in range(n)]
    for i in range(p):
        for j in range(p):
            tensor[i][j] = pad(gp.c[i][j], vzero(q))
    for a in range(q):
        for b in range(q):
            tensor[p + a][p + b] = pad(vzero(p), gm.c[a][b])
    for i in range(p):
        for a in range(q):
            plus_part = tuple(-x for x in mp.brhd[a][i])
            minus_part = mp.rhd[i][a]
            tensor[i][p + a] = pad(plus_part, minus_part)
            tensor[p + a][i] = tuple(-x for x in tensor[i][p + a])
    total = LieAlgebra(labels, tuple(tuple(row) for row in tensor))
    return BicrossedLie(mp, total, split)


def bicrossed_certificates(bc: BicrossedLie) -> Report:
    """Jacobi for the total bracket plus block-embedding homomorphism checks."""
    report = Report(subject=f"bicrossed(p={bc.p},q={bc.q})")
    for check in validate_lie_algebra(bc.total).checks:
        report.add(replace(
            check, name=f"total-{check.name}",
            anchor="bicrossed-jacobi" if check.name == "jacobi" else check.anchor))
    p, q, n = bc.p, bc.q, bc.p + bc.q
    inc_plus = LieHom(bc.pair.g_plus, bc.total, Matrix.from_rows(
        [[Fraction(1 if i == j else 0) for j in range(p)] for i in range(n)], p))
    inc_minus = LieHom(bc.pair.g_minus, bc.total, Matrix.from_rows(
        [[Fraction(1 if i == p + a else 0) for a in range(q)] for i in range(n)], q))
    report.add(replace(check_homomorphism(inc_plus),
                       name="plus-embedding-homomorphism", anchor="block-embedding"))
    report.add(replace(check_homomorphism(inc_minus),
                       name="minus-embedding-homomorphism", anchor="block-embedding"))
    return report


def matched_pair_from_rb(rb: RotaBaxterLie) -> tuple[MatchedPairLie, RBSplit]:
    """The matched pair on (im B, im B~) induced by a Rota-Baxter operator.

    Actions are computed through preimage representatives; independence of
    the representative choice is re-verified against every kernel direction
    and any disagreement raises rather than canonicalizing silently.
    """
    if rb.weight == 0:
        raise WeightUnsupportedError("matched pair construction requires weight != 0")
    g = rb.algebra
    split, _ = split_subalgebras(rb)
    b_tilde = split.b_tilde
    plus_space, minus_space = split.g_plus.space, split.g_minus.space
    p, q = plus_space.dim, minus_space.dim

    xs = [solve_linear(rb.operator, u) for u in plus_space.basis_vectors()]
    ys = [solve_linear(b_tilde, v) for v in minus_space.basis_vectors()]
    if any(x is None for x in xs) or any(y is None for y in ys):
        raise RepresentativeDisagreementError(
            "an image basis vector has no preimage; operator data inconsistent")

    for i, u in enumerate(plus_space.basis_vectors()):
        for s, k in enumerate(split.h_plus.basis_vectors()):
            if not is_zero_vector(b_tilde.matvec(g.bracket(u, k))):
                raise RepresentativeDisagreementError(
                    "plus action depends on the preimage choice",
                    witness=f"plus basis {i}, companion-kernel direction {s}")
    for a, v in enumerate(minus_space.basis_vectors()):
        for s, k in enumerate(split.h_minus.basis_vectors()):
            if not is_zero_vector(rb.operator.matvec(g.bracket(v, k))):
                raise RepresentativeDisagreementError(
                    "minus action depends on the preimage choice",
                    witness=f"minus basis {a}, kernel direction {s}")

    rhd = []
    for i, u in enumerate(plus_space.basis_vectors()):
        row = []
        for a in range(q):
            w = b_tilde.matvec(g.bracket(u, ys[a]))
            coords = minus_space.coordinates_of(w)
            if coords is None:
                raise RepresentativeDisagreementError(
                    f"plus action value escapes the minus factor at (i={i},a={a})")
            row.append(coords)
        rhd.append(tuple(row))
    brhd = []
    for a, v in enumerate(minus_space.basis_vectors()):
        row = []
        for i in range(p):
            w = rb.operator.matvec(g.bracket(v, xs[i]))
            coords = plus_space.coordinates_of(w)
            if coords is None:
                raise RepresentativeDisagreementError(
                    f"minus action value escapes the plus factor at (a={a},i={i})")
            row.append(coords)
        brhd.append(tuple(row))

    mp = MatchedPairLie(split.g_plus.algebra, split.g_minus.algebra,
                        tuple(rhd), tuple(brhd))
    return mp, split


def bicrossed_from_rb(rb: RotaBaxterLie) -> BicrossedLie:
    mp, split = matched_pair_from_rb(rb)
    return bicrossed_product(mp, split)


def matched_pair_from_decomposition(g: LieAlgebra, a: Subspace,
                                    b: Subspace) -> MatchedPairLie:
    """The matched pair carried by a vector-space splitting g = a ⊕ b into
    subalgebras: x▷u = p₋[x,u] and u▶x = p₊[x,u]."""
    if a.ambient_dim != g.dim or b.ambient_dim != g.dim:
        raise DimensionMismatchError("subspace ambients do not match the algebra")
    if a.dim + b.dim != g.dim or a.intersect(b).dim != 0:
        raise NotComplementaryError(
            f"subspaces of dims {a.dim} and {b.dim} do not decompose dim {g.dim} "
            f"(intersection dim {a.intersect(b).dim})")
    sub_a = induced_subalgebra(g, a, "p")   # raises NotClosedError if not closed
    sub_b = induced_subalgebra(g, b, "m")

    stacked = Matrix.from_rows(
        [list(v) for v in a.basis_vectors()] + [list(v) for v in b.basis_vectors()],
        g.dim).transpose()

    def project(v: Vector) -> tuple[Vector, Vector]:
        coords = solve_linear(stacked, v)
        assert coords is not None  # spans by complementarity
        return coords[:a.dim], coords[a.dim:]

    rhd = []
    for x in a.basis_vectors():
        row = []
        for u in b.basis_vectors():
            row.append(project(g.bracket(x, u))[1])
        rhd.append(tuple(row))
    brhd = []
    for u in b.basis_vectors():
        row = []
        for x in a.basis_vectors():
            row.append(project(g.bracket(u, x))[0])
        brhd.append(tuple(row))
    return MatchedPairLie(sub_a.algebra, sub_b.algebra, tuple(rhd), tuple(brhd))


def decomposition_round_trip(g: LieAlgebra, a: Subspace, b: Subspace) -> Report:
    """Certify that the bicrossed product of the split pair is isomorphic to
    g through (x, u) ↦ x + u."""
    report = Report(subject="decomposition_round_trip")
    mp = matched_pair_from_decomposition(g, a, b)
    bc = bicrossed_product(mp)
    images = [list(v) for v in a.basis_vectors()] + [list(v) for v in b.basis_vectors()]
    iso = hom_from_images(bc.total, g, images)
    hom_check = check_homomorphism(iso, "sum-map-homomorphism")
    report.add(hom_check)
    report.add(checked("sum-map-bijective", "sum-map-isomorphism",
                       None if iso.is_bijective() else "sum map is singular"))
    return report


def diagonal_embedding_check(rb: RotaBaxterLie, bc: BicrossedLie) -> Report:
    """The image of x ↦ (B(x), B~(x)) brackets as −λ·(B[x,y], B~[x,y]); the
    general two-slot identity is verified on all basis pairs of pairs."""
    g = rb.algebra
    tilde = tilde_operator(rb)
    report = Report(subject="diagonal_embedding")
    n = g.dim

    def iota(x: Vector) -> Vector | None:
        return bc.embed_ambient_pair(rb.apply(x), tilde.apply(x))

    witness = None
    for i in range(n):
        for j in range(n):
            x, y = g.basis_vector(i), g.basis_vector(j)
            wx, wy = iota(x), iota(y)
            if wx is None or wy is None:
                witness = f"diagonal image of basis pair ({i},{j}) escapes"
                break
            lhs = bc.total.bracket(wx, wy)
            bracket = g.bracket(x, y)
            rhs = bc.embed_ambient_pair(
                vscale(-rb.weight, rb.apply(bracket)),
                vscale(-rb.weight, tilde.apply(bracket)))
            if rhs is None or lhs != rhs:
                witness = f"pair ({g.labels[i]},{g.labels[j]})"
                break
        if witness:
            break
    report.add(checked("diagonal-bracket-collapse", "diagonal-embedding-bracket",
                       witness))

    # two-slot identity: [(B(x1),B~(x2)), (B(y1),B~(y2))] expands through B and B~
    witness = None
    for i1 in range(n):
        for i2 in range(n):
            if witness:
                break
            x1, x2 = g.basis_vector(i1), g.basis_vector(i2)
            wx = bc.embed_ambient_pair(rb.apply(x1), tilde.apply(x2))
            for j1 in range(n):
                if witness:
                    break
                for j2 in range(n):
                    y1, y2 = g.basis_vector(j1), g.basis_vector(j2)
                    wy = bc.embed_ambient_pair(rb.apply(y1), tilde.apply(y2))
                    if wx is None or wy is None:
                        witness = f"representative pair escapes at ({i1},{i2},{j1},{j2})"
                        break
                    lhs = bc.total.bracket(wx, wy)
                    plus = g.bracket(rb.apply(x1), rb.apply(y1))
                    plus = vadd(plus, rb.apply(g.bracket(tilde.apply(x2), y1)))
                    plus = vsub(plus, rb.apply(g.bracket(tilde.apply(y2), x1)))
                    minus = g.bracket(tilde.apply(x2), tilde.apply(y2))
                    minus = vadd(minus, tilde.apply(g.bracket(rb.apply(x1), y2)))
                    minus = vsub(minus, tilde.apply(g.bracket(rb.apply(y1), x2)))
                    rhs = bc.embed_ambient_pair(plus, minus)
                    if rhs is None or lhs != rhs:
                        witness = f"representative quadruple ({i1},{i2},{j1},{j2})"
                        break
            if witness:
                break
        if witness:
            break
    report.add(checked("two-slot-bracket-expansion", "representative-bracket-identity",
                       witness))
    return report


@dataclass(frozen=True)
class LieProjection:
    """An idempotent Lie endomorphism of a bicrossed algebra."""

    ambient: BicrossedLie
    matrix: Matrix

    def apply(self, w: Vector) -> Vector:
        return self.matrix.matvec(w)


def is_lie_projection(bc: BicrossedLie, c: Matrix) -> Report:
    """Idempotency plus the endomorphism property, each certified."""
    n = bc.total.dim
    if (c.rows, c.cols) != (n, n):
        raise DimensionMismatchError(f"projection matrix must be {n}x{n}")
    report = Report(subject="lie_projection")
    report.add(checked(
        "idempotent", "projection-idempotency",
        None if c @ c == c else "C squared differs from C"))
    report.add(replace(check_homomorphism(LieHom(bc.total, bc.total, c)),
                       name="endomorphism", anchor="projection-endomorphism"))
    return report


def canonical_projections(bc: BicrossedLie) -> tuple[LieProjection, LieProjection, Report]:
    """The complementary projection pair of the bicrossed algebra of a
    weight −1 operator, in closed form:

        C((u,v))  = (B(u+v),   B~(u+v)),
        C~((u,v)) = (B~u − Bv, Bv − B~u),

    evaluated on the echelon bases.  Closed forms and representative-based
    evaluation are cross-checked against each other, including alternative
    representatives along every kernel direction.

    The cross-check works by linearity.  A representative pair (x1, x2) of
    g ⊕ g names the bicrossed element w(x1, x2) = (B x1, B~ x2), and the
    closed forms predict C w = (B t, B~ t) with t = B x1 + B~ x2 and
    C~ w = (B B~ d, −B B~ d) with d = x1 − x2.  The map w, both predictions,
    and C∘w, C~∘w are linear in (x1, x2), and so are the differences that
    must vanish.  Hence:

    * moving a representative along k ∈ ker B in slot 1 or k' ∈ ker B~ in
      slot 2 leaves w unchanged for every such k, k' exactly when B k = 0
      for each basis vector k of ``split.h_minus`` and B~ k' = 0 for each
      basis vector k' of ``split.h_plus``;
    * w lands in the factors, and both predictions agree with C w and C~ w,
      on all of g ⊕ g exactly when they do on the 2n basis vectors (eᵢ, 0)
      and (0, eᵢ).

    Those checks imply every instance of the pointwise form, which tried
    each ambient basis pair (e_i1, e_i2) with (1 + dim ker B)(1 + dim ker B~)
    perturbed representatives: each such pair lies in the span examined
    here.  The kernel conditions are themselves instances of that form.
    """
    if bc.split is None:
        raise DimensionMismatchError("projections need a bicrossed algebra with split")
    rb = bc.split.parent
    if rb.weight != -1:
        raise WeightUnsupportedError(
            f"projection pair requires weight -1, got {rb.weight}")
    g = rb.algebra
    report = Report(subject="canonical_projections")
    tilde = tilde_operator(rb)
    p, q = bc.p, bc.q
    n = p + q

    cols = []
    for t in range(n):
        if t < p:
            ambient = bc.split.g_plus.space.basis_vectors()[t]
        else:
            ambient = bc.split.g_minus.space.basis_vectors()[t - p]
        col = bc.embed_ambient_pair(rb.apply(ambient), tilde.apply(ambient))
        if col is None:
            raise RepresentativeDisagreementError(
                "projection image escapes the factors; operator data inconsistent")
        cols.append(col)
    c_matrix = Matrix.from_rows(
        [[cols[t][r] for t in range(n)] for r in range(n)], n)
    ct_matrix = Matrix.identity(n) - c_matrix

    proj_c = LieProjection(bc, c_matrix)
    proj_ct = LieProjection(bc, ct_matrix)

    report.merge(is_lie_projection(bc, c_matrix), prefix="first-")
    report.merge(is_lie_projection(bc, ct_matrix), prefix="complement-")
    report.add(checked(
        "sum-is-identity", "projection-partition",
        None if c_matrix + ct_matrix == Matrix.identity(n)
        else "C + C~ differs from the identity"))
    zero = Matrix.zero(n, n)
    report.add(checked(
        "products-vanish", "projection-orthogonality",
        None if c_matrix @ ct_matrix == zero and ct_matrix @ c_matrix == zero
        else "C∘C~ or C~∘C is nonzero"))

    def representative_witness() -> str | None:
        for s, k in enumerate(bc.split.h_minus.basis_vectors()):
            if not is_zero_vector(rb.apply(k)):
                return f"ker B basis vector {s} moves the slot-1 representative"
        for s, k in enumerate(bc.split.h_plus.basis_vectors()):
            if not is_zero_vector(tilde.apply(k)):
                return f"ker B~ basis vector {s} moves the slot-2 representative"
        origin = vzero(g.dim)
        for slot in (1, 2):
            for i in range(g.dim):
                e = g.basis_vector(i)
                x1, x2 = (e, origin) if slot == 1 else (origin, e)
                w = bc.embed_ambient_pair(rb.apply(x1), tilde.apply(x2))
                if w is None:
                    return f"representative {g.labels[i]} in slot {slot} escapes"
                total = vadd(rb.apply(x1), tilde.apply(x2))
                bb = rb.apply(tilde.apply(vsub(x1, x2)))
                if (bc.embed_ambient_pair(rb.apply(total), tilde.apply(total))
                        != c_matrix.matvec(w)
                        or bc.embed_ambient_pair(bb, vneg(bb))
                        != ct_matrix.matvec(w)):
                    return (f"closed form and representative form disagree at "
                            f"{g.labels[i]} in slot {slot}")
        return None

    report.add(checked("representative-independence",
                       "projection-representative-independence",
                       representative_witness()))
    return proj_c, proj_ct, report


def rb_from_projection(
    bc: BicrossedLie, proj: LieProjection
) -> tuple[RotaBaxterLie, RotaBaxterLie, EmbeddedSubalgebra, Report]:
    """Weight −1 operators induced on ker C by a Lie projection C:

        B((x,u)) = C~((x,0)),   B~((x,u)) = C~((0,u)),

    with C~ = id − C.  Both must land back in ker C; the pair is certified
    Rota-Baxter and complementary."""
    report = Report(subject="rb_from_projection")
    n = bc.total.dim
    c = proj.matrix
    ct = Matrix.identity(n) - c
    _, kernel = image_and_kernel(c)
    sub = induced_subalgebra(bc.total, kernel, "k")

    def component_input(w: Vector, keep_plus: bool) -> Vector:
        plus, minus = bc.components(w)
        if keep_plus:
            return bc.embed(plus, vzero(bc.q))
        return bc.embed(vzero(bc.p), minus)

    ops = []
    for keep_plus, tag in ((True, "plus-part"), (False, "minus-part")):
        cols = []
        for w in kernel.basis_vectors():
            image = ct.matvec(component_input(w, keep_plus))
            coords = kernel.coordinates_of(image)
            if coords is None:
                raise NotClosedError(
                    f"{tag} operator image escapes the kernel of the projection",
                    witness=tag)
            cols.append(coords)
        k = kernel.dim
        ops.append(Matrix.from_rows(
            [[cols[t][r] for t in range(k)] for r in range(k)], k))
    b_matrix, bt_matrix = ops
    report.add(checked("images-stay-in-kernel", "kernel-stability", None))

    report.add(replace(check_rota_baxter(sub.algebra, b_matrix, Fraction(-1)),
                       name="plus-part-rota-baxter"))
    report.add(replace(check_rota_baxter(sub.algebra, bt_matrix, Fraction(-1)),
                       name="minus-part-rota-baxter"))
    report.add(checked(
        "operators-sum-to-identity", "weight-minus-one-partition",
        None if b_matrix + bt_matrix == Matrix.identity(kernel.dim)
        else "induced operators do not sum to the identity"))
    rb_plus = RotaBaxterLie(sub.algebra, b_matrix, Fraction(-1))
    rb_minus = RotaBaxterLie(sub.algebra, bt_matrix, Fraction(-1))
    return rb_plus, rb_minus, sub, report


@dataclass(frozen=True)
class Decomposition:
    """The two factors im C and im C~ of a bicrossed algebra."""

    bicrossed: BicrossedLie
    proj_c: LieProjection
    proj_ct: LieProjection
    g1: EmbeddedSubalgebra
    g2: EmbeddedSubalgebra


def decompose_bicrossed(rb: RotaBaxterLie) -> tuple[Decomposition, Report]:
    """Split the bicrossed algebra of a weight −1 operator into the images of
    the canonical projection pair, with the full certificate chain:
    complementarity, vanishing cross bracket, the diagonal shape of the
    second factor, and the intertwining isomorphism onto the direct sum."""
    if rb.weight != -1:
        raise WeightUnsupportedError(
            f"decomposition requires weight -1, got {rb.weight}")
    bc = bicrossed_from_rb(rb)
    report = Report(subject=f"decomposition(dim={rb.dim})")
    report.data["action_convention"] = ACTION_CONVENTION
    report.merge(bicrossed_certificates(bc), prefix="bicrossed-")
    proj_c, proj_ct, proj_report = canonical_projections(bc)
    report.merge(proj_report, prefix="projection-")

    total = bc.total
    n = total.dim
    g1_space, _ = image_and_kernel(proj_c.matrix)
    g2_space, _ = image_and_kernel(proj_ct.matrix)
    g1 = induced_subalgebra(total, g1_space, "a")
    g2 = induced_subalgebra(total, g2_space, "b")

    report.add(checked(
        "factors-complementary", "factor-complementarity",
        None if (g1_space.dim + g2_space.dim == n
                 and g1_space.intersect(g2_space).dim == 0)
        else f"dims {g1_space.dim}+{g2_space.dim} vs {n}, intersection "
             f"{g1_space.intersect(g2_space).dim}"))

    witness = None
    for r, u in enumerate(g1_space.basis_vectors()):
        for s, w in enumerate(g2_space.basis_vectors()):
            if not is_zero_vector(total.bracket(u, w)):
                witness = f"bracket of factor basis vectors ({r},{s}) is nonzero"
                break
        if witness:
            break
    report.add(checked("cross-bracket-vanishes", "factor-cross-bracket", witness))

    inter = bc.split.intersection
    report.add(checked(
        "second-factor-dim-matches-intersection", "second-factor-dimension",
        None if g2_space.dim == inter.dim
        else f"dim g2 = {g2_space.dim} but dim(im B ∩ im B~) = {inter.dim}"))

    witness = None
    for r, w in enumerate(g2_space.basis_vectors()):
        x, u = bc.ambient_components(w)
        if u != vneg(x) or not inter.contains(x):
            witness = f"second-factor basis vector {r} is not of the (x,-x) shape"
            break
    report.add(checked("second-factor-antidiagonal-shape", "second-factor-shape",
                       witness))

    ds = direct_sum(g1.algebra, g2.algebra)
    pi_rows = []
    for t in range(n):
        e = total.basis_vector(t)
        c1 = g1_space.coordinates_of(proj_c.apply(e))
        c2 = g2_space.coordinates_of(proj_ct.apply(e))
        assert c1 is not None and c2 is not None
        pi_rows.append(tuple(c1) + tuple(c2))
    pi = hom_from_images(total, ds, pi_rows)
    hom_check = check_homomorphism(pi, "direct-sum-map-homomorphism")
    report.add(hom_check)
    report.add(checked(
        "direct-sum-map-bijective", "direct-sum-isomorphism",
        None if pi.is_bijective() else "map onto the direct sum is singular"))

    d1, d2 = g1.dim, g2.dim
    p1 = Matrix.from_rows(
        [[Fraction(1 if (i == j and i < d1) else 0) for j in range(d1 + d2)]
         for i in range(d1 + d2)], d1 + d2)
    p2 = Matrix.identity(d1 + d2) - p1
    report.add(checked(
        "map-intertwines-projections", "projection-intertwining",
        None if (pi.matrix @ proj_c.matrix == p1 @ pi.matrix
                 and pi.matrix @ proj_ct.matrix == p2 @ pi.matrix)
        else "pi does not intertwine the projection pair with the block "
             "projections"))

    report.data["g1_dim"] = d1
    report.data["g2_dim"] = d2
    report.data["intersection_dim"] = inter.dim
    return Decomposition(bc, proj_c, proj_ct, g1, g2), report


def iso_first_factor(dec: Decomposition) -> Report:
    """x ↦ (B(x), B~(x)) is a Rota-Baxter isomorphism of (g, B) onto the
    first factor im C with its induced operator B₁((x,u)) = C((x,0)).

    ``dec`` is the decomposition built by ``decompose_bicrossed``; (g, B) is
    the operator its split was taken from."""
    bc = dec.bicrossed
    rb = bc.split.parent
    g = rb.algebra
    tilde = tilde_operator(rb)
    report = Report(subject=f"first_factor_iso(dim={g.dim})")
    g1_space = dec.g1.space

    k = g1_space.dim
    cols = []
    witness = None
    for r, w in enumerate(g1_space.basis_vectors()):
        plus, _ = bc.components(w)
        image = dec.proj_c.apply(bc.embed(plus, vzero(bc.q)))
        coords = g1_space.coordinates_of(image)
        if coords is None:
            witness = f"induced operator escapes the factor at basis vector {r}"
            break
        cols.append(coords)
    report.add(checked("induced-operator-preserves-factor", "factor-stability",
                       witness))
    if witness:
        return report
    b1 = Matrix.from_rows([[cols[t][r] for t in range(k)] for r in range(k)], k)
    report.add(replace(check_rota_baxter(dec.g1.algebra, b1, Fraction(-1)),
                       name="factor-operator-rota-baxter"))

    pi_images = []
    witness = None
    for t in range(g.dim):
        e = g.basis_vector(t)
        w = bc.embed_ambient_pair(rb.apply(e), tilde.apply(e))
        coords = None if w is None else g1_space.coordinates_of(w)
        if coords is None:
            witness = f"graph image of basis vector {g.labels[t]} misses the factor"
            break
        pi_images.append(coords)
    report.add(checked("graph-map-lands-in-factor", "graph-containment", witness))
    if witness:
        return report
    pi = hom_from_images(g, dec.g1.algebra, pi_images)
    hom_check = check_homomorphism(pi, "graph-map-homomorphism")
    report.add(hom_check)
    report.add(checked(
        "graph-map-bijective", "first-factor-isomorphism",
        None if pi.is_bijective() else
        f"graph map rank {pi.matrix.rank()} on dims {g.dim} -> {k}"))
    report.add(checked(
        "graph-map-intertwines-operators", "operator-intertwining",
        None if pi.matrix @ rb.operator == b1 @ pi.matrix
        else "pi∘B differs from B1∘pi"))
    report.data["g1_dim"] = k
    return report


def iso_second_factor_quotient(dec: Decomposition) -> Report:
    """x̄ ↦ (B∘B~(x), −B∘B~(x)) is a Rota-Baxter isomorphism from the
    quotient of the descendent algebra by ker B~ + ker B onto the second
    factor im C~ with its operator B₂((x,u)) = C~((0,u)).

    ``dec`` is the decomposition built by ``decompose_bicrossed``; (g, B) is
    the operator its split was taken from."""
    bc = dec.bicrossed
    rb = bc.split.parent
    g = rb.algebra
    report = Report(subject=f"second_factor_iso(dim={g.dim})")
    rb_bar, proj, quotient_report = quotient_rb(rb)
    report.merge(quotient_report, prefix="quotient-")

    g2_space = dec.g2.space
    k = g2_space.dim
    cols = []
    witness = None
    for r, w in enumerate(g2_space.basis_vectors()):
        _, minus = bc.components(w)
        image = dec.proj_ct.apply(bc.embed(vzero(bc.p), minus))
        coords = g2_space.coordinates_of(image)
        if coords is None:
            witness = f"induced operator escapes the factor at basis vector {r}"
            break
        cols.append(coords)
    report.add(checked("induced-operator-preserves-factor", "factor-stability",
                       witness))
    if witness:
        return report
    b2 = Matrix.from_rows([[cols[t][r] for t in range(k)] for r in range(k)], k)
    report.add(replace(check_rota_baxter(dec.g2.algebra, b2, Fraction(-1)),
                       name="factor-operator-rota-baxter"))

    prod = rb.operator @ rb.tilde_matrix()
    kernel_sum = bc.split.h_plus.add(bc.split.h_minus)
    witness = None
    for s, w in enumerate(kernel_sum.basis_vectors()):
        if not is_zero_vector(prod.matvec(w)):
            witness = f"map does not kill kernel-sum basis vector {s}"
            break
    report.add(checked("map-well-defined-on-cosets", "quotient-well-defined",
                       witness))

    pivot_set = set(kernel_sum.pivots())
    positions = [t for t in range(g.dim) if t not in pivot_set]
    qdim = rb_bar.algebra.dim
    assert len(positions) == qdim
    pi_images = []
    witness = None
    for a, pos in enumerate(positions):
        z = prod.matvec(g.basis_vector(pos))
        w = bc.embed_ambient_pair(z, vneg(z))
        coords = None if w is None else g2_space.coordinates_of(w)
        if coords is None:
            witness = f"image of quotient basis vector {a} misses the factor"
            break
        pi_images.append(coords)
    report.add(checked("map-lands-in-factor", "graph-containment", witness))
    if witness:
        return report
    pi = hom_from_images(rb_bar.algebra, dec.g2.algebra, pi_images)
    hom_check = check_homomorphism(pi, "quotient-map-homomorphism")
    report.add(hom_check)
    report.add(checked(
        "quotient-map-bijective", "second-factor-isomorphism",
        None if pi.is_bijective() else
        f"map rank {pi.matrix.rank()} on dims {qdim} -> {k}"))
    report.add(checked(
        "quotient-map-intertwines-operators", "operator-intertwining",
        None if pi.matrix @ rb_bar.operator == b2 @ pi.matrix
        else "pi∘B-bar differs from B2∘pi"))
    report.data["g2_dim"] = k
    report.data["quotient_dim"] = qdim
    return report


def induced_mp_homomorphism(f: LieHom, src: RotaBaxterLie,
                            dst: RotaBaxterLie) -> Report:
    """Restrict a Rota-Baxter homomorphism to the factors and certify it is a
    homomorphism of the induced matched pairs (equivariance included)."""
    from .rb_lie import check_rb_homomorphism

    report = Report(subject="matched_pair_homomorphism")
    report.merge(check_rb_homomorphism(f, src, dst), prefix="rb-")
    mp_s, split_s = matched_pair_from_rb(src)
    mp_d, split_d = matched_pair_from_rb(dst)

    restrictions = {}
    for tag, sub_s, sub_d in (("plus", split_s.g_plus, split_d.g_plus),
                              ("minus", split_s.g_minus, split_d.g_minus)):
        images = []
        for r, w in enumerate(sub_s.space.basis_vectors()):
            image = f.apply(w)
            coords = sub_d.space.coordinates_of(image)
            if coords is None:
                raise NotClosedError(
                    f"map does not send the {tag} factor into its counterpart",
                    witness=f"{tag} basis vector {r}")
            images.append(coords)
        restriction = hom_from_images(sub_s.algebra, sub_d.algebra, images)
        restrictions[tag] = restriction
        hom_check = check_homomorphism(restriction, f"{tag}-restriction-homomorphism")
        report.add(hom_check)

    f_plus, f_minus = restrictions["plus"], restrictions["minus"]
    witness = None
    for a in range(mp_s.g_minus.dim):
        for i in range(mp_s.g_plus.dim):
            lhs = f_plus.apply(mp_s.brhd[a][i])
            rhs = mp_d.act_minus(f_minus.apply(mp_s.g_minus.basis_vector(a)),
                                 f_plus.apply(mp_s.g_plus.basis_vector(i)))
            if lhs != rhs:
                witness = f"minus-action equivariance fails at (a={a},i={i})"
                break
        if witness:
            break
    report.add(checked("minus-action-equivariance", "matched-pair-hom-equivariance",
                       witness))

    witness = None
    for i in range(mp_s.g_plus.dim):
        for a in range(mp_s.g_minus.dim):
            lhs = f_minus.apply(mp_s.rhd[i][a])
            rhs = mp_d.act_plus(f_plus.apply(mp_s.g_plus.basis_vector(i)),
                                f_minus.apply(mp_s.g_minus.basis_vector(a)))
            if lhs != rhs:
                witness = f"plus-action equivariance fails at (i={i},a={a})"
                break
        if witness:
            break
    report.add(checked("plus-action-equivariance", "matched-pair-hom-equivariance",
                       witness))
    return report
