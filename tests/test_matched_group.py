"""Matched pairs of groups, bicrossed products, projections, isomorphisms."""

import pytest

from rbpair.errors import (
    AxiomsFailedError,
    MalformedInputError,
    NotClosedError,
)
from rbpair.fixtures import census_groups, klein_four, z4_squaring_rb
from rbpair.groups import FiniteGroup, GroupMap, cyclic, direct_product, symmetric3
from rbpair.matched_group import (
    BicrossedGroup,
    GroupProjection,
    MatchedPairGroup,
    bicrossed_from_rb_group,
    bicrossed_group,
    bicrossed_group_certificates,
    canonical_group_projections,
    group_projection_check,
    induced_mpg_homomorphism,
    iso_second_factor_quotient_group,
    matched_pair_from_rb_group,
    rb_from_group_projection,
    trivial_actions,
    verify_matched_pair_group,
)
from rbpair.rb_group import RotaBaxterGroup, enumerate_rb_operators

S3_SEPARATING_VALUES = (0, 0, 3, 3, 4, 4)


def identity_op(g: FiniteGroup) -> RotaBaxterGroup:
    return RotaBaxterGroup(g, GroupMap(g, g, tuple(g.elements())))


def constant_op(g: FiniteGroup) -> RotaBaxterGroup:
    return RotaBaxterGroup(g, GroupMap(g, g, (0,) * g.order))


def projections(rbg: RotaBaxterGroup):
    return canonical_group_projections(bicrossed_from_rb_group(rbg))


def second_factor_iso(rbg: RotaBaxterGroup):
    _, ct, _ = projections(rbg)
    return iso_second_factor_quotient_group(ct)


# ------------------------------------------------------------ verification


def test_trivial_actions_verify():
    report = verify_matched_pair_group(trivial_actions(symmetric3(), cyclic(4)))
    assert report.ok
    names = {c.name for c in report.checks}
    assert names == {
        "plus-action-unital", "plus-action-composition",
        "minus-action-unital", "minus-action-composition",
        "plus-action-fixes-identity", "minus-action-fixes-identity",
        "plus-action-product-rule", "minus-action-product-rule",
    }


def test_corrupted_rho_fails_action_axioms():
    z2 = cyclic(2)
    mp = MatchedPairGroup(z2, z2, ((0, 1), (1, 1)), ((0, 1), (0, 1)))
    report = verify_matched_pair_group(mp)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "plus-action-composition" in failed
    assert "plus-action-fixes-identity" in failed
    by_name = {c.name: c for c in report.checks}
    assert by_name["plus-action-composition"].witness == "triple (1,1,0)"
    assert by_name["plus-action-fixes-identity"].witness == "element 1"
    with pytest.raises(AxiomsFailedError):
        bicrossed_group(mp)


def test_matched_pair_table_shapes_validated():
    z2, z3 = cyclic(2), cyclic(3)
    with pytest.raises(MalformedInputError):
        MatchedPairGroup(z2, z3, ((0, 1, 2),), ((0, 1), (0, 1), (0, 1)))
    with pytest.raises(MalformedInputError):
        MatchedPairGroup(z2, z3, ((0, 1, 2), (0, 1, 3)),
                         ((0, 1), (0, 1), (0, 1)))
    with pytest.raises(MalformedInputError):
        MatchedPairGroup(z2, z3, ((0, 1, 2), (0, 1, 2)),
                         ((0, True), (0, 1), (0, 1)))


# --------------------------------------------------------------- bicrossed


def test_trivial_bicrossed_equals_direct_product():
    z2, z3 = cyclic(2), cyclic(3)
    bc = bicrossed_group(trivial_actions(z2, z3))
    assert bc.total == direct_product(z2, z3)
    s3 = symmetric3()
    bc2 = bicrossed_group(trivial_actions(s3, z2))
    assert bc2.total == direct_product(s3, z2)


def test_bicrossed_certificates_trivial_actions():
    report = bicrossed_group_certificates(
        bicrossed_group(trivial_actions(cyclic(2), cyclic(4))))
    assert report.ok
    names = {c.name for c in report.checks}
    assert "stated-inverse-formula" in names
    assert "plus-embedding-homomorphism" in names
    assert "minus-embedding-homomorphism" in names
    assert "total-associativity" in names


def test_bicrossed_index_helpers():
    bc = bicrossed_group(trivial_actions(cyclic(2), cyclic(3)))
    assert bc.p == 2 and bc.q == 3
    assert bc.index(1, 2) == 5
    assert bc.components(5) == (1, 2)
    with pytest.raises(MalformedInputError):
        bc.index(2, 0)
    with pytest.raises(MalformedInputError):
        bc.components(6)
    with pytest.raises(MalformedInputError):
        bc.index_of_parent_pair(0, 0)   # no split attached


# ------------------------------------------------- pair from an RB operator


def test_matched_pair_from_rb_abelian_is_trivial():
    mp, split = matched_pair_from_rb_group(z4_squaring_rb())
    assert split.g_plus.members == (0, 2)
    assert split.g_minus.members == (0, 1, 2, 3)
    assert mp.rho == tuple(tuple(range(4)) for _ in range(2))
    assert mp.mu == tuple(tuple(range(2)) for _ in range(4))
    assert verify_matched_pair_group(mp).ok


def test_matched_pair_from_rb_identity_operator():
    s3 = symmetric3()
    mp, split = matched_pair_from_rb_group(identity_op(s3))
    assert split.g_minus.members == (0,)
    assert mp.g_minus.order == 1
    bc = bicrossed_group(mp, split)
    assert bc.total.table == s3.table


def test_z4_squaring_bicrossed_is_z2_times_z4():
    bc = bicrossed_from_rb_group(z4_squaring_rb())
    assert bc.total.order == 8
    assert bc.total.table == direct_product(cyclic(2), cyclic(4)).table
    assert bc.split is not None
    assert bc.index_of_parent_pair(2, 3) == 7
    assert bc.parent_pair(7) == (2, 3)
    assert bc.index_of_parent_pair(1, 0) is None


def test_s3_separating_operator_has_nontrivial_action():
    s3 = symmetric3()
    rbg = RotaBaxterGroup(s3, GroupMap(s3, s3, S3_SEPARATING_VALUES))
    mp, split = matched_pair_from_rb_group(rbg)
    assert split.g_plus.members == (0, 3, 4)
    assert split.g_minus.members == (0, 1)
    assert mp.rho == ((0, 1), (0, 1), (0, 1))
    assert mp.mu == ((0, 1, 2), (0, 2, 1))
    assert verify_matched_pair_group(mp).ok
    certs = bicrossed_group_certificates(bicrossed_group(mp, split))
    assert certs.ok


@pytest.mark.parametrize("g", census_groups()[:6],
                         ids=lambda g: f"order{g.order}")
def test_census_pairs_verify_and_bicross(g):
    for op in enumerate_rb_operators(g):
        mp, split = matched_pair_from_rb_group(RotaBaxterGroup(g, op))
        assert verify_matched_pair_group(mp).ok
        assert bicrossed_group_certificates(bicrossed_group(mp, split)).ok


# -------------------------------------------------------------- projections


def test_group_projection_check_identity_and_constant():
    bc = bicrossed_from_rb_group(z4_squaring_rb())
    n = bc.total.order
    identity = GroupMap(bc.total, bc.total, tuple(range(n)))
    assert group_projection_check(bc, identity).ok
    constant = GroupMap(bc.total, bc.total, (0,) * n)
    assert group_projection_check(bc, constant).ok


def test_group_projection_check_swap_fails_idempotency():
    bc = bicrossed_group(trivial_actions(cyclic(2), cyclic(2)))
    swap = GroupMap(bc.total, bc.total, (0, 2, 1, 3))
    report = group_projection_check(bc, swap)
    assert not report.ok
    assert {c.name for c in report.failures()} == {"idempotent"}
    by_name = {c.name: c for c in report.checks}
    assert by_name["endomorphism"].holds
    assert by_name["projection-rota-baxter"].holds


def test_group_projection_check_non_endomorphism():
    bc = bicrossed_group(trivial_actions(cyclic(2), cyclic(2)))
    report = group_projection_check(
        bc, GroupMap(bc.total, bc.total, (0, 0, 0, 3)))
    assert not report.ok
    assert "endomorphism" in {c.name for c in report.failures()}


def test_group_projection_check_wrong_endpoints():
    bc = bicrossed_group(trivial_actions(cyclic(2), cyclic(2)))
    z2 = cyclic(2)
    with pytest.raises(MalformedInputError):
        group_projection_check(bc, GroupMap(z2, z2, (0, 1)))


def test_canonical_projections_z4_squaring_frozen_tables():
    chat, ct, report = projections(z4_squaring_rb())
    assert report.ok
    assert chat.operator.values == (0, 7, 2, 5, 2, 5, 0, 7)
    assert ct.operator.values == (0, 6, 0, 6, 6, 0, 6, 0)
    assert sorted(set(ct.operator.values)) == [0, 6]
    names = {c.name for c in report.checks}
    assert "first-idempotent" in names
    assert "second-projection-rota-baxter" in names
    assert "factorization-recovers-element" in names
    assert "images-commute" in names
    assert "representative-independence" in names


def test_canonical_projections_identity_operator():
    z2 = cyclic(2)
    chat, ct, report = projections(identity_op(z2))
    assert report.ok
    assert chat.ambient.total.order == 2
    assert chat.operator.values == (0, 1)
    assert ct.operator.values == (0, 0)


def test_canonical_projections_constant_operator():
    s3 = symmetric3()
    chat, ct, report = projections(constant_op(s3))
    assert report.ok
    assert chat.ambient.total.order == 6
    assert chat.operator.values == (0, 1, 2, 3, 4, 5)
    assert ct.operator.values == (0,) * 6


@pytest.mark.parametrize("g", (cyclic(4), klein_four(), symmetric3()),
                         ids=("z4", "klein", "s3"))
def test_canonical_projections_census(g):
    for op in enumerate_rb_operators(g):
        _, _, report = projections(RotaBaxterGroup(g, op))
        assert report.ok, report.failures()


def test_canonical_projections_need_the_split():
    bc = bicrossed_group(trivial_actions(cyclic(2), cyclic(2)))
    with pytest.raises(MalformedInputError):
        canonical_group_projections(bc)


# ------------------------------------------------ operators from projections


def test_rb_from_projection_constant_map():
    bc = bicrossed_from_rb_group(z4_squaring_rb())
    proj_map = GroupMap(bc.total, bc.total, (0,) * 8)
    rb_plus, rb_minus, sub, report = rb_from_group_projection(
        bc, GroupProjection(bc, proj_map))
    assert report.ok
    assert sub.members == tuple(range(8))
    assert rb_plus.operator.values == (0, 0, 0, 0, 4, 4, 4, 4)
    assert rb_minus.operator.values == (0, 1, 2, 3, 0, 1, 2, 3)


def test_rb_from_projection_identity_map():
    bc = bicrossed_from_rb_group(z4_squaring_rb())
    identity = GroupProjection(bc, GroupMap(bc.total, bc.total, tuple(range(8))))
    rb_plus, rb_minus, sub, report = rb_from_group_projection(bc, identity)
    assert report.ok
    assert sub.members == (0,)
    assert rb_plus.group.order == 1
    assert rb_minus.operator.values == (0,)


def test_rb_from_projection_canonical_first():
    chat, _, _ = projections(z4_squaring_rb())
    rb_plus, rb_minus, sub, report = rb_from_group_projection(chat.ambient, chat)
    assert report.ok
    assert sub.members == (0, 6)
    assert rb_plus.operator.values == (0, 1)
    assert rb_minus.operator.values == (0, 0)


def test_rb_from_projection_escaping_image_raises():
    bc = bicrossed_from_rb_group(z4_squaring_rb())
    not_projection = GroupProjection(bc, GroupMap(bc.total, bc.total, (6,) * 8))
    with pytest.raises(NotClosedError):
        rb_from_group_projection(bc, not_projection)


# --------------------------------------------------- quotient isomorphism


def test_iso_second_factor_z4_squaring():
    report = second_factor_iso(z4_squaring_rb())
    assert report.ok
    assert report.data["quotient_order"] == 2
    assert report.data["g2_order"] == 2
    names = {c.name for c in report.checks}
    for expected in ("second-image-subgroup", "factor-operator-rota-baxter",
                     "map-lands-in-factor", "map-well-defined-on-cosets",
                     "quotient-map-homomorphism", "quotient-map-bijective",
                     "quotient-map-intertwines-operators"):
        assert expected in names, expected


@pytest.mark.parametrize("make", (identity_op, constant_op),
                         ids=("identity", "constant"))
def test_iso_second_factor_trivial_cases(make):
    report = second_factor_iso(make(symmetric3()))
    assert report.ok
    assert report.data["quotient_order"] == 1
    assert report.data["g2_order"] == 1


@pytest.mark.parametrize("g", (cyclic(4), klein_four(), symmetric3()),
                         ids=("z4", "klein", "s3"))
def test_iso_second_factor_census(g):
    for op in enumerate_rb_operators(g):
        report = second_factor_iso(RotaBaxterGroup(g, op))
        assert report.ok, (op.values, report.failures())


# ------------------------------------------------------------ homomorphisms


def test_induced_mpg_identity_map():
    rbg = z4_squaring_rb()
    f = GroupMap(rbg.group, rbg.group, tuple(rbg.group.elements()))
    report = induced_mpg_homomorphism(f, rbg, rbg)
    assert report.ok
    names = {c.name for c in report.checks}
    assert "plus-action-equivariance" in names
    assert "minus-action-equivariance" in names
    assert "plus-restriction-homomorphism" in names


def test_induced_mpg_constant_to_trivial():
    rbg = z4_squaring_rb()
    c1 = cyclic(1)
    dst = RotaBaxterGroup(c1, GroupMap(c1, c1, (0,)))
    f = GroupMap(rbg.group, c1, (0, 0, 0, 0))
    assert induced_mpg_homomorphism(f, rbg, dst).ok


def test_induced_mpg_mod_two_reduction():
    rbg = z4_squaring_rb()
    z2 = cyclic(2)
    dst = constant_op(z2)
    f = GroupMap(rbg.group, z2, (0, 1, 0, 1))
    report = induced_mpg_homomorphism(f, rbg, dst)
    assert report.ok


def test_induced_mpg_non_homomorphism_reported():
    rbg = z4_squaring_rb()
    f = GroupMap(rbg.group, rbg.group, (0, 0, 0, 1))
    report = induced_mpg_homomorphism(f, rbg, rbg)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "rb-group-homomorphism" in failed
    assert "minus-restriction-homomorphism" in failed


def test_induced_mpg_restriction_escape_raises():
    z2 = cyclic(2)
    src, dst = identity_op(z2), constant_op(z2)
    f = GroupMap(z2, z2, (0, 1))
    with pytest.raises(NotClosedError):
        induced_mpg_homomorphism(f, src, dst)
