"""Weight -1 operators on finite groups: verification, companion, descendent
group, splits, quotients, enumeration, and the elementwise lemma suite."""

from itertools import product

import pytest

from rbpair import rb_group
from rbpair.errors import (
    MalformedInputError,
    OrderBoundExceededError,
)
from rbpair.fixtures import census_groups, klein_four, z4_squaring_rb
from rbpair.groups import (
    GroupMap,
    cyclic,
    dihedral,
    direct_product,
    quaternion8,
    symmetric3,
    validate_group,
)
from rbpair.rb_group import (
    ORDER_BOUND_ENV,
    RotaBaxterGroup,
    check_rb_group,
    check_rb_group_homomorphism,
    descendent_group,
    enumerate_rb_operators,
    lemma_suite_group,
    quotient_rb_group,
    split_subgroups,
    tilde_map,
    tilde_rb_group,
)


def identity_op(g) -> RotaBaxterGroup:
    return RotaBaxterGroup(g, GroupMap(g, g, tuple(range(g.order))))


def constant_op(g) -> RotaBaxterGroup:
    return RotaBaxterGroup(g, GroupMap(g, g, (0,) * g.order))


# An operator on S3 sending both transpositions (021), (102) to e... found by
# enumeration; it separates the two conjugation conventions for the
# descendent inverse.
S3_SEPARATING_VALUES = (0, 0, 3, 3, 4, 4)


class TestCheckRBGroup:
    @pytest.mark.parametrize("g", census_groups(), ids=lambda g: f"order{g.order}")
    def test_identity_operator_passes(self, g):
        assert check_rb_group(g, identity_op(g).operator).holds

    @pytest.mark.parametrize("g", census_groups(), ids=lambda g: f"order{g.order}")
    def test_constant_operator_passes(self, g):
        assert check_rb_group(g, constant_op(g).operator).holds

    def test_swap_on_z2_fails_at_identity_pair(self):
        z2 = cyclic(2)
        check = check_rb_group(z2, GroupMap(z2, z2, (1, 0)))
        assert not check.holds
        assert check.witness == "pair (0,0)"

    def test_z4_squaring_passes(self):
        rbg = z4_squaring_rb()
        assert check_rb_group(rbg.group, rbg.operator).holds

    def test_separating_s3_operator_is_valid(self):
        s3 = symmetric3()
        assert check_rb_group(s3, GroupMap(s3, s3, S3_SEPARATING_VALUES)).holds

    def test_endpoint_mismatch_raises(self):
        with pytest.raises(MalformedInputError):
            check_rb_group(cyclic(2), GroupMap(cyclic(4), cyclic(4), (0, 1, 2, 3)))

    def test_operator_must_map_group_to_itself(self):
        with pytest.raises(MalformedInputError):
            RotaBaxterGroup(cyclic(2), GroupMap(cyclic(4), cyclic(4), (0, 0, 0, 0)))


class TestCompanion:
    def test_identity_gives_constant(self):
        s3 = symmetric3()
        assert tilde_map(identity_op(s3)).values == (0,) * 6

    def test_constant_gives_identity(self):
        s3 = symmetric3()
        assert tilde_map(constant_op(s3)).values == tuple(range(6))

    def test_z4_squaring_gives_inversion(self):
        assert tilde_map(z4_squaring_rb()).values == (0, 3, 2, 1)

    def test_companion_is_rota_baxter(self):
        rbg = z4_squaring_rb()
        tilde = tilde_rb_group(rbg)
        assert check_rb_group(tilde.group, tilde.operator).holds

    def test_companion_is_involutive(self):
        s3 = symmetric3()
        for values in [S3_SEPARATING_VALUES, tuple(range(6)), (0,) * 6]:
            rbg = RotaBaxterGroup(s3, GroupMap(s3, s3, values))
            assert tilde_map(tilde_rb_group(rbg)).values == values


class TestDescendentGroup:
    def test_abelian_descendent_is_unchanged(self):
        rbg = z4_squaring_rb()
        assert descendent_group(rbg).table == rbg.group.table

    def test_identity_operator_descendent_is_unchanged(self):
        s3 = symmetric3()
        assert descendent_group(identity_op(s3)).table == s3.table

    def test_labels_preserved(self):
        s3 = symmetric3()
        rbg = RotaBaxterGroup(s3, GroupMap(s3, s3, S3_SEPARATING_VALUES))
        assert descendent_group(rbg).labels == s3.labels

    def test_every_s3_descendent_is_a_group(self):
        s3 = symmetric3()
        for op in enumerate_rb_operators(s3, mode="pruned"):
            desc = descendent_group(RotaBaxterGroup(s3, op))
            assert validate_group(desc.table).ok


class TestSplitSubgroups:
    def test_identity_operator_split(self):
        s3 = symmetric3()
        split = split_subgroups(identity_op(s3))
        report = split.report
        assert report.ok
        assert split.g_plus.members == tuple(range(6))
        assert split.g_minus.members == (0,)
        assert split.h_plus.members == tuple(range(6))  # kernel of constant
        assert split.h_minus.members == (0,)

    def test_constant_operator_split(self):
        s3 = symmetric3()
        split = split_subgroups(constant_op(s3))
        report = split.report
        assert report.ok
        assert split.g_plus.members == (0,)
        assert split.g_minus.members == tuple(range(6))
        assert split.h_plus.members == (0,)
        assert split.h_minus.members == tuple(range(6))

    def test_z4_squaring_split(self):
        split = split_subgroups(z4_squaring_rb())
        report = split.report
        assert report.ok
        assert split.g_plus.members == (0, 2)
        assert split.g_minus.members == (0, 1, 2, 3)
        assert split.h_plus.members == (0,)
        assert split.h_minus.members == (0, 2)

    def test_report_check_names(self):
        report = split_subgroups(z4_squaring_rb()).report
        names = {c.name for c in report.checks}
        assert "companion-kernel-normal-in-operator-image" in names
        assert "operator-kernel-inside-companion-image" in names


class TestQuotient:
    def test_z4_squaring_quotient(self):
        quotient_rbg, projection, report = quotient_rb_group(
            split_subgroups(z4_squaring_rb()))
        assert report.ok
        assert quotient_rbg.group.order == 2
        assert quotient_rbg.group.labels == ("[0]", "[1]")
        assert quotient_rbg.operator.values == (0, 0)  # constant-identity
        assert projection.values == (0, 1, 0, 1)

    def test_identity_operator_quotient_is_trivial(self):
        s3 = symmetric3()
        quotient_rbg, _, report = quotient_rb_group(split_subgroups(identity_op(s3)))
        assert report.ok
        assert quotient_rbg.group.order == 1

    def test_constant_operator_quotient_is_trivial(self):
        s3 = symmetric3()
        quotient_rbg, _, report = quotient_rb_group(split_subgroups(constant_op(s3)))
        assert report.ok
        assert quotient_rbg.group.order == 1


class TestEnumeration:
    @pytest.mark.parametrize(
        "g,count",
        [
            (cyclic(2), 2),
            (cyclic(3), 3),
            (cyclic(4), 4),
            (klein_four(), 16),
            (cyclic(6), 6),
            (symmetric3(), 8),
            (cyclic(8), 8),
            (dihedral(4), 56),
            (quaternion8(), 8),
        ],
        ids=["z2", "z3", "z4", "klein", "z6", "s3", "z8", "d4", "q8"],
    )
    def test_operator_counts(self, g, count):
        ops = enumerate_rb_operators(g, mode="pruned")
        assert len(ops) == count
        for op in ops:
            assert check_rb_group(g, op).holds

    def test_z2_exact_values(self):
        ops = enumerate_rb_operators(cyclic(2), mode="naive")
        assert [op.values for op in ops] == [(0, 0), (0, 1)]

    def test_z4_exact_values(self):
        ops = enumerate_rb_operators(cyclic(4), mode="pruned")
        assert [op.values for op in ops] == [
            (0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1)]

    @pytest.mark.parametrize(
        "g",
        [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(5), cyclic(6),
         symmetric3()],
        ids=lambda g: f"order{g.order}",
    )
    def test_naive_equals_pruned_up_to_order_six(self, g):
        naive = [op.values for op in enumerate_rb_operators(g, mode="naive")]
        pruned = [op.values for op in enumerate_rb_operators(g, mode="pruned")]
        assert naive == pruned

    @pytest.mark.parametrize(
        "g",
        [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(6)],
        ids=lambda g: f"order{g.order}",
    )
    def test_abelian_operators_are_exactly_the_endomorphisms(self, g):
        # Independent oracle: filter all maps by the homomorphism law alone.
        n = g.order
        endos = sorted(
            (0,) + rest
            for rest in product(range(n), repeat=n - 1)
            if all(
                ((0,) + rest)[g.mul(a, b)] == g.mul(((0,) + rest)[a],
                                                    ((0,) + rest)[b])
                for a in range(n) for b in range(n))
        )
        ops = [op.values for op in enumerate_rb_operators(g, mode="pruned")]
        assert ops == endos

    def test_z8_matches_closed_form_cyclic_endomorphisms(self):
        expected = sorted(tuple((c * a) % 8 for a in range(8)) for c in range(8))
        ops = [op.values for op in enumerate_rb_operators(cyclic(8), mode="pruned")]
        assert ops == expected

    @pytest.mark.slow
    def test_z8_naive_agrees_with_pruned(self):
        naive = [op.values for op in enumerate_rb_operators(cyclic(8), mode="naive")]
        pruned = [op.values for op in enumerate_rb_operators(cyclic(8), mode="pruned")]
        assert naive == pruned

    def test_output_is_sorted(self):
        values = [op.values for op in
                  enumerate_rb_operators(dihedral(4), mode="pruned")]
        assert values == sorted(values)

    def test_trivial_group(self):
        ops = enumerate_rb_operators(cyclic(1))
        assert [op.values for op in ops] == [(0,)]

    def test_order_bound_enforced(self):
        with pytest.raises(OrderBoundExceededError):
            enumerate_rb_operators(direct_product(cyclic(4), cyclic(4)))

    def test_order_bound_lowered_by_env(self, monkeypatch):
        monkeypatch.setenv(ORDER_BOUND_ENV, "4")
        with pytest.raises(OrderBoundExceededError):
            enumerate_rb_operators(cyclic(6))

    def test_order_bound_raised_by_env(self, monkeypatch):
        monkeypatch.setenv(ORDER_BOUND_ENV, "16")
        ops = enumerate_rb_operators(cyclic(16), mode="pruned")
        assert len(ops) == 16  # endomorphisms of a cyclic group

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(ORDER_BOUND_ENV, "twelve")
        with pytest.raises(MalformedInputError):
            enumerate_rb_operators(cyclic(2))

    def test_invalid_mode_raises(self):
        with pytest.raises(MalformedInputError):
            enumerate_rb_operators(cyclic(2), mode="heuristic")

    def test_zero_jobs_raises(self):
        with pytest.raises(MalformedInputError):
            enumerate_rb_operators(cyclic(2), jobs=0)

    def test_parallel_results_identical(self):
        s3 = symmetric3()
        sequential = [op.values for op in
                      enumerate_rb_operators(s3, mode="pruned", jobs=1)]
        parallel = [op.values for op in
                    enumerate_rb_operators(s3, mode="pruned", jobs=2)]
        assert sequential == parallel

    def test_parallel_naive_identical(self):
        klein = klein_four()
        sequential = [op.values for op in
                      enumerate_rb_operators(klein, mode="naive", jobs=1)]
        parallel = [op.values for op in
                    enumerate_rb_operators(klein, mode="naive", jobs=2)]
        assert sequential == parallel

    def test_jobs_capped_at_root_count(self, monkeypatch):
        # a serial stand-in records the pool size; no real pool is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(rb_group, "ProcessPoolExecutor", SerialPool)
        s3 = symmetric3()
        expected = [op.values for op in enumerate_rb_operators(s3)]
        for jobs, size in ((100_000, 6), (6, 6), (2, 2)):
            got = [op.values for op in enumerate_rb_operators(s3, jobs=jobs)]
            assert got == expected
            assert sizes.pop() == size


class TestLemmaSuite:
    def test_z4_squaring_suite_passes(self):
        report = lemma_suite_group(z4_squaring_rb())
        assert report.ok
        names = [c.name for c in report.checks]
        for expected in [
            "rota-baxter",
            "identity-fixed",
            "descendent-inverse-maps-to-inverse",
            "operator-times-companion-inverse",
            "operator-from-companion-roundtrip",
            "companion-of-image-exchange",
            "companion-involution",
            "companion-rota-baxter",
            "cross-product-inversion-rule",
            "operator-rota-baxter-on-descendent",
            "operator-descendent-to-parent-homomorphism",
        ]:
            assert expected in names

    def test_stated_inversion_rule_fails_on_identity_op_nonabelian(self):
        report = lemma_suite_group(identity_op(symmetric3()))
        assert report.ok  # the stated rule is informational
        stated = next(c for c in report.checks
                      if c.name == "same-product-inversion-rule")
        assert not stated.holds
        assert not stated.required

    def test_stated_twisted_inverse_fails_on_separating_operator(self):
        s3 = symmetric3()
        rbg = RotaBaxterGroup(s3, GroupMap(s3, s3, S3_SEPARATING_VALUES))
        report = lemma_suite_group(rbg)
        assert report.ok
        stated = next(c for c in report.checks
                      if c.name == "stated-twisted-inverse-maps-to-inverse")
        assert not stated.holds
        corrected = next(c for c in report.checks
                         if c.name == "descendent-inverse-maps-to-inverse")
        assert corrected.holds

    def test_abelian_suite_passes_with_stated_rules_holding(self):
        report = lemma_suite_group(z4_squaring_rb())
        stated = next(c for c in report.checks
                      if c.name == "same-product-inversion-rule")
        assert stated.holds  # abelian: both inversion rules coincide

    @pytest.mark.parametrize(
        "g", [g for g in census_groups() if g.order <= 6],
        ids=lambda g: f"order{g.order}")
    def test_required_checks_hold_for_every_operator(self, g):
        for op in enumerate_rb_operators(g, mode="pruned"):
            report = lemma_suite_group(RotaBaxterGroup(g, op))
            assert report.ok, (op.values, [c.name for c in report.failures()])


class TestRBGroupHomomorphism:
    def test_reduction_mod_two_intertwines(self):
        src = z4_squaring_rb()
        z2 = cyclic(2)
        dst = RotaBaxterGroup(z2, GroupMap(z2, z2, (0, 0)))
        f = GroupMap(src.group, z2, (0, 1, 0, 1))
        report = check_rb_group_homomorphism(f, src, dst)
        assert report.ok

    def test_non_intertwining_map_fails(self):
        src = z4_squaring_rb()
        z4 = src.group
        dst = identity_op(z4)
        f = GroupMap(z4, z4, (0, 1, 2, 3))
        report = check_rb_group_homomorphism(f, src, dst)
        assert not report.ok
        assert report.failures()[0].name == "operator-intertwining"

    def test_endpoint_mismatch_raises(self):
        src = z4_squaring_rb()
        z2 = cyclic(2)
        dst = RotaBaxterGroup(z2, GroupMap(z2, z2, (0, 0)))
        with pytest.raises(MalformedInputError):
            check_rb_group_homomorphism(GroupMap(z2, z2, (0, 1)), src, dst)
