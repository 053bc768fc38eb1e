"""Acceptance gate: one test per required behavior, with time budgets.

Each test prints one ``ACCEPTANCE <n> <label>: PASS/FAIL`` line so the run
log shows the verdict per criterion at a glance.  Budgets use wall-clock
time; exceeding a stated budget fails the criterion even if every
certificate holds.
"""

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

from rbpair import io
from rbpair.cli import _operator_suite_witness, main
from rbpair.fixtures import (
    abelian1_half_rb,
    abelian2_half_rb,
    aff1,
    census_groups,
    heisenberg,
    sl2_projection_rb,
    z4_squaring_rb,
)
from rbpair.groups import validate_group
from rbpair.linalg import Matrix
from rbpair.matched_lie import (
    bicrossed_certificates,
    bicrossed_from_rb,
    canonical_projections,
    decompose_bicrossed,
    decomposition_round_trip,
    iso_first_factor,
    iso_second_factor_quotient,
    matched_pair_from_decomposition,
    matched_pair_from_rb,
    rb_from_projection,
    verify_matched_pair,
)
from rbpair.quadratic import (
    check_compatibility,
    cotangent_fixture,
    manin_triple,
    quadratic_decompose,
    validate_quadratic,
)
from rbpair.rb_group import (
    RotaBaxterGroup,
    descendent_group,
    enumerate_rb_operators,
)
from rbpair.rb_lie import RotaBaxterLie, quotient_rb


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget}s")
        ok = True
    finally:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number} {label}: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def projection_rb(algebra, diagonal) -> RotaBaxterLie:
    n = algebra.dim
    rows = [[1 if (i == j and diagonal[i]) else 0 for j in range(n)]
            for i in range(n)]
    return RotaBaxterLie(algebra, Matrix.from_rows(rows, n), Fraction(-1))


def test_acceptance_1_full_chain_on_projection_operator():
    with criterion(1, "full-chain-projection-split", budget=1.0):
        rb = sl2_projection_rb()
        mp, _split = matched_pair_from_rb(rb)
        assert verify_matched_pair(mp).ok
        bc = bicrossed_from_rb(rb)
        assert bicrossed_certificates(bc).ok
        dec, report = decompose_bicrossed(rb)
        assert report.ok
        assert report.data["g1_dim"] == 3
        assert report.data["g2_dim"] == 0
        assert report.data["intersection_dim"] == 0
        assert iso_first_factor(dec).ok
        second = iso_second_factor_quotient(dec)
        assert second.ok
        assert second.data["quotient_dim"] == 0


def test_acceptance_2_half_operator_quotient_line():
    with criterion(2, "half-operator-quotient-line", budget=1.0):
        rb = abelian2_half_rb()
        bc = bicrossed_from_rb(rb)
        assert bc.total.dim == 3
        dec, report = decompose_bicrossed(rb)
        assert report.ok
        assert report.data["g2_dim"] == 1
        quotient, _proj, q_report = quotient_rb(rb)
        assert q_report.ok
        assert quotient.algebra.dim == 1
        assert quotient.operator.entries == ((Fraction(1, 2),),)
        assert iso_first_factor(dec).ok


def test_acceptance_3_cotangent_quadratic_suite():
    with criterion(3, "cotangent-quadratic-suite", budget=1.0):
        q = cotangent_fixture(aff1())
        assert validate_quadratic(q.rb.algebra, q.form).ok
        assert check_compatibility(q).ok
        _triple, m_report = manin_triple(q)
        assert m_report.ok
        names = {c.name for c in m_report.checks}
        assert {"induced-form-symmetric", "induced-form-nondegenerate",
                "induced-form-invariant", "plus-block-isotropic",
                "minus-block-isotropic"} <= names
        assert m_report.data["isotropy"] == {"plus": True, "minus": True}
        full = quadratic_decompose(q)
        assert full.ok
        assert "cross-block-orthogonal" in {c.name for c in full.checks}


def test_acceptance_4_census_dual_route():
    with criterion(4, "census-dual-route", budget=10.0):
        panel = census_groups()
        for group, want in zip(panel[:4], (2, 3, 4, 16)):
            pruned = enumerate_rb_operators(group, mode="pruned")
            naive = enumerate_rb_operators(group, mode="naive")
            assert len(pruned) == want
            blob_p = io.dump_json(
                {"operators": [list(m.values) for m in pruned]})
            blob_n = io.dump_json(
                {"operators": [list(m.values) for m in naive]})
            assert blob_p.encode() == blob_n.encode()

            # independent oracle: on an abelian group the weight -1
            # operators are exactly the endomorphisms
            n = group.order
            endos = 0
            for tail in itertools.product(range(n), repeat=n - 1):
                values = (0,) + tail
                if all(values[group.mul(a, b)]
                       == group.mul(values[a], values[b])
                       for a in range(n) for b in range(n)):
                    endos += 1
            assert endos == len(pruned)


def test_acceptance_5_universal_group_suite():
    with criterion(5, "universal-group-suite", budget=300.0):
        expected_counts = (2, 3, 4, 16, 6, 8, 8, 56, 8)
        total = 0
        for group, want in zip(census_groups(), expected_counts):
            operators = enumerate_rb_operators(group, mode="pruned")
            assert len(operators) == want
            total += want
            for op in operators:
                rbg = RotaBaxterGroup(group, op)
                assert validate_group(descendent_group(rbg).table).ok, (
                    f"descendent not a group for {op.values}")
                witness = _operator_suite_witness(rbg)
                assert witness is None, (
                    f"order {group.order}, operator {op.values}: {witness}")
        assert total == 111


def test_acceptance_6_projection_algebra_identities():
    with criterion(6, "projection-algebra-identities"):
        cases = [
            sl2_projection_rb(),
            abelian2_half_rb(),
            abelian1_half_rb(),
            projection_rb(aff1(), (1, 0)),
            projection_rb(heisenberg(), (1, 0, 1)),
            cotangent_fixture(aff1()).rb,
        ]
        for rb in cases:
            bc = bicrossed_from_rb(rb)
            proj_c, proj_ct, report = canonical_projections(bc)
            assert report.ok
            n = bc.total.dim
            c, ct = proj_c.matrix, proj_ct.matrix
            assert c + ct == Matrix.identity(n)
            assert c @ c == c
            assert ct @ ct == ct
            assert c @ ct == Matrix.zero(n, n)
            assert ct @ c == Matrix.zero(n, n)
            rb_plus, rb_minus, sub, op_report = rb_from_projection(bc, proj_c)
            assert op_report.ok
            k = sub.space.dim
            assert rb_plus.operator + rb_minus.operator == Matrix.identity(k)


def test_acceptance_7_decomposition_route_agreement():
    with criterion(7, "decomposition-route-agreement"):
        cases = [
            sl2_projection_rb(),
            projection_rb(aff1(), (1, 0)),
            projection_rb(heisenberg(), (1, 0, 1)),
            cotangent_fixture(aff1()).rb,
        ]
        for rb in cases:
            mp_rb, split = matched_pair_from_rb(rb)
            mp_dec = matched_pair_from_decomposition(
                rb.algebra, split.g_plus.space, split.g_minus.space)
            assert mp_rb == mp_dec  # tensors, bases, and labels all agree
            round_trip = decomposition_round_trip(
                rb.algebra, split.g_plus.space, split.g_minus.space)
            assert round_trip.ok
            names = {c.name for c in round_trip.checks}
            assert {"sum-map-homomorphism", "sum-map-bijective"} <= names


def test_acceptance_8_cli_determinism(tmp_path, capsys):
    with criterion(8, "cli-determinism"):
        inputs = tmp_path / "inputs"
        inputs.mkdir()

        def wr(name, payload):
            path = inputs / name
            io.write_json(str(path), payload)
            return str(path)

        rb = sl2_projection_rb()
        sl2_path = wr("sl2.json", io.lie_algebra_to_dict(rb.algebra))
        rb_path = wr("sl2_rb.json", io.rb_lie_to_dict(rb))
        cot_path = wr("cot.json",
                      io.quadratic_to_dict(cotangent_fixture(aff1())))
        ab_path = wr("ab.json", io.rb_lie_to_dict(abelian2_half_rb()))
        zg = z4_squaring_rb()
        z4_path = wr("z4.json", io.group_to_dict(zg.group))
        op_path = wr("z4_sq.json", io.group_map_to_dict(zg.operator))

        def run_suite(run_dir) -> list[str]:
            run_dir.mkdir()
            d = str(run_dir)
            plan = [
                (["check", "lie", sl2_path], 0),
                (["check", "rb-lie", rb_path], 0),
                (["check", "quadratic", cot_path], 0),
                (["check", "group", z4_path], 0),
                (["check", "rb-group", z4_path, op_path], 0),
                (["construct", "descend", ab_path,
                  "--out", f"{d}/desc.json"], 0),
                (["construct", "matched-pair", rb_path,
                  "--out", f"{d}/mp.json"], 0),
                (["construct", "bicrossed", f"{d}/mp.json",
                  "--out", f"{d}/bc.json"], 0),
                (["construct", "manin", cot_path,
                  "--out", f"{d}/manin.json"], 0),
                (["construct", "group-matched-pair", z4_path, op_path,
                  "--out", f"{d}/gmp.json"], 0),
                (["decompose", "lie", rb_path], 0),
                (["decompose", "group", z4_path, op_path], 0),
                (["search", z4_path, "--jobs", "1",
                  "--out", f"{d}/census1.json"], 0),
                (["search", z4_path, "--jobs", "4",
                  "--out", f"{d}/census4.json"], 0),
            ]
            outputs = []
            for argv, want in plan:
                code = main(argv + ["--report", "json"])
                captured = capsys.readouterr()
                assert code == want, (argv, captured.err)
                json.loads(captured.out)  # stdout is one JSON document
                outputs.append(captured.out)
            return outputs

        first = run_suite(tmp_path / "run1")
        second = run_suite(tmp_path / "run2")
        assert first == second
        for name in ("desc.json", "mp.json", "bc.json", "manin.json",
                     "gmp.json", "census1.json", "census4.json"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, name
        jobs1 = (tmp_path / "run1" / "census1.json").read_bytes()
        jobs4 = (tmp_path / "run1" / "census4.json").read_bytes()
        assert jobs1 == jobs4
