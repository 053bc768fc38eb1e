"""Command-line behavior: exit codes, report formats, artifacts, determinism."""

import dataclasses
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from rbpair import cli, io, matched_group, matched_lie, rb_group
from rbpair.cli import main
from rbpair.fixtures import (
    abelian2_half_rb,
    aff1,
    gl_borel_rb,
    sl2_projection_rb,
    sl_borel_rb,
    z4_squaring_rb,
)
from rbpair.groups import GroupMap, symmetric3
from rbpair.linalg import Matrix
from rbpair.matched_lie import decompose_bicrossed
from rbpair.quadratic import cotangent_fixture
from rbpair.rb_group import RotaBaxterGroup
from rbpair.rb_lie import RotaBaxterLie


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    io.write_json(str(path), payload)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- fixtures


def sl2_rb_path(tmp_path) -> str:
    return write(tmp_path, "sl2_rb.json", io.rb_lie_to_dict(sl2_projection_rb()))


def z4_path(tmp_path) -> str:
    return write(tmp_path, "z4.json", io.group_to_dict(z4_squaring_rb().group))


def z4_sq_path(tmp_path) -> str:
    return write(tmp_path, "z4_sq.json",
                 io.group_map_to_dict(z4_squaring_rb().operator))


# ----------------------------------------------------------------------- check


def test_check_lie_passes(tmp_path, capsys):
    rb = sl2_projection_rb()
    path = write(tmp_path, "sl2.json", io.lie_algebra_to_dict(rb.algebra))
    code, out, _ = run(capsys, ["check", "lie", path])
    assert code == 0
    assert "verdict: all checks hold" in out


def test_check_rb_lie_passes(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", "rb-lie", sl2_rb_path(tmp_path)])
    assert code == 0
    assert "PASS    rota-baxter" in out


def test_check_rb_lie_refutes_wrong_weight_with_witness(tmp_path, capsys):
    payload = io.rb_lie_to_dict(sl2_projection_rb())
    payload["weight"] = "0"
    path = write(tmp_path, "w0.json", payload)
    code, out, _ = run(capsys, ["check", "rb-lie", path])
    assert code == 1
    assert "FAIL    rota-baxter" in out
    assert "witness:" in out


def test_check_quadratic_passes(tmp_path, capsys):
    path = write(tmp_path, "cot.json",
                 io.quadratic_to_dict(cotangent_fixture(aff1())))
    code, out, _ = run(capsys, ["check", "quadratic", path])
    assert code == 0
    assert "companion-is-form-adjoint" in out


def test_check_group_passes_and_json_mode_parses(tmp_path, capsys):
    path = z4_path(tmp_path)
    code, out, _ = run(capsys, ["check", "group", path, "--report", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {c["name"] for c in doc["checks"]} == {
        "identity-element", "rows-and-columns-permute",
        "inverses-exist", "associativity"}


def test_check_group_ragged_table_is_malformed(tmp_path, capsys):
    path = write(tmp_path, "ragged.json",
                 {"kind": "group", "order": 2, "elements": ["e", "a"],
                  "table": [[0, 1], [1]]})
    code, _, err = run(capsys, ["check", "group", path])
    assert code == 2
    assert "error:" in err


def test_check_group_axiom_failure_is_refutation(tmp_path, capsys):
    path = write(tmp_path, "nongroup.json",
                 {"kind": "group", "order": 2, "elements": ["e", "a"],
                  "table": [[0, 1], [1, 1]]})
    code, out, err = run(capsys, ["check", "group", path])
    assert code == 1
    assert "FAIL" in out
    assert "refuted:" in err


def test_check_group_relabels_shifted_identity(tmp_path, capsys):
    path = write(tmp_path, "shifted.json",
                 {"kind": "group", "order": 3, "elements": ["x", "e", "y"],
                  "table": [[2, 0, 1], [0, 1, 2], [1, 2, 0]]})
    code, out, _ = run(capsys, ["check", "group", path, "--report", "json"])
    assert code == 0
    assert json.loads(out)["relabeling"] == [1, 0, 2]


def test_check_rb_group_passes(tmp_path, capsys):
    code, out, _ = run(capsys, ["check", "rb-group", z4_path(tmp_path),
                                z4_sq_path(tmp_path)])
    assert code == 0
    assert "PASS    rota-baxter" in out


def test_check_rb_group_transports_operator_along_relabeling(tmp_path, capsys):
    # Same Rota-Baxter group, but the file lists the identity second; the
    # operator values use the file's indexing and must be carried along.
    rbg = z4_squaring_rb()
    n = rbg.order
    swap = [1, 0] + list(range(2, n))
    table = rbg.group.table
    gpath = write(tmp_path, "swapped.json", {
        "kind": "group", "order": n,
        "elements": [rbg.group.labels[swap[k]] for k in range(n)],
        "table": [[swap[table[swap[r]][swap[c]]] for c in range(n)]
                  for r in range(n)],
    })
    mpath = write(tmp_path, "swapped_op.json", {
        "kind": "group_map",
        "values": [swap[rbg.operator.values[swap[k]]] for k in range(n)],
    })
    code, out, _ = run(capsys, ["check", "rb-group", gpath, mpath,
                                "--report", "json"])
    assert code == 0
    assert json.loads(out)["relabeling"] == [1, 0, 2, 3]


# ------------------------------------------------------------------ construct


def test_construct_descend_on_abelian_gives_zero_brackets(tmp_path, capsys):
    path = write(tmp_path, "ab.json", io.rb_lie_to_dict(abelian2_half_rb()))
    out_path = str(tmp_path / "desc.json")
    code, _, _ = run(capsys, ["construct", "descend", path, "--out", out_path])
    assert code == 0
    artifact = io.read_json(out_path)
    assert artifact["kind"] == "lie_algebra"
    assert artifact["brackets"] == []


def test_construct_descend_refuses_non_operator(tmp_path, capsys):
    payload = io.rb_lie_to_dict(sl2_projection_rb())
    payload["weight"] = "0"
    path = write(tmp_path, "w0.json", payload)
    out_path = str(tmp_path / "never.json")
    code, out, _ = run(capsys, ["construct", "descend", path,
                                "--out", out_path])
    assert code == 1
    assert "FAIL    rota-baxter" in out
    assert not (tmp_path / "never.json").exists()


def test_construct_matched_pair_then_bicrossed_chain(tmp_path, capsys):
    mp_path = str(tmp_path / "mp.json")
    code, _, _ = run(capsys, ["construct", "matched-pair",
                              sl2_rb_path(tmp_path), "--out", mp_path])
    assert code == 0
    mp = io.parse_matched_pair_lie(io.read_json(mp_path))
    assert mp.g_plus.dim == 2 and mp.g_minus.dim == 1

    bc_path = str(tmp_path / "bc.json")
    code, out, _ = run(capsys, ["construct", "bicrossed", mp_path,
                                "--out", bc_path])
    assert code == 0
    assert "total-jacobi" in out
    code, _, _ = run(capsys, ["check", "lie", bc_path])
    assert code == 0


def test_construct_manin_writes_isotropy_artifact(tmp_path, capsys):
    path = write(tmp_path, "cot.json",
                 io.quadratic_to_dict(cotangent_fixture(aff1())))
    out_path = str(tmp_path / "manin.json")
    code, _, _ = run(capsys, ["construct", "manin", path, "--out", out_path])
    assert code == 0
    artifact = io.read_json(out_path)
    assert artifact["kind"] == "decomposition_report"
    assert artifact["isotropy"] == {"plus": True, "minus": True}
    assert artifact["ok"] is True
    assert any(c["name"] == "induced-form-nondegenerate"
               for c in artifact["certificates"])


def test_construct_manin_rejects_unsupported_weight(tmp_path, capsys):
    q = cotangent_fixture(aff1())
    payload = io.quadratic_to_dict(q)
    payload["rb"]["weight"] = "-2"
    path = write(tmp_path, "w2.json", payload)
    code, _, err = run(capsys, ["construct", "manin", path,
                                "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "refuted:" in err


def test_construct_group_matched_pair_round_trips(tmp_path, capsys):
    out_path = str(tmp_path / "gmp.json")
    code, _, _ = run(capsys, ["construct", "group-matched-pair",
                              z4_path(tmp_path), z4_sq_path(tmp_path),
                              "--out", out_path])
    assert code == 0
    mp = io.parse_matched_pair_group(io.read_json(out_path))
    assert mp.g_plus.order == 2 and mp.g_minus.order == 4


# ------------------------------------------------------------------ decompose


def test_decompose_lie_projection_splits_fully(tmp_path, capsys):
    code, out, _ = run(capsys, ["decompose", "lie", sl2_rb_path(tmp_path),
                                "--report", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["g1_dim"] == 3
    assert doc["g2_dim"] == 0
    assert doc["intersection_dim"] == 0
    assert all(c["holds"] for c in doc["certificates"])


def test_decompose_lie_half_operator_has_line_quotient(tmp_path, capsys):
    path = write(tmp_path, "ab.json", io.rb_lie_to_dict(abelian2_half_rb()))
    code, out, _ = run(capsys, ["decompose", "lie", path, "--report", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["g1_dim"] == 2
    assert doc["g2_dim"] == 1
    assert doc["quotient_dim"] == 1


def test_decompose_lie_builds_decomposition_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(rb):
        calls.append(rb)
        return decompose_bicrossed(rb)

    monkeypatch.setattr(cli, "decompose_bicrossed", counting)
    monkeypatch.setattr(matched_lie, "decompose_bicrossed", counting)
    code, _, _ = run(capsys, ["decompose", "lie", sl2_rb_path(tmp_path)])
    assert code == 0
    assert len(calls) == 1


# Expected stdout of `rbpair decompose lie`, recorded before the projection
# check was rewritten by linearity and the decomposition was shared between
# the factor certificates; reports must stay unchanged byte for byte.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = {
    "sl2_projection_rb": sl2_projection_rb,
    "abelian2_half_rb": abelian2_half_rb,
    "sl3_borel_rb": lambda: sl_borel_rb(3),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(GOLDEN_INPUTS))
def test_decompose_lie_matches_golden_bytes(tmp_path, capsys, name, fmt):
    path = write(tmp_path, f"{name}.json", io.rb_lie_to_dict(GOLDEN_INPUTS[name]()))
    code, out, _ = run(capsys, ["decompose", "lie", path, "--report", fmt])
    assert code == 0
    suffix = "txt" if fmt == "text" else "json"
    assert out.encode() == (GOLDEN / f"decompose_lie_{name}.{suffix}").read_bytes()


def sl2_mutated_rb() -> RotaBaxterLie:
    """sl2_projection_rb with operator entry (0,2) changed to 1, so that the
    Rota-Baxter identity fails and its witness string is pinned."""
    return dataclasses.replace(sl2_projection_rb(), operator=Matrix.from_rows(
        [[0, 0, 1], [0, 1, 0], [0, 0, 1]]))


def cotangent_mutated_form():
    """The aff1 cotangent fixture with form entry (0,0) changed to 1, so that
    the compatibility checks fail with witnesses."""
    q = cotangent_fixture(aff1())
    rows = [list(row) for row in q.form.entries]
    rows[0][0] = Fraction(1)
    return dataclasses.replace(q, form=Matrix.from_rows(rows))


# Expected stdout and artifact bytes of the `check` and `construct` commands
# on the Lie side, recorded before the bracket and the vector operations were
# rewritten to skip zero entries.  `construct bicrossed` reads the matched
# pair artifacts recorded for `construct matched-pair`.
RB_LIE_INPUTS = {
    "sl2_projection_rb": sl2_projection_rb,
    "gl2_borel_rb": lambda: gl_borel_rb(2),
    "sl2_mutated_rb": sl2_mutated_rb,
}
QUADRATIC_INPUTS = {
    "cotangent_aff1": lambda: cotangent_fixture(aff1()),
    "cotangent_aff1_mutated_form": cotangent_mutated_form,
}
CONSTRUCT_GOLDEN_CASES = (
    [(("check", "rb-lie"), name) for name in RB_LIE_INPUTS]
    + [(("construct", "descend"), name) for name in RB_LIE_INPUTS]
    + [(("construct", "matched-pair"), name) for name in RB_LIE_INPUTS]
    + [(("construct", "bicrossed"), name)
       for name in ("sl2_projection_rb", "gl2_borel_rb")]
    + [(("check", "quadratic"), name) for name in QUADRATIC_INPUTS]
    + [(("construct", "manin"), name) for name in QUADRATIC_INPUTS])


def golden_stem(command: tuple[str, str], name: str) -> str:
    return f"{command[0]}_{command[1].replace('-', '_')}_{name}"


def golden_input(tmp_path, command: tuple[str, str], name: str) -> str:
    if command[1] == "bicrossed":
        mp_stem = golden_stem(("construct", "matched-pair"), name)
        return str(GOLDEN / f"{mp_stem}.artifact.json")
    if name in QUADRATIC_INPUTS:
        return write(tmp_path, f"{name}.json",
                     io.quadratic_to_dict(QUADRATIC_INPUTS[name]()))
    return write(tmp_path, f"{name}.json", io.rb_lie_to_dict(RB_LIE_INPUTS[name]()))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, name", CONSTRUCT_GOLDEN_CASES,
                         ids=[golden_stem(*case) for case in CONSTRUCT_GOLDEN_CASES])
def test_lie_check_and_construct_match_golden_bytes(tmp_path, capsys, command,
                                                    name, fmt):
    argv = [*command, golden_input(tmp_path, command, name), "--report", fmt]
    out_path = tmp_path / "artifact.json"
    if command[0] == "construct":
        argv += ["--out", str(out_path)]
    code, out, _ = run(capsys, argv)
    assert code == (1 if "mutated" in name else 0)
    stem = golden_stem(command, name)
    suffix = "txt" if fmt == "text" else "json"
    assert out.encode() == (GOLDEN / f"{stem}.{suffix}").read_bytes()
    artifact = GOLDEN / f"{stem}.artifact.json"
    if artifact.exists():
        assert out_path.read_bytes() == artifact.read_bytes()
    else:
        assert not out_path.exists()


def s3_separating_rb() -> RotaBaxterGroup:
    """An S3 operator whose matched pair has a non-trivial minus action."""
    s3 = symmetric3()
    return RotaBaxterGroup(s3, GroupMap(s3, s3, (0, 0, 3, 3, 4, 4)))


def group_paths(tmp_path, rbg) -> tuple[str, str]:
    return (write(tmp_path, "group.json", io.group_to_dict(rbg.group)),
            write(tmp_path, "op.json", io.group_map_to_dict(rbg.operator)))


# Expected stdout of `rbpair decompose group` and `rbpair search --verify-all`,
# recorded before the group-side certificates were changed to share one
# matched pair, bicrossed group and projection pair.
GROUP_GOLDEN_INPUTS = {
    "z4_squaring_rb": z4_squaring_rb,
    "s3_separating_rb": s3_separating_rb,
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(GROUP_GOLDEN_INPUTS))
def test_decompose_group_matches_golden_bytes(tmp_path, capsys, name, fmt):
    gpath, opath = group_paths(tmp_path, GROUP_GOLDEN_INPUTS[name]())
    code, out, _ = run(capsys, ["decompose", "group", gpath, opath,
                                "--report", fmt])
    assert code == 0
    suffix = "txt" if fmt == "text" else "json"
    assert out.encode() == (GOLDEN / f"decompose_group_{name}.{suffix}").read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_search_verify_all_matches_golden_bytes(tmp_path, capsys, fmt):
    path = write(tmp_path, "s3.json", io.group_to_dict(symmetric3()))
    code, out, _ = run(capsys, ["search", path, "--verify-all", "--report", fmt])
    assert code == 0
    suffix = "txt" if fmt == "text" else "json"
    assert out.encode() == (GOLDEN / f"search_verify_all_s3.{suffix}").read_bytes()


@pytest.mark.parametrize("argv, per_run", [
    (["decompose", "group", "{group}", "{op}"], 1),
    (["search", "{group}", "--verify-all"], 8),
])
def test_group_chain_built_once_per_operator(tmp_path, capsys, monkeypatch,
                                             argv, per_run):
    names = ("matched_pair_from_rb_group", "bicrossed_group",
             "canonical_group_projections")
    calls = Counter()
    for name in names:
        def counting(*args, _original=getattr(matched_group, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(matched_group, name, counting)
        monkeypatch.setattr(cli, name, counting)
    gpath, opath = group_paths(tmp_path, s3_separating_rb())
    code, _, _ = run(capsys, [a.format(group=gpath, op=opath) for a in argv])
    assert code == 0
    assert calls == {name: per_run for name in names}


@pytest.mark.parametrize("argv, per_run", [
    (["decompose", "group", "{group}", "{op}"], 1),
    (["search", "{group}", "--verify-all"], 8),
])
def test_group_split_and_descendent_built_once_per_operator(
        tmp_path, capsys, monkeypatch, argv, per_run):
    calls = Counter()
    for name in ("split_subgroups", "descendent_group"):
        def counting(*args, _original=getattr(rb_group, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(rb_group, name, counting)
        monkeypatch.setattr(matched_group, name, counting, raising=False)
    gpath, opath = group_paths(tmp_path, s3_separating_rb())
    code, _, _ = run(capsys, [a.format(group=gpath, op=opath) for a in argv])
    assert code == 0
    assert calls == {"split_subgroups": per_run, "descendent_group": per_run}


def test_decompose_group_reports_quotient_order(tmp_path, capsys):
    code, out, _ = run(capsys, ["decompose", "group", z4_path(tmp_path),
                                z4_sq_path(tmp_path), "--report", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bicrossed_order"] == 8
    assert doc["quotient_order"] == 2
    assert doc["g2_order"] == 2
    assert doc["ok"] is True


# --------------------------------------------------------------------- search


def test_search_z2_census_contents(tmp_path, capsys):
    path = write(tmp_path, "z2.json",
                 {"kind": "group", "order": 2, "elements": ["e", "a"],
                  "table": [[0, 1], [1, 0]]})
    out_path = str(tmp_path / "census.json")
    code, out, _ = run(capsys, ["search", path, "--out", out_path])
    assert code == 0
    assert "count: 2" in out
    census = io.read_json(out_path)
    assert census["kind"] == "rb_census"
    assert census["count"] == 2
    assert [op["values"] for op in census["operators"]] == [[0, 0], [0, 1]]


def test_search_inlines_operators_without_out(tmp_path, capsys):
    code, out, _ = run(capsys, ["search", z4_path(tmp_path),
                                "--report", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert len(doc["operators"]) == 4


def test_search_modes_and_jobs_are_byte_identical(tmp_path, capsys):
    gpath = z4_path(tmp_path)
    outputs = []
    census_bytes = []
    for mode in ("naive", "pruned"):
        for jobs in ("1", "4"):
            out_path = str(tmp_path / f"census-{mode}-{jobs}.json")
            code, out, _ = run(capsys, ["search", gpath, "--mode", mode,
                                        "--jobs", jobs, "--out", out_path,
                                        "--report", "json"])
            assert code == 0
            # the report names the mode; compare census bytes across all
            # runs and stdout bytes across jobs within a mode
            outputs.append((mode, out))
            with open(out_path, "rb") as handle:
                census_bytes.append(handle.read().replace(
                    mode.encode(), b"MODE"))
    assert len({out for mode, out in outputs if mode == "naive"}) == 1
    assert len({out for mode, out in outputs if mode == "pruned"}) == 1
    assert len(set(census_bytes)) == 1


def test_search_verify_all_passes_on_z4(tmp_path, capsys):
    code, out, _ = run(capsys, ["search", z4_path(tmp_path), "--verify-all",
                                "--out", str(tmp_path / "c.json")])
    assert code == 0
    assert "operator-0003-suite" in out


def test_search_respects_order_bound_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RBPAIR_MAX_GROUP_ORDER", "3")
    code, _, err = run(capsys, ["search", z4_path(tmp_path)])
    assert code == 1
    assert "refuted:" in err


# ------------------------------------------------------------- error plumbing


def test_invalid_json_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, ["check", "lie", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, ["check", "lie", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_kind_mismatch_exits_two(tmp_path, capsys):
    path = z4_path(tmp_path)
    code, _, err = run(capsys, ["check", "lie", path])
    assert code == 2
    assert "expected kind" in err


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "rbpair", "check", "group", z4_path(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "verdict: all checks hold" in result.stdout
