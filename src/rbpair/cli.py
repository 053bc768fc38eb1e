"""Command line front end: check, construct, decompose, search.

Exit codes encode the verdict: 0 when every required certificate holds,
1 on a refutation (a failing certificate, unsupported weight, or an
enumeration bound overrun), 2 on malformed input (bad JSON, wrong shape,
out-of-range indices, unreadable files).  Argument errors also exit 2 via
argparse.

Reports print to stdout as text (one line per check, PASS/FAIL plus a
witness on failures) or as JSON with ``--report json``.  All output is
deterministic: equal inputs produce identical bytes, independent of
``--jobs``.  There is no configuration file; the only environment knob is
the enumeration order bound read by the search backend.
"""

from __future__ import annotations

import argparse
import sys

from . import io
from .errors import AxiomsFailedError, MalformedInputError, RBPairError
from .groups import GroupMap
from .lie import validate_lie_algebra
from .matched_group import (
    bicrossed_from_rb_group,
    bicrossed_group,
    bicrossed_group_certificates,
    canonical_group_projections,
    iso_second_factor_quotient_group,
    matched_pair_from_rb_group,
    verify_matched_pair_group,
)
from .matched_lie import (
    bicrossed_certificates,
    bicrossed_product,
    decompose_bicrossed,
    iso_first_factor,
    iso_second_factor_quotient,
    matched_pair_from_rb,
    verify_matched_pair,
)
from .quadratic import check_compatibility, manin_triple, validate_quadratic
from .rb_group import (
    RotaBaxterGroup,
    check_rb_group,
    enumerate_rb_operators,
    lemma_suite_group,
)
from .rb_lie import check_rota_baxter, descendent_algebra
from .reports import Report, checked


# ------------------------------------------------------------------- helpers


def _emit(report: Report, fmt: str, style: str) -> None:
    if fmt == "json":
        if style == "artifact":
            sys.stdout.write(io.dump_json(io.report_to_artifact(report)))
        else:
            sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())


def _load_rb_group(group_path: str, map_path: str
                   ) -> tuple[RotaBaxterGroup, tuple[int, ...] | None, Report]:
    """Read a group file plus an operator file, normalizing indices.

    When loading relabels the group to pin the identity at index 0, the
    operator's value table is transported along the same permutation so it
    still names the same elements.
    """
    group, perm, group_report = io.load_group(io.read_json(group_path))
    op = io.parse_group_map(io.read_json(map_path), group, group)
    if perm is not None:
        op = GroupMap(group, group, io.relabel_map_values(op.values, perm))
    return RotaBaxterGroup(group, op), perm, group_report


# -------------------------------------------------------------------- check


def _cmd_check(args) -> Report:
    if args.kind == "lie":
        g = io.parse_lie_algebra(io.read_json(args.path))
        return validate_lie_algebra(g)

    if args.kind == "rb-lie":
        rb = io.parse_rb_lie(io.read_json(args.path))
        report = Report(subject=f"rb_lie(dim={rb.dim},weight={rb.weight})")
        report.merge(validate_lie_algebra(rb.algebra), prefix="algebra-")
        report.add(check_rota_baxter(rb.algebra, rb.operator, rb.weight))
        return report

    if args.kind == "quadratic":
        q = io.parse_quadratic(io.read_json(args.path))
        rb = q.rb
        report = Report(subject=f"quadratic_rb(dim={rb.dim},weight={rb.weight})")
        report.merge(validate_lie_algebra(rb.algebra), prefix="algebra-")
        report.add(check_rota_baxter(rb.algebra, rb.operator, rb.weight))
        report.merge(validate_quadratic(rb.algebra, q.form))
        report.merge(check_compatibility(q))
        return report

    if args.kind == "group":
        _, _, report = io.load_group(io.read_json(args.path))
        return report

    rbg, perm, group_report = _load_rb_group(args.path, args.op_path)
    report = Report(subject=f"rb_group(order={rbg.order})")
    report.merge(group_report, prefix="group-")
    report.data.update(group_report.data)
    report.add(check_rb_group(rbg.group, rbg.operator))
    return report


# ----------------------------------------------------------------- construct


def _cmd_construct(args) -> Report:
    if args.operation == "descend":
        rb = io.parse_rb_lie(io.read_json(args.path))
        report = Report(subject=f"construct_descend(dim={rb.dim})")
        rb_check = report.add(
            check_rota_baxter(rb.algebra, rb.operator, rb.weight))
        if not rb_check.holds:
            return report
        descendent = descendent_algebra(rb)
        report.merge(validate_lie_algebra(descendent), prefix="descendent-")
        io.write_json(args.out, io.lie_algebra_to_dict(descendent))
        return report

    if args.operation == "matched-pair":
        rb = io.parse_rb_lie(io.read_json(args.path))
        report = Report(subject=f"construct_matched_pair(dim={rb.dim})")
        rb_check = report.add(
            check_rota_baxter(rb.algebra, rb.operator, rb.weight))
        if not rb_check.holds:
            return report
        mp, _split = matched_pair_from_rb(rb)
        report.merge(verify_matched_pair(mp))
        io.write_json(args.out, io.matched_pair_lie_to_dict(mp))
        return report

    if args.operation == "bicrossed":
        mp = io.parse_matched_pair_lie(io.read_json(args.path))
        bc = bicrossed_product(mp)
        report = Report(
            subject=f"construct_bicrossed(p={bc.p},q={bc.q})")
        report.merge(verify_matched_pair(mp))
        report.merge(bicrossed_certificates(bc))
        io.write_json(args.out, io.lie_algebra_to_dict(bc.total))
        return report

    if args.operation == "manin":
        q = io.parse_quadratic(io.read_json(args.path))
        _triple, report = manin_triple(q)
        io.write_json(args.out, io.report_to_artifact(report))
        return report

    rbg, _perm, _group_report = _load_rb_group(args.path, args.op_path)
    report = Report(
        subject=f"construct_group_matched_pair(order={rbg.order})")
    rb_check = report.add(check_rb_group(rbg.group, rbg.operator))
    if not rb_check.holds:
        return report
    mp, _split = matched_pair_from_rb_group(rbg)
    report.merge(verify_matched_pair_group(mp))
    io.write_json(args.out, io.matched_pair_group_to_dict(mp))
    return report


# ----------------------------------------------------------------- decompose


def _cmd_decompose(args) -> Report:
    if args.kind == "lie":
        rb = io.parse_rb_lie(io.read_json(args.path))
        report = Report(subject=f"lie_decomposition(dim={rb.dim})")
        rb_check = report.add(
            check_rota_baxter(rb.algebra, rb.operator, rb.weight))
        if not rb_check.holds:
            return report
        dec, dec_report = decompose_bicrossed(rb)
        report.merge(dec_report)
        report.data.update(dec_report.data)
        first = iso_first_factor(dec)
        report.merge(first, prefix="g1-")
        report.data.update(first.data)
        second = iso_second_factor_quotient(dec)
        report.merge(second, prefix="g2-")
        report.data.update(second.data)
        return report

    rbg, perm, _group_report = _load_rb_group(args.path, args.op_path)
    report = Report(subject=f"group_decomposition(order={rbg.order})")
    if perm is not None:
        report.data["relabeling"] = list(perm)
    rb_check = report.add(check_rb_group(rbg.group, rbg.operator))
    if not rb_check.holds:
        return report
    bc = bicrossed_from_rb_group(rbg)
    chat, ctil, proj_report = canonical_group_projections(bc)
    report.merge(proj_report)
    iso_report = iso_second_factor_quotient_group(ctil)
    report.merge(iso_report)
    report.data.update(iso_report.data)
    report.data["bicrossed_order"] = bc.total.order
    report.data["g1_order"] = len(set(chat.operator.values))
    return report


# -------------------------------------------------------------------- search


def _operator_suite_witness(rbg: RotaBaxterGroup) -> str | None:
    """Run the full certificate suite for one operator; None means all hold."""
    suite = Report(subject="operator-suite")
    try:
        suite.merge(lemma_suite_group(rbg))
        mp, split = matched_pair_from_rb_group(rbg)
        suite.merge(verify_matched_pair_group(mp))
        bc = bicrossed_group(mp, split)
        suite.merge(bicrossed_group_certificates(bc))
        _chat, ctil, proj_report = canonical_group_projections(bc)
        suite.merge(proj_report)
        suite.merge(iso_second_factor_quotient_group(ctil))
    except RBPairError as exc:
        return f"raised: {exc}"
    if suite.ok:
        return None
    first = suite.failures()[0]
    return f"{first.name}: {first.witness}"


def _cmd_search(args) -> Report:
    group, perm, _group_report = io.load_group(io.read_json(args.path))
    operators = enumerate_rb_operators(group, mode=args.mode, jobs=args.jobs)
    report = Report(
        subject=f"search(order={group.order},mode={args.mode})")
    report.data["count"] = len(operators)
    report.data["mode"] = args.mode
    if perm is not None:
        report.data["relabeling"] = list(perm)

    witness = None
    for op in operators:
        identity = check_rb_group(group, op)
        if not identity.holds:
            witness = f"operator {op.values}: {identity.witness}"
            break
    report.add(checked("all-operators-satisfy-identity",
                       "group-rota-baxter-identity", witness))

    if args.verify_all:
        for idx, op in enumerate(operators):
            suite_witness = _operator_suite_witness(RotaBaxterGroup(group, op))
            report.add(checked(f"operator-{idx:04d}-suite",
                               "full-certificate-suite", suite_witness))

    census = io.census_to_dict(group, operators, args.mode)
    if args.out:
        io.write_json(args.out, census)
    else:
        report.data["operators"] = [list(op.values) for op in operators]
    return report


# ------------------------------------------------------------------- parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", dest="report_format",
                        choices=("text", "json"), default="text",
                        help="output format for the certificate report")

    parser = argparse.ArgumentParser(
        prog="rbpair",
        description="Exact certificates for Rota-Baxter operators, "
                    "matched pairs, and bicrossed products.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate one object file")
    check_sub = check.add_subparsers(dest="kind", required=True)
    for kind in ("lie", "rb-lie", "quadratic", "group"):
        p = check_sub.add_parser(kind, parents=[common])
        p.add_argument("path", help="object file to validate")
        p.set_defaults(handler=_cmd_check)
    p = check_sub.add_parser("rb-group", parents=[common])
    p.add_argument("path", help="group file")
    p.add_argument("op_path", help="operator value-table file")
    p.set_defaults(handler=_cmd_check)

    construct = sub.add_parser("construct",
                               help="build a derived object and certify it")
    construct_sub = construct.add_subparsers(dest="operation", required=True)
    for operation in ("descend", "matched-pair", "bicrossed", "manin"):
        p = construct_sub.add_parser(operation, parents=[common])
        p.add_argument("path", help="input object file")
        p.add_argument("--out", required=True, help="output file to write")
        p.set_defaults(handler=_cmd_construct)
    p = construct_sub.add_parser("group-matched-pair", parents=[common])
    p.add_argument("path", help="group file")
    p.add_argument("op_path", help="operator value-table file")
    p.add_argument("--out", required=True, help="output file to write")
    p.set_defaults(handler=_cmd_construct)

    decompose = sub.add_parser(
        "decompose", help="split a Rota-Baxter object into its two factors")
    decompose_sub = decompose.add_subparsers(dest="kind", required=True)
    p = decompose_sub.add_parser("lie", parents=[common])
    p.add_argument("path", help="Rota-Baxter Lie file")
    p.set_defaults(handler=_cmd_decompose, json_style="artifact")
    p = decompose_sub.add_parser("group", parents=[common])
    p.add_argument("path", help="group file")
    p.add_argument("op_path", help="operator value-table file")
    p.set_defaults(handler=_cmd_decompose, json_style="artifact")

    search = sub.add_parser(
        "search", help="enumerate every weight -1 operator on a group")
    search.add_argument("path", help="group file")
    search.add_argument("--mode", choices=("naive", "pruned"),
                        default="pruned", help="enumeration strategy")
    search.add_argument("--jobs", type=int, default=1,
                        help="worker processes, capped at the group order "
                             "(output is identical for any value)")
    search.add_argument("--out", default=None,
                        help="write the census file here instead of inlining it")
    search.add_argument("--verify-all", action="store_true",
                        help="run the full certificate suite on every operator")
    search.add_argument("--report", dest="report_format",
                        choices=("text", "json"), default="text",
                        help="output format for the certificate report")
    search.set_defaults(handler=_cmd_search)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    style = getattr(args, "json_style", "checks")
    try:
        report = args.handler(args)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AxiomsFailedError as exc:
        if exc.report is not None:
            _emit(exc.report, args.report_format, style)
        print(f"refuted: {exc}", file=sys.stderr)
        return 1
    except RBPairError as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.report_format, style)
    return 0 if report.ok else 1
