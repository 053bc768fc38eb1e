"""The workload panel: seeded inputs, command lists and correctness gates.

A workload is a builder: given a seeded random source and a directory, it
writes one variant of its inputs there and returns the rbpair commands one
pass runs, in order.  Each command carries a gate that reads
the command's stdout and any artifact it wrote and returns a failure
message, or None when the output is correct.  Expected verdicts, counts and
dimensions do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable

import gen

VERDICT_OK = "verdict: all checks hold"

Gate = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Command:
    kind: str                 # check, construct, decompose, search, verify_all
    argv: tuple[str, ...]     # arguments after ``python -m rbpair``
    gate: Gate


# -------------------------------------------------------------------- gates


def data_lines(stdout: str) -> dict:
    """The ``key: value`` data lines of a text report, values JSON-decoded."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key.isidentifier():
            try:
                out[key] = json.loads(value)
            except ValueError:
                out[key] = value
    return out


def verdict_gate(extra: Gate | None = None) -> Gate:
    """Require the all-hold verdict, then run ``extra`` if given."""
    def gate(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[-1] != VERDICT_OK:
            return f"last line is {lines[-1] if lines else '(no output)'!r}"
        return extra(stdout) if extra else None
    return gate


def expect_data(**expected) -> Gate:
    def gate(stdout: str) -> str | None:
        data = data_lines(stdout)
        for key, value in expected.items():
            if data.get(key) != value:
                return f"{key} is {data.get(key)!r}, expected {value!r}"
        return None
    return gate


class RBIdentity:
    """The weight -1 identity B(a)B(b) = B(B(a)·b·B(a)⁻¹·a) on one table.

    For each a it compares the row (B(a)·B(b))_b with (B(t_b))_b, where
    t_b = (c·b·c⁻¹)·a for c = B(a); a getter for t is precomputed for every
    c and a."""

    def __init__(self, table) -> None:
        n = len(table)
        inverse = [row.index(0) for row in table]
        self.table = table
        self.targets = [
            [itemgetter(*(table[table[table[c][b]][inverse[c]]][a]
                          for b in range(n)))
             for a in range(n)]
            for c in range(n)]

    def failing_element(self, values) -> int | None:
        """Some a whose row of the identity fails, or None if B satisfies it."""
        pick = itemgetter(*values)
        for a, c in enumerate(values):
            if pick(self.table[c]) != self.targets[c][a](values):
                return a
        return None


def census_gate(path: Path, table, count: int) -> Gate:
    """The census file lists ``count`` distinct operators, each satisfying
    the group Rota-Baxter identity on the generated table."""
    def gate(stdout: str) -> str | None:
        census = json.loads(path.read_text(encoding="utf-8"))
        operators = [tuple(op["values"]) for op in census["operators"]]
        if census.get("count") != count or len(operators) != count:
            return (f"census lists {len(operators)} operators "
                    f"(count field {census.get('count')!r}), expected {count}")
        if len(set(operators)) != count:
            return "census repeats an operator"
        if census["group"]["table"] != table:
            return "census group table differs from the input table"
        identity = RBIdentity(table)
        for values in operators:
            if (len(values) != len(table)
                    or not all(0 <= v < len(table) for v in values)):
                return f"operator {list(values)} has the wrong shape"
            a = identity.failing_element(values)
            if a is not None:
                return f"operator {list(values)} fails the identity at a = {a}"
        return None
    return gate


def suite_verdicts(stdout: str) -> list[bool]:
    """Whether each per-operator suite line of --verify-all passed."""
    return [line.startswith("PASS") for line in stdout.splitlines()
            if "[full-certificate-suite]" in line]


def suites_gate(count: int) -> Gate:
    """--verify-all ran and passed the full suite on ``count`` operators."""
    def gate(stdout: str) -> str | None:
        verdicts = suite_verdicts(stdout)
        if len(verdicts) != count or not all(verdicts):
            return (f"{sum(verdicts)} of {len(verdicts)} suites pass, "
                    f"expected {count}")
        return expect_data(count=count)(stdout)
    return gate


def artifact_gate(path: Path, kind: str) -> Gate:
    """Re-parse a construct artifact with rbpair.io and re-validate it."""
    def gate(stdout: str) -> str | None:
        from rbpair import io
        from rbpair.lie import validate_lie_algebra
        from rbpair.matched_lie import verify_matched_pair

        payload = io.read_json(str(path))
        if kind == "lie_algebra":
            report = validate_lie_algebra(io.parse_lie_algebra(payload))
        elif kind == "matched_pair_lie":
            report = verify_matched_pair(io.parse_matched_pair_lie(payload))
        else:
            if payload.get("kind") != "decomposition_report":
                return f"artifact kind is {payload.get('kind')!r}"
            holds = all(c["holds"] for c in payload["certificates"])
            return None if payload.get("ok") and holds else "artifact reports a failure"
        if not report.ok:
            return f"artifact fails {report.failures()[0].name}"
        return None
    return gate


# ----------------------------------------------------------------- builders


def lie_decompose(n: int, traceless: bool, dims: dict) -> Callable:
    def build(rng: random.Random, where: Path) -> list[Command]:
        path = where / "rb.json"
        gen.write_json(path, gen.borel_rb_lie(n, traceless, rng))
        return [Command("decompose", ("decompose", "lie", str(path)),
                        verdict_gate(expect_data(**dims)))]
    return build


def lie_construct(n: int, traceless: bool) -> Callable:
    def build(rng: random.Random, where: Path) -> list[Command]:
        rb, mp = where / "rb.json", where / "mp.json"
        desc, bc = where / "descendent.json", where / "bicrossed.json"
        quad, manin = where / "quadratic.json", where / "manin.json"
        gen.write_json(rb, gen.borel_rb_lie(n, traceless, rng))
        gen.write_json(quad, gen.cotangent_gl2(rng))
        return [
            Command("check", ("check", "rb-lie", str(rb)), verdict_gate()),
            Command("construct", ("construct", "descend", str(rb), "--out", str(desc)),
                    verdict_gate(artifact_gate(desc, "lie_algebra"))),
            Command("construct", ("construct", "matched-pair", str(rb), "--out", str(mp)),
                    verdict_gate(artifact_gate(mp, "matched_pair_lie"))),
            Command("construct", ("construct", "bicrossed", str(mp), "--out", str(bc)),
                    verdict_gate(artifact_gate(bc, "lie_algebra"))),
            Command("check", ("check", "quadratic", str(quad)), verdict_gate()),
            Command("construct", ("construct", "manin", str(quad), "--out", str(manin)),
                    verdict_gate(artifact_gate(manin, "report"))),
        ]
    return build


def group_census(counts: dict[str, int]) -> Callable:
    def build(rng: random.Random, where: Path) -> list[Command]:
        cmds = []
        for name, count in counts.items():
            path, out = where / f"{name}.json", where / f"{name}-census.json"
            payload, table = gen.relabeled_group(name, rng)
            gen.write_json(path, payload)
            cmds.append(Command(
                "search", ("search", str(path), "--jobs", "1", "--out", str(out)),
                verdict_gate(census_gate(out, table, count))))
        return cmds
    return build


def group_verify(counts: dict[str, int]) -> Callable:
    def build(rng: random.Random, where: Path) -> list[Command]:
        cmds = []
        for name, count in counts.items():
            path = where / f"{name}.json"
            gen.write_json(path, gen.relabeled_group(name, rng)[0])
            cmds.append(Command(
                "verify_all", ("search", str(path), "--jobs", "1", "--verify-all"),
                verdict_gate(suites_gate(count))))
        return cmds
    return build


# name -> builder of one variant's commands; why each was chosen is
# recorded in BENCHMARK.json.
WORKLOADS = {
    "lie-decompose": lie_decompose(3, True, {"g1_dim": 8, "g2_dim": 0,
                                             "intersection_dim": 0}),
    "lie-construct": lie_construct(4, traceless=False),
    "group-census": group_census({"S4": 100, "Z2xD4": 2176, "Z2xD6": 2816,
                                  "Z2xZ2xZ4": 1024}),
    "group-verify": group_verify({"D6": 80, "S4": 100, "Z2xQ8": 128}),
}
