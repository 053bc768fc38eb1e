"""Toy-size self-test of the benchmark harness.

    python3 rbbench/selftest.py

Runs every workload shape at toy size (sl(2) with its Borel projection,
T*gl(2), and the groups S3 and Z4), untraced and traced, and checks that

* correct outputs pass the gates and every metric named in BENCHMARK.json
  prints by name with its unit;
* a wrong expected count, a corrupted input file and a census operator
  that breaks the identity each come back as a failed command with a
  message, not as an exception;
* the tracer rebinds names imported across modules and restores them.

Exits 0 when everything holds; takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import time
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import workloads as wl  # noqa: E402  (needs rbpair on the path)
from tracer import Tracer  # noqa: E402

TOY = {
    "lie-decompose": wl.lie_decompose(2, True, {"g1_dim": 3, "g2_dim": 0,
                                                "intersection_dim": 0}),
    "lie-construct": wl.lie_construct(2, traceless=True),
    "group-census": wl.group_census({"S3": 8, "Z4": 4}),
    "group-verify": wl.group_verify({"S3": 8, "Z4": 4}),
}


def build(builder, workdir: Path, seed: int = 7) -> list:
    rng = random.Random(seed)
    variants = []
    for v in range(2):
        where = workdir / f"v{v}"
        where.mkdir(parents=True)
        variants.append(builder(rng, where))
    return variants


def printed(result: dict) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result, "selftest")
    lines = out.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def expect(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name, builder in TOY.items():
            deadline = time.monotonic() + run.RUN_LIMIT_S
            for trace, wanted in ((0, end_to_end), (1, per_layer)):
                where = workdir / f"{name}-{trace}"
                variants = build(builder, where)
                result = (run.traced_run(variants[0], f"selftest-{name}", 7, deadline)
                          if trace else run.timed_run(variants, 1, where, deadline))
                lines, final = printed(result)
                expect(not result["failures"],
                       f"{name} trace {trace}: {result['failures']}", problems)
                expect(set(final) == {"correct", "attempted", "failed", "metrics"},
                       f"{name}: result keys {sorted(final)}", problems)
                expect(final["correct"] and final["attempted"] > 0,
                       f"{name} trace {trace}: not correct", problems)
                got = {k: v["unit"] for k, v in final["metrics"].items()}
                expect(got == wanted,
                       f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                       f"{sorted(set(got) ^ set(wanted))}", problems)
                for metric, unit in wanted.items():
                    expect(any(line.startswith(f"{metric} ")
                               and line.endswith(f" {unit}") for line in lines),
                           f"{name}: no printed line for {metric} [{unit}]", problems)

        # A wrong expected count is a failed command with a message.
        where = workdir / "wrong-count"
        variants = build(wl.group_census({"S3": 9, "Z4": 4}), where)
        result = run.timed_run(variants, 1, where, time.monotonic() + 60)
        expect(any("S3.json" in f and "expected 9" in f for f in result["failures"]),
               f"wrong count not reported: {result['failures']}", problems)

        # A census operator that breaks the identity fails the gate.
        where = workdir / "tampered"
        cmd = build(wl.group_census({"S3": 8}), where)[0][0]
        outcome = run.run_child(["-m", "rbpair", *cmd.argv], where,
                                time.monotonic() + 60)
        census_path = Path(cmd.argv[-1])
        census = json.loads(census_path.read_text())
        values = census["operators"][-1]["values"]
        values[1] = (values[1] + 1) % len(values)
        census_path.write_text(json.dumps(census))
        why = run.judge(cmd, outcome) or ""
        expect("fails the identity" in why or "repeats" in why,
               f"tampered census not caught: {why!r}", problems)

        # A corrupted input file is a failed command with a message.
        where = workdir / "corrupt"
        variants = build(TOY["lie-decompose"], where)
        for v in range(2):
            (where / f"v{v}" / "rb.json").write_text('{"kind": "rb_lie", "weight"')
        result = run.timed_run(variants, 1, where, time.monotonic() + 60)
        expect(bool(result["failures"])
               and all("exit code 2" in f for f in result["failures"]),
               f"corrupt input not reported: {result['failures']}", problems)
        _, final = printed(result)
        expect(not final["correct"] and final["failed"] == len(result["failures"]),
               f"corrupt input result {final}", problems)

        # The tracer rebinds names imported by other modules, then restores.
        from rbpair import cli, rb_group
        original = rb_group.check_rb_group
        tracer = Tracer()
        tracer.install()
        try:
            expect(cli.check_rb_group is rb_group.check_rb_group
                   and cli.check_rb_group is not original,
                   "check_rb_group not rebound in cli", problems)
        finally:
            tracer.uninstall()
        expect(cli.check_rb_group is original and rb_group.check_rb_group is original,
               "tracer did not restore check_rb_group", problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for spans in run.OUT.glob("spans-selftest-*.jsonl"):
            spans.unlink()

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
