"""Benchmark for the rbpair command line.

    python3 rbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rbpair is imported from ``src/`` of that
checkout and nothing needs installing.

``--trace 0`` times the real CLI: a closed loop of one client that starts
``python -m rbpair ...`` as a fresh process for each command of the
workload, one at a time, with ``--jobs 1`` and ``RBPAIR_MAX_GROUP_ORDER=24``.
It runs passes over the command list, each on the next of eight seeded
variants of the inputs, until about ``S`` seconds of passes have been
measured.  Between commands it times ``reference.py``, a fixed task in a
fresh interpreter, and reports the median pass in units of that task
(``wall_ref``), so that drift in the shared host's speed cancels; the raw
median pass time prints as ``info wall_s``.  Every pass is checked; a wrong
output counts as a failed command and never stops the run.

``--trace 1`` runs the commands of the first variant in process through
``rbpair.cli.main``, in three passes: traced, untraced, traced.  In a
traced pass every traced function is wrapped (see tracer.py).  It
reports per-layer call counts and self times from the first traced pass and
the traced / untraced wall-time ratio, requires both traced passes to make
identical calls, and writes the first traced pass's spans to
``.rbbench-out/``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it print each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".rbbench-out"

CHILD_ENV = {"PYTHONPATH": str(SRC), "RBPAIR_MAX_GROUP_ORDER": "24"}
HELP = ["-m", "rbpair", "--help"]
REFERENCE = [str(Path(__file__).resolve().parent / "reference.py")]
VARIANTS = 8          # seeded input variants per run, cycled over passes
SETUP_FIRST = 3       # `python -m rbpair --help` runs before the first pass
SETUP_PER_PASS = 2    # ... and after each pass
RUN_LIMIT_S = 170.0   # every run, traced or not, ends inside 180 s
KINDS = ("check", "construct", "decompose", "search", "verify_all")


@dataclass
class Outcome:
    """One finished command: wall time, peak RSS (KiB, 0 in process),
    exit code and captured output."""

    wall: float
    rss_kib: int
    returncode: int
    stdout: str
    stderr: str


# ------------------------------------------------------------------ running


def run_child(args, workdir: Path, deadline: float) -> Outcome:
    """Start ``python args`` and reap it with ``os.wait4``.

    The child is killed if it is still running at ``deadline`` (a
    ``time.monotonic`` value)."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    env = dict(os.environ, **CHILD_ENV)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=workdir, env=env,
                                stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss, proc.returncode,
                   out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"))


def run_in_process(argv) -> Outcome:
    """Call ``rbpair.cli.main(argv)`` with stdout and stderr captured.

    An uncaught exception gives exit code 1 and its traceback on stderr, as
    it would in a child process."""
    from rbpair import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the program crashed: a failed command, not ours
            traceback.print_exc()
            code = 1
    return Outcome(time.perf_counter() - start, 0, code,
                   out.getvalue(), err.getvalue())


def run_pass(commands, invoke) -> tuple[float, list[Outcome]]:
    """Run the command list in order; returns pass wall time and outcomes."""
    start = time.perf_counter()
    outcomes = [invoke(cmd.argv) for cmd in commands]
    return time.perf_counter() - start, outcomes


def label(argv) -> str:
    return " ".join(Path(a).name if os.sep in a else a for a in argv)


def judge(cmd, outcome: Outcome) -> str | None:
    """Why this command's output is wrong, or None when it is correct."""
    if outcome.returncode != 0:
        tail = outcome.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"exit code {outcome.returncode}: {tail[0]}"
    try:
        return cmd.gate(outcome.stdout)
    except Exception as exc:  # a broken artifact is a failed op, not a crash
        return f"output check raised {type(exc).__name__}: {exc}"


def judge_pass(commands, outcomes) -> list[str]:
    failures = []
    for cmd, outcome in zip(commands, outcomes):
        why = judge(cmd, outcome)
        if why is not None:
            failures.append(f"{label(cmd.argv)}: {why}")
    return failures


# ------------------------------------------------------------------ metrics


def pass_figures(commands, outcomes) -> dict[str, float]:
    """Per-kind child wall sums and the throughputs of one pass."""
    from workloads import data_lines, suite_verdicts

    kind_s = dict.fromkeys(KINDS, 0.0)
    operators = suites = 0
    for cmd, outcome in zip(commands, outcomes):
        kind_s[cmd.kind] += outcome.wall
        if cmd.kind == "search":
            operators += data_lines(outcome.stdout).get("count", 0)
        if cmd.kind == "verify_all":
            suites += sum(suite_verdicts(outcome.stdout))
    figures = {f"{kind}_s": s for kind, s in kind_s.items() if s}
    if operators and kind_s["search"]:
        figures["operators_per_s"] = operators / kind_s["search"]
    if suites and kind_s["verify_all"]:
        figures["suites_per_s"] = suites / kind_s["verify_all"]
    return figures


INFO_UNITS = {"operators_per_s": "1/s", "suites_per_s": "1/s"}


def timed_run(variants, seconds: int, workdir: Path, deadline: float) -> dict:
    """Untraced end-to-end passes; returns the result object.

    The reference task runs before the first command and after every
    command.  A pass's ``wall_ref`` is the sum over its commands of the
    command's wall time divided by the mean of the two reference times
    around it.  Set-up samples run after every pass, so they too see the
    machine the passes saw."""
    attempted, failures = 0, []

    def sample(args, count: int) -> list[float]:
        nonlocal attempted
        walls = []
        for _ in range(count):
            outcome = run_child(args, workdir, deadline)
            attempted += 1
            if outcome.returncode != 0:
                failures.append(f"{label(args)}: exit code {outcome.returncode}")
            walls.append(outcome.wall)
        return walls

    run_child(HELP, workdir, deadline)          # compile bytecode once
    setup = sample(HELP, SETUP_FIRST)
    refs = sample(REFERENCE, 1)
    walls, in_refs, figures, peaks_kib = [], [], [], []
    measured = 0.0
    # Stop at the pass that ends nearest to ``seconds`` of measured time.
    while not walls or measured + measured / len(walls) / 2 < seconds:
        if walls and time.monotonic() + 1.5 * max(walls) > deadline:
            break
        commands = variants[len(walls) % len(variants)]
        outcomes, units = [], 0.0
        for cmd in commands:
            outcome = run_child(["-m", "rbpair", *cmd.argv], workdir, deadline)
            refs += sample(REFERENCE, 1)
            units += outcome.wall / statistics.mean(refs[-2:])
            outcomes.append(outcome)
        attempted += len(commands)
        failures += judge_pass(commands, outcomes)
        walls.append(sum(o.wall for o in outcomes))
        in_refs.append(units)
        measured += walls[-1]
        figures.append(pass_figures(commands, outcomes))
        peaks_kib.append(max(o.rss_kib for o in outcomes))
        setup += sample(HELP, SETUP_PER_PASS)

    metrics = {"wall_ref": (statistics.median(in_refs), "ref"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (statistics.median(peaks_kib) / 1024, "MiB")}
    info = {}
    for key in sorted({k for f in figures for k in f}):
        info[key] = (statistics.median(f.get(key, 0.0) for f in figures),
                     INFO_UNITS.get(key, "s"))
    info["wall_s"] = (statistics.median(walls), "s")
    info["reference_s"] = (statistics.median(refs), "s")
    info["passes"] = (len(walls), "count")
    return {"attempted": attempted, "failures": failures,
            "metrics": metrics, "info": info}


def traced_run(commands, workload: str, seed: int, deadline: float) -> dict:
    """In-process passes: traced, untraced, traced.

    The untraced pass sits between the traced ones, so a slow drift of the
    machine's speed cancels out of ``trace.overhead``."""
    from tracer import Recording, Tracer, per_layer_names

    os.environ.update(CHILD_ENV)
    attempted, failures = 0, []
    tracer = Tracer()
    recordings, walls = [], {False: [], True: []}
    for traced in (True, False, True):
        if walls[True] and time.monotonic() + 1.5 * walls[True][-1] > deadline:
            failures.append("no time left for the second traced pass")
            break
        if traced:
            tracer.install()
            tracer.recording = Recording()
        try:
            wall, outcomes = run_pass(commands, run_in_process)
        finally:
            if traced:
                recordings.append(tracer.recording)
                tracer.recording = None
                tracer.uninstall()
        walls[traced].append(wall)
        attempted += len(commands)
        failures += judge_pass(commands, outcomes)

    first = recordings[0]
    for other in recordings[1:]:
        differ = sorted(name for name in set(first.calls) | set(other.calls)
                        if first.calls[name] != other.calls[name])
        if differ:
            failures.append("traced passes disagree on the call counts of "
                            + ", ".join(differ))
    OUT.mkdir(exist_ok=True)
    first.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")

    values = {
        "io.parse.self_s": first.self_s["io.parse"],
        "io.write.self_s": first.self_s["io.write"],
        "io.bytes_written": first.bytes_written,
        "reports.render.self_s": first.self_s["reports.render"],
        "reports.checks": first.checks_rendered,
        "cli.main.calls": first.calls["cli.main"],
        "cli.main.total_s": first.total_s["cli.main"],
        # Without an untraced pass the run has failed already; report 1.
        "trace.overhead": (statistics.mean(walls[True])
                           / statistics.mean(walls[False] or walls[True])),
    }
    metrics = {}
    for name, unit in per_layer_names():
        if name not in values:
            span, _, field = name.rpartition(".")
            values[name] = (first.calls[span] if field == "calls"
                            else first.self_s[span])
        metrics[name] = (values[name], unit)
    info = {"untraced_wall_s": (sum(walls[False]), "s"),
            "traced_wall_s": (statistics.mean(walls[True]), "s"),
            "spans": (len(first.spans), "count")}
    return {"attempted": attempted, "failures": failures,
            "metrics": metrics, "info": info}


# --------------------------------------------------------------------- main


def report(result: dict, header: str) -> None:
    print(header)
    print(f"environment: python {sys.version.split()[0]}, "
          f"nproc {len(os.sched_getaffinity(0))}, search --jobs 1, "
          f"RBPAIR_MAX_GROUP_ORDER={CHILD_ENV['RBPAIR_MAX_GROUP_ORDER']}")
    for why in result["failures"]:
        print(f"FAILED {why}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value} {unit}")
    for name, (value, unit) in result["info"].items():
        print(f"info {name} {value} {unit}")
    failed = len(result["failures"])
    print(f"info failed_ops {failed}/{result['attempted']} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rbpair" / "cli.py").is_file():
        print(f"error: no rbpair source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    build = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        rng = random.Random(args.seed)
        variants = []
        for v in range(VARIANTS):
            where = workdir / f"v{v}"
            where.mkdir()
            variants.append(build(rng, where))
        if args.trace:
            result = traced_run(variants[0], args.workload, args.seed, deadline)
        else:
            result = timed_run(variants, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(result, f"workload {args.workload} seed {args.seed} "
                   f"trace {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
