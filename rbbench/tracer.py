"""Per-layer spans recorded from outside rbpair.

The tracer wraps public functions of rbpair's modules and records one span
per call: an id, the id of the enclosing traced call, a name, and start and
end times from ``time.perf_counter``.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its direct
child spans; one thread runs everything, so children never overlap.

Modules import each other's functions by name (``from .matched_lie import
decompose_bicrossed``), so patching one module attribute is not enough: a
wrapper replaces the original in every loaded rbpair module whose globals
hold it.  Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions traced one by one ("Class.method" for methods).
LAYERS: dict[str, tuple[str, ...]] = {
    "matched_lie": (
        "decompose_bicrossed", "canonical_projections",
        "matched_pair_from_rb", "bicrossed_product", "bicrossed_certificates",
        "verify_matched_pair", "iso_first_factor",
        "iso_second_factor_quotient"),
    "linalg": (
        "Matrix.rref", "solve_linear", "kernel_vectors", "Subspace.intersect",
        "Subspace.coordinates_of", "Matrix.__matmul__", "Matrix.matvec"),
    "lie": (
        "LieAlgebra.bracket", "validate_lie_algebra", "induced_subalgebra",
        "quotient_by_ideal", "check_homomorphism"),
    "rb_lie": (
        "check_rota_baxter", "split_subalgebras", "descendent_algebra",
        "quotient_rb"),
    "quadratic": ("validate_quadratic", "check_compatibility", "manin_triple"),
    "rb_group": (
        "enumerate_rb_operators", "check_rb_group", "lemma_suite_group",
        "split_subgroups", "descendent_group"),
    "matched_group": (
        "matched_pair_from_rb_group", "verify_matched_pair_group",
        "bicrossed_group", "bicrossed_group_certificates",
        "canonical_group_projections", "iso_second_factor_quotient_group"),
    "groups": ("validate_group", "generated_subgroup", "normality_and_quotient"),
}


def _grouped_targets(io_module) -> dict[str, tuple[tuple[str, str], ...]]:
    """Span names that pool several functions: io parsing, io writing,
    report rendering, and the command entry point."""
    parse = sorted(name for name in vars(io_module)
                   if name.startswith("parse_") and callable(getattr(io_module, name)))
    return {
        "io.parse": tuple(("io", name)
                          for name in ["read_json", "load_group"] + parse),
        "io.write": (("io", "census_to_dict"), ("io", "dump_json"),
                     ("io", "write_json")),
        "reports.render": (("reports", "Report.to_text"),
                           ("reports", "Report.to_json")),
        "cli.main": (("cli", "main"),),
    }


class Recording:
    """Spans and per-name aggregates of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[list] = []   # open spans: [span id, child time]
        self.ids = itertools.count(1)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.bytes_written = 0
        self.checks_rendered = 0

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent id (0 at the top), name,
        start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


class Tracer:
    """Wraps rbpair functions; records into ``recording`` while it is set."""

    def __init__(self) -> None:
        self.recording: Recording | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.recording
            if rec is None:
                return fn(*args, **kwargs)
            stack = rec.stack
            span_id = next(rec.ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                rec.calls[name] += 1
                rec.self_s[name] += duration - frame[1]
                rec.total_s[name] += duration
                rec.spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(rec, args)
            return result

        traced.span_name = name
        return traced

    # ------------------------------------------------------------- patching

    def install(self, package: str = "rbpair") -> None:
        """Wrap every traced function and rebind it wherever it is imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # The command-line module imports every other one, so loading it
        # first leaves no importer of a traced function unpatched.
        importlib.import_module(f"{package}.cli")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == package or name.startswith(package + "."))}
        io_module = modules[f"{package}.io"]

        def count_bytes(rec: Recording, args) -> None:
            rec.bytes_written += os.stat(args[0]).st_size

        def count_checks(rec: Recording, args) -> None:
            rec.checks_rendered += len(args[0].checks)

        plan: list[tuple[str, str, str]] = []
        for layer, functions in LAYERS.items():
            plan.extend((f"{layer}.{qual}", layer, qual) for qual in functions)
        for span_name, targets in _grouped_targets(io_module).items():
            plan.extend((span_name, layer, qual) for layer, qual in targets)
        hooks = {("io", "write_json"): count_bytes,
                 ("reports", "Report.to_text"): count_checks,
                 ("reports", "Report.to_json"): count_checks}

        for span_name, layer, qual in plan:
            module = modules[f"{package}.{layer}"]
            cls_name, _, attr = qual.rpartition(".")
            owner = getattr(module, cls_name) if cls_name else module
            original = vars(owner)[attr]
            if hasattr(original, "span_name"):
                raise RuntimeError(f"{layer}.{qual} is already wrapped")
            wrapped = self._wrap(span_name, original, hooks.get((layer, qual)))
            if cls_name:
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in reporting order."""
    out = []
    for layer, functions in LAYERS.items():
        for qual in functions:
            out.append((f"{layer}.{qual}.calls", "count"))
            out.append((f"{layer}.{qual}.self_s", "s"))
    out += [("io.parse.self_s", "s"), ("io.write.self_s", "s"),
            ("io.bytes_written", "bytes"), ("reports.render.self_s", "s"),
            ("reports.checks", "count"), ("cli.main.calls", "count"),
            ("cli.main.total_s", "s"), ("trace.overhead", "ratio")]
    return out
