"""Certificates: named pass/fail checks bundled into reports.

A ``Check`` records one verified identity.  Passing checks carry no witness;
failing checks always carry one, so a refutation is never bare.  A ``Report``
aggregates checks for one subject and renders deterministically to JSON or
text (stable ordering, no timestamps), which keeps command output
byte-reproducible.

Checks marked ``required=False`` are informational: they record whether a
candidate identity holds without deciding the report's overall verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Check:
    """One named verification outcome, anchored to the law it tests."""

    name: str
    anchor: str
    holds: bool
    witness: str | None = None
    required: bool = True

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise ValueError(f"passing check {self.name!r} must not carry a witness")
        if not self.holds and not self.witness:
            raise ValueError(f"failing check {self.name!r} must carry a witness")

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "anchor": self.anchor, "holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness
        if not self.required:
            out["required"] = False
        return out


def passed(name: str, anchor: str, *, required: bool = True) -> Check:
    return Check(name, anchor, True, None, required)


def failed(name: str, anchor: str, witness: str, *, required: bool = True) -> Check:
    return Check(name, anchor, False, witness, required)


def checked(name: str, anchor: str, witness: str | None, *, required: bool = True) -> Check:
    """Build a pass/fail check from an optional counterexample witness."""
    if witness is None:
        return passed(name, anchor, required=required)
    return failed(name, anchor, witness, required=required)


@dataclass
class Report:
    """An ordered bundle of checks about a single subject."""

    subject: str
    checks: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks if c.required)

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    def extend(self, checks) -> None:
        for check in checks:
            self.add(check)

    def merge(self, other: "Report", prefix: str = "") -> None:
        for check in other.checks:
            if prefix:
                check = replace(check, name=f"{prefix}{check.name}")
            self.add(check)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.holds and c.required]

    def to_dict(self) -> dict:
        out = {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }
        for key in sorted(self.data):
            out[key] = self.data[key]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        for c in self.checks:
            tag = "PASS" if c.holds else ("FAIL" if c.required else "info:no")
            line = f"{tag:7s} {c.name} [{c.anchor}]"
            if c.witness is not None:
                line += f" witness: {c.witness}"
            lines.append(line)
        for key in sorted(self.data):
            lines.append(f"{key}: {json.dumps(self.data[key], sort_keys=True)}")
        lines.append("verdict: " + ("all checks hold" if self.ok else "refuted"))
        return "\n".join(lines) + "\n"
