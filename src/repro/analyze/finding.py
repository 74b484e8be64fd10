"""Finding records and report aggregation for the static analyzer.

:class:`Finding` is the one record every checker in the repo reports
with: the passes in :mod:`repro.analyze` anchor it to a source location,
the auditors in :mod:`repro.verify` to the subject they audited and the
op or address at fault.  Checkers collect findings rather than raising:
one analysis run collects *all* findings across all files and program
artifacts, and the CLI maps any finding to a non-zero exit status.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: finding severities, most severe first
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One invariant a checker could not discharge.

    Attributes
    ----------
    rule:
        Registered rule name, e.g. ``"det-unseeded-rng"`` (see
        :mod:`repro.analyze.registry`), or the auditor that found it
        (``"schedule"``, ``"timeline"``, ``"race"``, ...).
    path:
        Source file the finding is anchored to, an artifact label in
        angle brackets (``"<PACC dag>"``, ``"<plan>"``) for program-level
        findings with no file, or the audited subject.
    line:
        1-based source line; 0 when there is none.
    message:
        Human-readable description of the broken invariant.
    severity:
        ``"error"`` (the tree must not ship with it) or ``"warning"``.
    op:
        The operation, task or request at fault, when one is known.
    address:
        The memory location or resource at fault, when one is known,
        e.g. ``"global:bucket_sizes[3]"`` or ``"resource:gpu0"``.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"
    op: str | None = None
    address: str | None = None

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def __str__(self) -> str:
        anchor = f"{self.path}:{self.line}" if self.line else self.path
        pins = (("op", self.op), ("address", self.address))
        where = [f"{key} {value}" for key, value in pins if value is not None]
        loc = f" ({', '.join(where)})" if where else ""
        return f"{anchor}: [{self.rule}] {self.message}{loc}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class AnalysisReport:
    """Outcome of one analysis run: findings and checks.

    Any finding makes the run not :attr:`ok`.  ``checks`` lists every
    discharged proof obligation (interval bounds, register peaks, plan
    validations) the way the verify report lists passing checks.
    """

    findings: list[Finding] = field(default_factory=list)
    checks: list[str] = field(default_factory=list)
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def add_check(self, description: str) -> None:
        self.checks.append(description)

    def counts_by_rule(self) -> dict[str, int]:
        """Active finding count per rule name (sorted keys, zero-free)."""
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return {rule: counts[rule] for rule in sorted(counts)}

    def sorted_findings(self) -> list[Finding]:
        """Deterministic presentation order: path, line, rule, message."""
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule, f.message)
        )

    def render(self, verbose: bool = False) -> str:
        lines = []
        if verbose or self.ok:
            for check in self.checks:
                lines.append(f"  ok: {check}")
        for f in self.sorted_findings():
            lines.append(f"  {f.severity.upper()} {f}")
        status = "CLEAN" if self.ok else "DIRTY"
        lines.append(
            f"{status}: {self.files} files, {len(self.checks)} checks, "
            f"{len(self.findings)} findings"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files": self.files,
            "checks": list(self.checks),
            "counts_by_rule": self.counts_by_rule(),
            "findings": [f.as_dict() for f in self.sorted_findings()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)
