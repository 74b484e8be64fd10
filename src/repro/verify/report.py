"""The audit contract: one finding record, one check result, one report.

Every auditor in :mod:`repro.verify` reports problems as
:class:`~repro.analyze.finding.Finding` values rather than raising — the
record the static analyzer emits too, with ``rule`` naming the auditor,
``path`` the audited subject, and ``op``/``address`` the operation or
location at fault.  An auditor returns a :class:`CheckResult`; a
verification run collects *all* violations across all registered kernels
and baselines into a :class:`VerificationReport`, prints each with enough
context to act on, and the CLI maps a non-empty report to a non-zero exit
status.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable

from repro.analyze.finding import Finding


@dataclass
class CheckResult:
    """One auditor's verdict on one subject.

    Subclasses name their auditor in ``checker`` (the ``rule`` of every
    violation they add) and declare only their own counters.
    """

    checker: ClassVar[str]
    subject: str
    violations: list[Finding] = field(default_factory=list, kw_only=True)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str, op: str | None = None, address: str | None = None) -> None:
        self.violations.append(
            Finding(self.checker, self.subject, 0, message, op=op, address=address)
        )


@dataclass
class VerificationReport:
    """Outcome of one verification run: every check run, every violation."""

    checks: list[str] = field(default_factory=list)
    violations: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add_check(self, description: str) -> None:
        self.checks.append(description)

    def extend(self, violations: Iterable[Finding]) -> None:
        self.violations.extend(violations)

    def fail(self, checker: str, subject: str, message: str) -> None:
        """Record a violation found outside any auditor."""
        self.violations.append(Finding(checker, subject, 0, message))

    def render(self, verbose: bool = False) -> str:
        lines = []
        if verbose or self.ok:
            for check in self.checks:
                lines.append(f"  ok: {check}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        status = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{status}: {len(self.checks)} checks, {len(self.violations)} violations"
        )
        return "\n".join(lines)
