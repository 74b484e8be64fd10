"""Analysis orchestration: run the families, report.

The driver mirrors :mod:`repro.verify.driver`'s shape — one entry point
(:func:`analyze_paths`) that runs every requested family and returns one
:class:`~repro.analyze.finding.AnalysisReport` — but over *source and
program artifacts* instead of runtime results:

* ``determinism`` and ``units`` parse each Python file once and run
  their AST passes;
* ``intervals`` imports the kernel op DAGs and abstract-interprets them
  for every registered curve;
* ``plan`` pre-flight-checks *representative task plans built by the
  production emitters* (the batch scheduler and the MSM timeline
  emitters) — the same :func:`~repro.analyze.modelcheck.check_plan` the
  orchestration paths now call before every ``simulate``.

Heavy program imports stay inside the family functions so that importing
:mod:`repro.analyze` (as the engine's lazy pre-flight hook does) pulls in
nothing beyond the AST passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analyze import determinism, units
from repro.analyze.finding import AnalysisReport, Finding
from repro.analyze.registry import FAMILIES


def default_root() -> Path:
    """The ``repro`` package directory — what a bare CLI run analyzes."""
    return Path(__file__).resolve().parent.parent


def collect_files(paths: list[Path]) -> list[Path]:
    """Python files under ``paths``, sorted for deterministic output."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise ValueError(f"{path}: not a Python file or directory")
    return sorted(dict.fromkeys(files))


def _display_path(path: Path) -> str:
    """Path as reported in findings: cwd-relative when possible."""
    try:
        return str(path.resolve().relative_to(Path.cwd().resolve()))
    except ValueError:
        return str(path)


def analyze_source(
    source: str,
    path: str = "<source>",
    families: tuple[str, ...] = ("determinism", "units"),
) -> list[Finding]:
    """Run the source-scope families over one code string (test helper)."""
    tree = ast.parse(source, filename=path)
    findings: list[Finding] = []
    if "determinism" in families:
        findings.extend(determinism.lint(path, tree))
    if "units" in families:
        findings.extend(units.check_units(path, tree))
    return findings


def representative_plans() -> list[tuple[str, list]]:
    """Task plans from the production emitters, for the ``plan`` family.

    These are the shapes the orchestration layers actually submit: the
    cross-MSM scheduler's request interleaving over GPU groups and the MSM
    timeline's phase-barrier schedule.
    """
    from repro.core.distmsm import DistMsm
    from repro.core.msm_timeline import (
        GpuPhaseMs,
        MsmTimingBreakdown,
        emit_msm_tasks,
    )
    from repro.core.multi_msm import msm_job_from_estimate, schedule_pipeline
    from repro.curves.params import curve_by_name
    from repro.engine.resources import system_resources
    from repro.gpu.cluster import MultiGpuSystem

    curve = curve_by_name("BLS12-381")
    request = msm_job_from_estimate(
        DistMsm(MultiGpuSystem(2)), curve, 1 << 14, label="req"
    )
    batch = schedule_pipeline([request] * 3, gpu_groups=2)

    breakdown = MsmTimingBreakdown(
        per_gpu=[GpuPhaseMs(1.0, 4.0, 0.5, 0.8, 0.1) for _ in range(4)],
        visible_cpu_ms=2.0,
        window_reduce_ms=0.5,
        coordination_ms=0.2,
    )
    return [
        ("<batch-msm plan>", list(batch.engine_timeline.tasks)),
        ("<msm legacy plan>", emit_msm_tasks(breakdown, system_resources(4))),
    ]


def _analyze_plan_family() -> tuple[list[Finding], list[str]]:
    from repro.analyze.modelcheck import PlanError, check_plan

    findings: list[Finding] = []
    checks: list[str] = []
    for label, tasks in representative_plans():
        try:
            result = check_plan(tasks, label=label)
        except PlanError as exc:
            findings.extend(exc.findings)
        else:
            findings.extend(result.warnings)
            if not result.warnings:
                checks.append(
                    f"plan: {label} — {result.tasks} tasks pass pre-flight"
                )
    return findings, checks


def analyze_paths(
    paths: list[Path] | None = None,
    families: tuple[str, ...] | None = None,
) -> AnalysisReport:
    """Run the requested analysis families and return the report.

    ``paths`` defaults to the installed ``repro`` package; ``families``
    defaults to all four.
    """
    selected = tuple(families) if families is not None else FAMILIES
    for family in selected:
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {family!r}; choose from {', '.join(FAMILIES)}"
            )
    report = AnalysisReport()
    findings: list[Finding] = []

    source_families = [f for f in selected if f in ("determinism", "units")]
    if source_families:
        files = collect_files(paths if paths is not None else [default_root()])
        report.files = len(files)
        for file_path in files:
            display = _display_path(file_path)
            tree = ast.parse(file_path.read_text(), filename=display)
            if "determinism" in selected:
                findings.extend(determinism.lint(display, tree))
            if "units" in selected:
                findings.extend(units.check_units(display, tree))
        for family in source_families:
            report.add_check(f"{family}: {len(files)} files linted")

    if "intervals" in selected:
        from repro.analyze.intervals import analyze_kernels

        interval_findings, interval_checks = analyze_kernels()
        findings.extend(interval_findings)
        report.checks.extend(interval_checks)

    if "plan" in selected:
        plan_findings, plan_checks = _analyze_plan_family()
        findings.extend(plan_findings)
        report.checks.extend(plan_checks)
    report.findings = findings
    return report
