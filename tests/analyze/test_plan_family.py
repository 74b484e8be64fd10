"""The analyzer's ``plan`` family over the production task emitters.

``tests/analyze/test_modelcheck.py`` drives the plan checker with
hand-built plans; here it checks the plans the run-time layers actually
emit (``representative_plans``), and each defect class is planted into
those production shapes to show it is still caught there.
"""

from dataclasses import replace

import pytest

from repro.analyze.driver import analyze_paths, representative_plans
from repro.analyze.modelcheck import PlanError, check_plan
from repro.core.msm_timeline import (
    GpuPhaseMs,
    MsmTimingBreakdown,
    build_msm_timeline,
    emit_msm_tasks,
)
from repro.engine.resources import system_resources

LABELS = (
    "<batch-msm plan>",
    "<msm legacy plan>",
    "<serve plan>",
    "<distmsm recovery plan>",
)


@pytest.fixture(scope="module")
def plans():
    return dict(representative_plans())


def rules_of(tasks, label):
    with pytest.raises(PlanError) as exc:
        check_plan(tasks, label=label)
    return {finding.rule for finding in exc.value.findings}


def test_the_four_emitters_are_represented(plans):
    assert tuple(plans) == LABELS


def test_the_serve_plan_retries_on_the_rejected_reduce(plans):
    tasks = plans["<serve plan>"]
    assert any(
        dep.endswith(".a0:reduce") for t in tasks if ".a1:gpu" in t.name for dep in t.deps
    )


@pytest.mark.parametrize("label", LABELS)
def test_passes_preflight_without_warnings(plans, label):
    result = check_plan(plans[label], label=label)
    assert result.ok and not result.warnings
    assert result.tasks == len(plans[label])


@pytest.mark.parametrize("label", LABELS)
def test_a_duplicated_task_is_caught(plans, label):
    tasks = list(plans[label])
    assert "plan-duplicate-task" in rules_of(tasks + [tasks[-1]], label)


@pytest.mark.parametrize("label", LABELS)
def test_a_dangling_dependency_is_caught(plans, label):
    tasks = list(plans[label])
    tasks[-1] = replace(tasks[-1], deps=tasks[-1].deps + ("no-such-task",))
    assert "plan-unknown-dep" in rules_of(tasks, label)


@pytest.mark.parametrize("label", LABELS)
def test_a_self_dependency_is_a_cycle(plans, label):
    tasks = list(plans[label])
    tasks[0] = replace(tasks[0], deps=tasks[0].deps + (tasks[0].name,))
    assert "plan-cycle" in rules_of(tasks, label)


def test_plan_family_reports_one_check_per_plan():
    report = analyze_paths(families=("plan",))
    assert report.ok
    assert report.files == 0
    assert [c.split(" — ")[0] for c in report.checks] == [
        f"plan: {label}" for label in LABELS
    ]


def test_emitted_tasks_are_what_the_timeline_schedules():
    breakdown = MsmTimingBreakdown(
        per_gpu=[GpuPhaseMs(1.0, 4.0, 0.5, 0.8, 0.1) for _ in range(2)],
        visible_cpu_ms=2.0,
        window_reduce_ms=0.5,
        coordination_ms=0.2,
    )
    resources = system_resources(2)
    tasks = emit_msm_tasks(breakdown, resources)
    timeline = build_msm_timeline(breakdown, resources)
    assert sorted(t.name for t in tasks) == sorted(timeline.spans)


def test_emission_rejects_more_gpus_than_resources():
    breakdown = MsmTimingBreakdown(
        per_gpu=[GpuPhaseMs(1.0, 1.0, 1.0, 1.0, 1.0) for _ in range(3)],
        visible_cpu_ms=0.0,
        window_reduce_ms=0.0,
        coordination_ms=0.0,
    )
    with pytest.raises(ValueError):
        emit_msm_tasks(breakdown, system_resources(2))
