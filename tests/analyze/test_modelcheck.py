"""Pre-flight task-graph model checking: structure, liveness, FIFO, cascades."""

import pytest

from repro.analyze.modelcheck import PlanError, check_plan
from repro.engine.resources import GPU_COMPUTE, HOST_CPU, Resource
from repro.engine.timeline import Task, TimelineBuilder, simulate

GPU0 = Resource("gpu0", GPU_COMPUTE, 0)
GPU1 = Resource("gpu1", GPU_COMPUTE, 1)
CPU = Resource("cpu", HOST_CPU)


def findings_of(exc_info):
    return {(f.rule) for f in exc_info.value.findings}


class TestStructure:
    def test_clean_plan_passes(self):
        tasks = [
            Task("a", GPU0, 1.0),
            Task("b", CPU, 1.0, deps=("a",)),
        ]
        result = check_plan(tasks, label="<t>")
        assert result.ok
        assert result.tasks == 2
        assert result.warnings == []

    def test_duplicate_name_rejected(self):
        tasks = [Task("a", GPU0, 1.0), Task("a", GPU1, 1.0)]
        with pytest.raises(PlanError) as exc:
            check_plan(tasks)
        assert findings_of(exc) == {"plan-duplicate-task"}

    def test_unknown_dep_rejected(self):
        tasks = [Task("a", GPU0, 1.0, deps=("ghost",))]
        with pytest.raises(PlanError) as exc:
            check_plan(tasks)
        assert findings_of(exc) == {"plan-unknown-dep"}
        assert "ghost" in str(exc.value)


class TestLiveness:
    def test_cycle_rejected_with_concrete_cycle(self):
        tasks = [
            Task("a", GPU0, 1.0, deps=("c",)),
            Task("b", GPU0, 1.0, deps=("a",)),
            Task("c", GPU0, 1.0, deps=("b",)),
        ]
        with pytest.raises(PlanError) as exc:
            check_plan(tasks)
        assert "plan-cycle" in findings_of(exc)
        (cycle_finding,) = [
            f for f in exc.value.findings if f.rule == "plan-cycle"
        ]
        assert "->" in cycle_finding.message

    def test_task_behind_cycle_reported_unreachable(self):
        tasks = [
            Task("a", GPU0, 1.0, deps=("b",)),
            Task("b", GPU0, 1.0, deps=("a",)),
            Task("victim", CPU, 1.0, deps=("a",)),
        ]
        with pytest.raises(PlanError) as exc:
            check_plan(tasks)
        assert findings_of(exc) == {"plan-cycle", "plan-unreachable"}

    def test_catches_what_simulate_only_finds_late(self):
        # the acceptance fixture: simulate schedules the reachable prefix
        # and only then errors; check_plan refuses before any scheduling
        tasks = [
            Task("ok", GPU1, 1.0),
            Task("a", GPU0, 1.0, deps=("b",)),
            Task("b", GPU0, 1.0, deps=("a",)),
        ]
        with pytest.raises(PlanError):
            check_plan(tasks)
        with pytest.raises(ValueError, match="[Cc]ycle|unschedulable"):
            simulate(tuple(tasks))


class TestFifoDeadlock:
    def cross_stream_tasks(self):
        # each stream's first submission waits on the other's second:
        # acyclic deps, deadlocked in-order streams
        return [
            Task("a0", GPU0, 1.0, deps=("b1",)),
            Task("a1", GPU0, 1.0),
            Task("b0", GPU1, 1.0, deps=("a1",)),
            Task("b1", GPU1, 1.0),
        ]

    def test_simulate_hides_the_deadlock(self):
        # the readiness-FIFO engine reorders within a resource and
        # resolves the plan — exactly why the static check must exist
        timeline = simulate(tuple(self.cross_stream_tasks()))
        assert timeline.total_ms > 0

    def test_check_plan_rejects_it(self):
        with pytest.raises(PlanError) as exc:
            check_plan(self.cross_stream_tasks())
        assert findings_of(exc) == {"plan-fifo-deadlock"}
        (finding,) = exc.value.findings
        assert "in-order streams" in finding.message

    def test_topological_submission_order_passes(self):
        tasks = [
            Task("a1", GPU0, 1.0),
            Task("b1", GPU1, 1.0),
            Task("b0", GPU1, 1.0, deps=("a1",)),
            Task("a0", GPU0, 1.0, deps=("b1",)),
        ]
        assert check_plan(tasks).ok


class TestRequiresAlive:
    def test_cascade_tied_to_real_hazard_is_clean(self):
        tasks = [
            Task("work", GPU0, 2.0),
            Task("xfer", CPU, 1.0, deps=("work",), requires_alive=("gpu0",)),
        ]
        result = check_plan(tasks)
        assert result.ok and result.warnings == []

    def test_own_resource_is_redundant_warning(self):
        tasks = [Task("a", GPU0, 1.0, requires_alive=("gpu0",))]
        result = check_plan(tasks)
        assert result.ok  # warnings don't fail the plan
        assert [f.rule for f in result.warnings] == [
            "plan-requires-alive-redundant"
        ]

    def test_unknown_resource_is_typo_warning(self):
        tasks = [Task("a", GPU0, 1.0, requires_alive=("gpu9",))]
        result = check_plan(tasks)
        assert [f.rule for f in result.warnings] == [
            "plan-requires-alive-unknown"
        ]

    def test_unrelated_resource_guards_nothing(self):
        tasks = [
            Task("other", GPU1, 1.0),
            Task("a", GPU0, 1.0, requires_alive=("gpu1",)),
        ]
        result = check_plan(tasks)
        assert [f.rule for f in result.warnings] == [
            "plan-requires-alive-unrelated"
        ]


def _decision(check):
    """(error rules, warning rules) of one check."""
    try:
        result = check()
    except PlanError as exc:
        return {f.rule for f in exc.findings}, None
    return set(), [f.rule for f in result.warnings]


PREFIX = [Task("p0", GPU0, 1.0), Task("p1", GPU1, 1.0), Task("p2", CPU, 1.0, deps=("p0",))]

FIXTURES = {
    "duplicate": PREFIX + [Task("a", GPU0, 1.0), Task("a", GPU1, 1.0)],
    "duplicate-of-accepted": PREFIX + [Task("p1", CPU, 1.0)],
    "unknown-dep": PREFIX + [Task("a", GPU0, 1.0, deps=("ghost",))],
    "cycle": PREFIX + [
        Task("a", GPU0, 1.0, deps=("c",)),
        Task("b", GPU0, 1.0, deps=("a",)),
        Task("c", GPU0, 1.0, deps=("b",)),
    ],
    "behind-cycle": PREFIX + [
        Task("a", GPU0, 1.0, deps=("b",)),
        Task("b", GPU0, 1.0, deps=("a",)),
        Task("victim", CPU, 1.0, deps=("a", "p2")),
    ],
    "self-dep": PREFIX + [Task("a", GPU1, 1.0, deps=("a",))],
    "fifo-deadlock": PREFIX + [
        Task("a0", GPU0, 1.0, deps=("b1",)),
        Task("a1", GPU0, 1.0),
        Task("b0", GPU1, 1.0, deps=("a1",)),
        Task("b1", GPU1, 1.0),
    ],
    "topological": PREFIX + [
        Task("a1", GPU0, 1.0),
        Task("b1", GPU1, 1.0, deps=("p1",)),
        Task("b0", GPU1, 1.0, deps=("a1",)),
        Task("a0", GPU0, 1.0, deps=("b1",)),
        Task("x", CPU, 1.0, deps=("a0", "b0"), requires_alive=("gpu0", "gpu1")),
    ],
    "forward-dep": PREFIX + [
        Task("late-reader", CPU, 1.0, deps=("w",)),
        Task("w", GPU1, 1.0, deps=("p2",)),
    ],
}

#: (error rules, warning rules) check_plan decides for each fixture
DECISIONS = {
    "duplicate": ({"plan-duplicate-task"}, None),
    "duplicate-of-accepted": ({"plan-duplicate-task"}, None),
    "unknown-dep": ({"plan-unknown-dep"}, None),
    "cycle": ({"plan-cycle"}, None),
    "behind-cycle": ({"plan-cycle", "plan-unreachable"}, None),
    "self-dep": ({"plan-cycle"}, None),
    "fifo-deadlock": ({"plan-fifo-deadlock"}, None),
    "topological": (set(), []),
    "forward-dep": (set(), []),
}


class TestFixtureDecisions:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_decision(self, name):
        assert _decision(lambda: check_plan(FIXTURES[name], label="<t>")) == DECISIONS[name]

    def test_duplicate_message_counts_submissions(self):
        with pytest.raises(PlanError) as exc:
            check_plan(PREFIX + [Task("p0", GPU1, 1.0)], label="<t>")
        assert str(exc.value) == (
            "<t>: [plan-duplicate-task] task name 'p0' used by submissions #0 and #3"
        )


class TestOrchestrationWiring:
    def test_timeline_builder_build_meets_the_engine_check(self):
        b = TimelineBuilder()
        b.barrier_stage("only")
        b.add("a", GPU0, 1.0)
        b.add("a", GPU1, 1.0)
        with pytest.raises(ValueError, match="duplicate task name 'a'"):
            b.build()

    def test_batch_scheduler_emits_preflight_clean_plans(self):
        from repro.core.distmsm import DistMsm
        from repro.core.multi_msm import msm_job_from_estimate, schedule_pipeline
        from repro.curves.params import curve_by_name
        from repro.gpu.cluster import MultiGpuSystem

        curve = curve_by_name("BLS12-381")
        job = msm_job_from_estimate(DistMsm(MultiGpuSystem(1)), curve, 1 << 12)
        schedule = schedule_pipeline([job] * 3, gpu_groups=2)
        assert check_plan(schedule.engine_timeline.tasks, label="<batch>").ok
        assert schedule.pipelined_ms > 0
