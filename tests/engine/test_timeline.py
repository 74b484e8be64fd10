"""The event loop itself: dispatch order, resources, stages, reporting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.engine import (
    GPU_COMPUTE,
    HOST_CPU,
    Resource,
    Stage,
    Task,
    TimelineBuilder,
    simulate,
    system_resources,
)

GPU = Resource("gpu0", GPU_COMPUTE, 0)
GPU1 = Resource("gpu1", GPU_COMPUTE, 1)
CPU = Resource("cpu", HOST_CPU)


class TestSimulate:
    def test_empty(self):
        t = simulate([])
        assert t.total_ms == 0.0
        assert t.spans == {}
        assert t.critical_path() == []
        assert t.utilization() == {}

    def test_single_task(self):
        t = simulate([Task("a", GPU, 5.0)])
        assert t.total_ms == 5.0
        assert t.span("a").start_ms == 0.0
        assert t.span("a").end_ms == 5.0

    def test_dependency_ordering(self):
        t = simulate([
            Task("a", GPU, 3.0),
            Task("b", CPU, 2.0, deps=("a",)),
        ])
        assert t.span("b").start_ms == 3.0
        assert t.total_ms == 5.0

    def test_resource_serialises_fifo(self):
        t = simulate([Task("a", GPU, 3.0), Task("b", GPU, 2.0)])
        # same resource: b queues behind a even with no dependency
        assert t.span("b").start_ms == 3.0
        assert t.total_ms == 5.0

    def test_independent_resources_run_concurrently(self):
        t = simulate([Task("a", GPU, 3.0), Task("b", CPU, 2.0)])
        assert t.span("a").start_ms == 0.0
        assert t.span("b").start_ms == 0.0
        assert t.total_ms == 3.0

    def test_diamond(self):
        t = simulate([
            Task("src", GPU, 1.0),
            Task("left", GPU, 2.0, deps=("src",)),
            Task("right", GPU1, 4.0, deps=("src",)),
            Task("sink", CPU, 1.0, deps=("left", "right")),
        ])
        assert t.span("sink").start_ms == 5.0
        assert t.total_ms == 6.0
        assert t.critical_path() == ["src", "right", "sink"]

    def test_zero_duration_tasks_allowed(self):
        t = simulate([Task("marker", CPU, 0.0)])
        assert t.total_ms == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative duration"):
            Task("bad", GPU, -1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="'bad': non-finite duration"):
            Task("bad", GPU, duration)

    def test_negative_release_time_rejected(self):
        with pytest.raises(ValueError, match="negative release time"):
            Task("bad", GPU, 1.0, not_before_ms=-1.0)

    def test_nan_release_time_rejected(self):
        with pytest.raises(ValueError, match="'bad': NaN release time"):
            Task("bad", GPU, 1.0, not_before_ms=math.nan)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            simulate([Task("a", GPU, 1.0), Task("a", CPU, 1.0)])

    def test_unknown_dep_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            simulate([Task("a", GPU, 1.0, deps=("ghost",))])

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            simulate([
                Task("a", GPU, 1.0, deps=("b",)),
                Task("b", GPU, 1.0, deps=("a",)),
            ])

    def test_deterministic_tie_break_by_submission_order(self):
        # both ready at t=0 on one resource: submission order wins
        t = simulate([Task("second", GPU, 1.0), Task("first", GPU, 1.0)])
        assert t.span("second").start_ms == 0.0
        assert t.span("first").start_ms == 1.0


class TestReporting:
    def _timeline(self):
        return simulate([
            Task("g", GPU, 4.0, stage="compute"),
            Task("c", CPU, 1.0, deps=("g",), stage="reduce"),
        ])

    def test_busy_and_utilization(self):
        t = self._timeline()
        assert t.busy_ms() == {"gpu0": 4.0, "cpu": 1.0}
        util = t.utilization()
        assert util["gpu0"] == pytest.approx(0.8)
        assert util["cpu"] == pytest.approx(0.2)

    def test_stage_spans(self):
        spans = self._timeline().stage_spans()
        assert spans["compute"] == (0.0, 4.0)
        assert spans["reduce"] == (4.0, 5.0)

    def test_render_mentions_resources(self):
        text = self._timeline().render(width=20)
        assert "gpu0" in text and "cpu" in text
        assert "makespan" in text

    def test_critical_path_follows_queue_binding(self):
        t = simulate([
            Task("a", GPU, 3.0),
            Task("b", GPU, 2.0),  # queued behind a, no dep edge
        ])
        assert t.critical_path() == ["a", "b"]


class TestBuilder:
    def test_barrier_stages_serialise_phases(self):
        b = TimelineBuilder()
        b.barrier_stage("phase1")
        b.add("p1-a", GPU, 2.0)
        b.add("p1-b", GPU1, 3.0)
        b.barrier_stage("phase2")
        b.add("p2-a", GPU, 1.0)
        t = b.build()
        # phase2 waits for the slowest phase-1 task despite a free gpu0
        assert t.span("p2-a").start_ms == 3.0
        assert [s.name for s in t.stages] == ["phase1", "phase2"]

    def test_empty_stage_keeps_the_previous_barrier(self):
        b = TimelineBuilder()
        b.barrier_stage("phase1")
        b.add("p1", GPU, 2.0)
        b.barrier_stage("empty")
        b.barrier_stage("phase3")
        b.add("p3", GPU1, 1.0)
        t = b.build()
        # an empty stage is no barrier of its own: phase3 waits for phase1
        assert t.span("p3").start_ms == 2.0
        assert [s.name for s in t.stages] == ["phase1", "empty", "phase3"]

    def test_stage_labels_recorded(self):
        b = TimelineBuilder()
        b.barrier_stage("only")
        b.add("x", GPU, 1.0)
        t = b.build()
        assert t.span("x").stage == "only"
        assert t.stages == (Stage("only", ("x",)),)


class TestSystemResources:
    def test_channels_per_node(self):
        r = system_resources(16)
        assert len(r.gpus) == 16
        assert len(r.channels) == 2
        assert r.channel_for_gpu(0).name == "node0-link"
        assert r.channel_for_gpu(8).name == "node1-link"
        assert len(r.all()) == 19

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            system_resources(0)


class TestScheduleProperties:
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        chain=st.booleans(),
    )
    def test_makespan_bounds(self, durations, chain):
        """Makespan is at least the busiest resource and at most the sum."""
        tasks = []
        for i, d in enumerate(durations):
            res = GPU if i % 2 == 0 else CPU
            deps = (f"t{i-1}",) if chain and i > 0 else ()
            tasks.append(Task(f"t{i}", res, d, deps=deps))
        t = simulate(tasks)
        busiest = max(t.busy_ms().values(), default=0.0)
        assert t.total_ms >= busiest - 1e-9
        assert t.total_ms <= sum(durations) + 1e-9
        if chain:
            assert t.total_ms == pytest.approx(sum(durations))
