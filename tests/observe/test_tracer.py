"""Tracer core: span collection, stacks, aggregation, timeline transcription."""

import pytest

from repro.engine.faults import FaultPlan, GpuFailure, RetryPolicy, TransferError
from repro.engine.resources import system_resources
from repro.engine.timeline import Task, simulate
from repro.observe import Span, Tracer, phase_category, record_timeline


class TestSpan:
    def test_duration(self):
        assert Span("t", "gpu0", 1.0, 3.5).duration_ms == 2.5

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Span("t", "gpu0", 3.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Span("t", "gpu0", 0.0, float("inf"))


class TestTracer:
    def test_add_span_collects(self):
        t = Tracer()
        t.add_span("a", "gpu0", 0.0, 1.0, cat="scatter")
        t.add_span("b", "gpu1", 0.5, 2.0)
        assert [s.name for s in t.spans] == ["a", "b"]
        assert t.tracks == ["gpu0", "gpu1"]
        assert t.makespan_ms() == 2.0

    def test_busy_and_category_totals(self):
        t = Tracer()
        t.add_span("a", "gpu0", 0.0, 1.0, cat="scatter")
        t.add_span("b", "gpu0", 1.0, 4.0, cat="bucket-sum")
        t.add_span("c", "gpu1", 0.0, 2.0, cat="scatter")
        assert t.busy_ms() == {"gpu0": 4.0, "gpu1": 2.0}
        assert t.category_ms() == {"scatter": 3.0, "bucket-sum": 3.0}

    def test_instants(self):
        t = Tracer()
        t.instant("fault", "gpu0", 3.0, cat="fault", args={"reason": "killed"})
        assert t.instants[0].args == {"reason": "killed"}
        # instants extend the makespan even with no spans
        assert t.makespan_ms() == 3.0

    def test_annotate_merges_meta(self):
        t = Tracer()
        t.annotate(curve="BLS12-381", gpus=2)
        t.annotate(gpus=4)
        assert t.meta == {"curve": "BLS12-381", "gpus": 4}

    def test_empty_makespan_is_zero(self):
        assert Tracer().makespan_ms() == 0.0

    def test_summary_mentions_phases(self):
        t = Tracer("demo")
        t.add_span("a", "gpu0", 0.0, 1.0, cat="scatter")
        t.add_span("b", "gpu0", 1.0, 2.0, cat="transfer")
        text = t.summary()
        assert "demo" in text
        assert "scatter" in text and "transfer" in text
        assert "gpu0" in text


@pytest.fixture()
def rig():
    """Two GPUs, one link: each GPU's scatter, then its copy to the host."""
    res = system_resources(2)
    g0, g1 = res.gpus
    link = res.channels[0]
    return [
        Task("msm:scatter:g0", g0, 2.0, stage="scatter"),
        Task("msm:scatter:g1", g1, 3.0, stage="scatter"),
        Task("msm:xfer:g0", link, 1.0, ("msm:scatter:g0",), "transfer", 0.0, ("gpu0",)),
        Task("msm:xfer:g1", link, 1.0, ("msm:scatter:g1",), "transfer", 0.0, ("gpu1",)),
    ]


class TestRecordTimeline:
    def test_each_task_becomes_one_span_on_its_resource(self, rig):
        timeline = simulate(rig)
        trace = Tracer()
        record_timeline(trace, timeline, task_args={"msm:xfer:g1": {"bytes": 64}})
        spans = {s.name: s for s in trace.spans}
        assert spans.keys() == timeline.spans.keys()
        for name, task in timeline.spans.items():
            span = spans[name]
            assert (span.track, span.start_ms, span.end_ms) == (
                task.resource.name,
                task.start_ms,
                task.end_ms,
            )
            assert span.cat == phase_category(name)
            assert span.args["stage"] == task.stage
        assert spans["msm:xfer:g1"].args["bytes"] == 64
        assert trace.makespan_ms() == timeline.total_ms

    def test_failed_attempts_become_retry_spans(self, rig):
        # the copy msm:xfer:g0 runs [2.0, 3.0); the error at 2.2 aborts it
        timeline = simulate(
            rig,
            faults=FaultPlan.of(TransferError(0, 2.2)),
            retry=RetryPolicy(max_retries=3, backoff_base_ms=0.5),
        )
        trace = Tracer()
        record_timeline(trace, timeline)
        (retry,) = [s for s in trace.spans if s.cat == "retry"]
        assert retry.name == "msm:xfer:g0#a1"
        assert (retry.track, retry.start_ms, retry.end_ms) == ("node0-link", 2.0, 2.2)
        assert retry.args == {"attempt": 1, "retry_at_ms": pytest.approx(2.7)}
        assert "msm:xfer:g0" in {s.name for s in trace.spans}

    def test_terminal_failures_become_fault_instants(self, rig):
        timeline = simulate(rig, faults=FaultPlan.of(GpuFailure(1.0, 0)))
        trace = Tracer()
        record_timeline(trace, timeline)
        faults = {e.name: e for e in trace.instants}
        assert faults.keys() == {f.task for f in timeline.failures}
        assert faults.keys() == {"msm:scatter:g0", "msm:xfer:g0"}
        killed = faults["msm:scatter:g0"]
        assert (killed.track, killed.at_ms, killed.cat) == ("gpu0", 1.0, "fault")
        assert killed.args["reason"] == "killed"
        # a failed task leaves an instant, never a span
        assert not faults.keys() & {s.name for s in trace.spans}
