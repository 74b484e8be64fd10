"""The timeline checker: valid schedules pass, each broken invariant bites."""

import pytest

from repro.engine.resources import GPU_COMPUTE, HOST_CPU, Resource
from repro.engine.timeline import Task, TaskSpan, Timeline, simulate
from repro.verify.fixtures import broken_timeline_check
from repro.verify.timelinecheck import verify_timeline

GPU = Resource("gpu0", GPU_COMPUTE, 0)
CPU = Resource("cpu", HOST_CPU)


def _valid_timeline() -> Timeline:
    return simulate([
        Task("a", GPU, 3.0),
        Task("b", GPU, 2.0),
        Task("c", CPU, 1.0, deps=("a", "b")),
    ])


class TestValidSchedules:
    def test_simulated_timeline_passes(self):
        checked = verify_timeline(_valid_timeline(), subject="valid")
        assert checked.ok, [str(v) for v in checked.violations]
        assert checked.tasks == 3
        assert checked.resources == 2

    def test_empty_timeline_passes(self):
        assert verify_timeline(simulate([]), subject="empty").ok


def _tamper(timeline: Timeline, **replacements) -> Timeline:
    spans = dict(timeline.spans)
    spans.update(replacements)
    return Timeline(
        tasks=timeline.tasks,
        spans=spans,
        total_ms=timeline.total_ms,
        stages=timeline.stages,
    )


class TestBrokenInvariants:
    def test_resource_overlap_detected(self):
        t = _tamper(
            _valid_timeline(), b=TaskSpan("b", GPU, 2.0, 4.0)
        )
        checked = verify_timeline(t, subject="overlap")
        assert any("overlap" in str(v) for v in checked.violations)
        assert any(v.address == "resource:gpu0" for v in checked.violations)

    def test_start_before_dependency_detected(self):
        t = _tamper(
            _valid_timeline(), c=TaskSpan("c", CPU, 1.0, 2.0)
        )
        checked = verify_timeline(t, subject="early start")
        assert any("before dependency" in str(v) for v in checked.violations)

    def test_duration_mismatch_detected(self):
        t = _tamper(
            _valid_timeline(), a=TaskSpan("a", GPU, 0.0, 1.0)
        )
        checked = verify_timeline(t, subject="short span")
        assert any("duration" in str(v) for v in checked.violations)

    def test_missing_span_detected(self):
        base = _valid_timeline()
        spans = {k: v for k, v in base.spans.items() if k != "c"}
        t = Timeline(base.tasks, spans, base.total_ms)
        checked = verify_timeline(t, subject="missing span")
        assert any("never scheduled" in str(v) for v in checked.violations)

    def test_wrong_makespan_detected(self):
        base = _valid_timeline()
        t = Timeline(base.tasks, dict(base.spans), base.total_ms + 1.0)
        checked = verify_timeline(t, subject="stale makespan")
        assert any("makespan" in str(v) for v in checked.violations)

    def test_negative_start_detected(self):
        t = _tamper(
            _valid_timeline(), a=TaskSpan("a", GPU, -3.0, 0.0)
        )
        checked = verify_timeline(t, subject="negative start")
        assert any("before t=0" in str(v) for v in checked.violations)


class TestFixture:
    def test_fixture_reports_all_three_faults(self):
        checked = broken_timeline_check()
        assert not checked.ok
        messages = [str(v) for v in checked.violations]
        assert any("overlap" in m for m in messages)
        assert any("before dependency" in m for m in messages)
        assert any("makespan" in m for m in messages)

    def test_fixture_violations_name_the_cpu(self):
        checked = broken_timeline_check()
        assert any(
            v.address == "resource:cpu" for v in checked.violations
        )
