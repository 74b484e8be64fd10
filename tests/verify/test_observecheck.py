"""The observe auditor: clean traces pass, every drift class is caught."""

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.engine.resources import GPU_COMPUTE, Resource
from repro.engine.timeline import Task, simulate
from repro.gpu.cluster import MultiGpuSystem
from repro.observe import Span, Tracer, record_timeline
from repro.verify.fixtures import FIXTURES, broken_trace_check, run_fixture
from repro.verify.observecheck import (
    verify_trace,
    verify_trace_against_timeline,
)

BLS = curve_by_name("BLS12-381")


def _simulated():
    gpu0 = Resource("gpu0", GPU_COMPUTE, 0)
    gpu1 = Resource("gpu1", GPU_COMPUTE, 1)
    tasks = (
        Task("msm:scatter:g0", gpu0, 2.0),
        Task("msm:scatter:g1", gpu1, 2.5),
        Task("msm:sum:g1", gpu1, 3.0, deps=("msm:scatter:g1",)),
    )
    trace = Tracer("unit")
    timeline = simulate(tasks)
    record_timeline(trace, timeline)
    return trace, timeline


class TestVerifyTrace:
    def test_recorded_trace_is_well_formed(self):
        trace, _ = _simulated()
        result = verify_trace(trace)
        assert result.ok, [str(v) for v in result.violations]
        assert result.spans == 3 and result.tracks == 2

    def test_partial_overlap_on_one_track_flagged(self):
        trace = Tracer()
        trace.add_span("a", "gpu0", 0.0, 2.0)
        trace.add_span("b", "gpu0", 1.0, 3.0)
        result = verify_trace(trace)
        assert not result.ok

    def test_proper_nesting_allowed(self):
        trace = Tracer()
        trace.add_span("outer", "cpu", 0.0, 5.0)
        trace.add_span("inner", "cpu", 0.0, 2.0)  # same start: still nested
        trace.add_span("inner2", "cpu", 2.0, 5.0)  # same end: still nested
        assert verify_trace(trace).ok

    def test_disjoint_tracks_never_conflict(self):
        trace = Tracer()
        trace.add_span("a", "gpu0", 0.0, 2.0)
        trace.add_span("b", "gpu1", 1.0, 3.0)
        assert verify_trace(trace).ok


class TestVerifyAgainstTimeline:
    def test_faithful_transcription_passes(self):
        trace, timeline = _simulated()
        result = verify_trace_against_timeline(trace, timeline)
        assert result.ok, [str(v) for v in result.violations]

    def test_missing_task_span_caught(self):
        _, timeline = _simulated()
        partial = Tracer("partial")
        record_timeline(partial, timeline)
        partial.spans[:] = [s for s in partial.spans if s.name != "msm:sum:g1"]
        result = verify_trace_against_timeline(partial, timeline)
        assert not result.ok

    def test_stretched_span_caught(self):
        trace, timeline = _simulated()
        idx = next(i for i, s in enumerate(trace.spans) if s.name == "msm:sum:g1")
        s = trace.spans[idx]
        trace.spans[idx] = Span(
            s.name, s.track, s.start_ms, s.end_ms + 0.5, s.cat, dict(s.args)
        )
        result = verify_trace_against_timeline(trace, timeline)
        assert not result.ok

    def test_fabricated_extra_span_caught(self):
        trace, timeline = _simulated()
        trace.add_span("ghost-task", "gpu0", 0.0, 1.0)
        result = verify_trace_against_timeline(trace, timeline)
        assert not result.ok

    def test_phase_serial_tiling_on_real_msm(self):
        """The acceptance criterion: per-stage envelopes tile the makespan
        exactly (sum of phase wall-times == reported makespan within 1e-9)."""
        trace = Tracer("msm")
        result = DistMsm(MultiGpuSystem(2), DistMsmConfig(window_size=10)).estimate(
            BLS, 1 << 16, trace=trace
        )
        checked = verify_trace_against_timeline(
            trace, result.timeline, phase_serial=True
        )
        assert checked.ok, [str(v) for v in checked.violations]

    def test_retry_spans_excluded_from_busy_accounting(self):
        """Timeline.busy_ms excludes aborted attempts; the auditor must
        apply the same exclusion to cat='retry' spans."""
        from repro.engine.faults import FaultPlan, GpuFailure

        trace = Tracer("chaos")
        result = DistMsm(MultiGpuSystem(4), DistMsmConfig(window_size=10)).estimate(
            BLS, 1 << 16, faults=FaultPlan.of(GpuFailure(0.05, 2)), trace=trace
        )
        assert any(s.cat == "retry" for s in trace.spans) or result.fault_report
        checked = verify_trace_against_timeline(trace, result.timeline)
        assert checked.ok, [str(v) for v in checked.violations]


class TestDriftFixture:
    def test_broken_trace_check_fails(self):
        result = broken_trace_check()
        assert not result.ok
        assert all(v.rule == "observe" for v in result.violations)

    def test_registered_and_runnable(self):
        assert "trace-drift" in FIXTURES
        report = run_fixture("trace-drift")
        assert not report.ok
