"""Report rendering and race-detector edge cases.

The cheap paths nobody exercises until they break: empty traces,
single-task timelines, the per-location violation cap (the race
detector's own suppression), and violation formatting with and without
op/address context.
"""

from repro.engine.resources import GPU_COMPUTE, Resource
from repro.engine.timeline import Task, simulate
from repro.gpu.trace import Kind, MemoryTrace, Space
from repro.verify.races import detect_races
from repro.analyze.finding import Finding
from repro.verify.report import VerificationReport
from repro.verify.timelinecheck import verify_timeline


class TestViolationRendering:
    def test_plain_violation(self):
        v = Finding("schedule", "PACC", 0, "peak exceeded")
        assert str(v) == "PACC: [schedule] peak exceeded"

    def test_op_context(self):
        v = Finding("spill", "PACC@5", 0, "use before reload", op="mul3")
        assert str(v) == "PACC@5: [spill] use before reload (op mul3)"

    def test_address_context(self):
        v = Finding(
            "race", "scatter", 0, "conflict", address="global:counts[3]"
        )
        assert str(v).endswith("(address global:counts[3])")

    def test_op_and_address_context(self):
        v = Finding("race", "s", 0, "m", op="w", address="shared:a[0]")
        assert "(op w, address shared:a[0])" in str(v)


class TestReportRendering:
    def test_empty_report_passes(self):
        report = VerificationReport()
        assert report.ok
        assert report.render() == "PASS: 0 checks, 0 violations"

    def test_checks_hidden_unless_verbose_or_clean(self):
        report = VerificationReport()
        report.add_check("something held")
        report.extend([Finding("x", "y", 0, "broke")])
        assert "something held" not in report.render(verbose=False)
        assert "something held" in report.render(verbose=True)
        assert "VIOLATION y: [x] broke" in report.render()
        assert report.render().endswith("FAIL: 1 checks, 1 violations")

    def test_merge_concatenates(self):
        a = VerificationReport()
        a.add_check("a")
        b = VerificationReport()
        b.extend([Finding("c", "s", 0, "m")])
        merged = a.merge(b)
        assert merged is a
        assert len(a.checks) == 1 and len(a.violations) == 1


def _racy_trace(threads: int) -> MemoryTrace:
    """``threads`` plain RMWs on one global address, no synchronisation."""
    trace = MemoryTrace()
    for t in range(threads):
        trace.record(
            Space.GLOBAL, "counts", 0, Kind.RMW,
            atomic=False, block=t, thread=0,
        )
    return trace


class TestRaceDetectorEdges:
    def test_empty_trace_is_clean(self):
        result = detect_races(MemoryTrace(), subject="empty")
        assert result.ok
        assert result.events == 0
        assert result.locations == 0

    def test_single_access_cannot_race(self):
        trace = MemoryTrace()
        trace.record(
            Space.GLOBAL, "out", 7, Kind.WRITE, atomic=False, block=0, thread=0
        )
        result = detect_races(trace)
        assert result.ok
        assert result.locations == 1

    def test_per_location_cap_suppresses_duplicate_pairs(self):
        # 4 threads -> 6 racing pairs, but one per location is reported
        result = detect_races(_racy_trace(4))
        assert len(result.violations) == 1

    def test_cap_is_adjustable(self):
        result = detect_races(_racy_trace(4), max_violations_per_location=3)
        assert len(result.violations) == 3

    def test_atomic_pairs_do_not_race(self):
        trace = MemoryTrace()
        for b in range(3):
            trace.record(
                Space.GLOBAL, "counts", 0, Kind.RMW,
                atomic=True, block=b, thread=0,
            )
        assert detect_races(trace).ok

    def test_barrier_separated_accesses_do_not_race(self):
        trace = MemoryTrace()
        trace.record(
            Space.SHARED, "buf", 0, Kind.WRITE, atomic=False, block=0, thread=0
        )
        trace.barrier(0)
        trace.record(
            Space.SHARED, "buf", 0, Kind.READ, atomic=False, block=0, thread=1
        )
        assert detect_races(trace).ok

    def test_reads_never_conflict(self):
        trace = MemoryTrace()
        for t in range(2):
            trace.record(
                Space.GLOBAL, "points", 5, Kind.READ,
                atomic=False, block=0, thread=t,
            )
        assert detect_races(trace).ok


class TestSingleTaskTimeline:
    def test_single_task_timeline_verifies(self):
        gpu = Resource("gpu0", GPU_COMPUTE, 0)
        timeline = simulate((Task("only", gpu, 2.5),))
        checked = verify_timeline(timeline, subject="one task")
        assert checked.ok
        assert timeline.total_ms == 2.5
