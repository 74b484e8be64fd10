"""Bottleneck oracle: classification rules, Chrome ingestion, golden reports.

The golden files under ``tests/tune/golden/`` are committed
:class:`BottleneckReport` exports computed over the *observe* layer's
committed Chrome traces (``tests/observe/golden/``), so oracle
classification drift is caught byte-for-byte the same way Chrome-export
drift already is.  Regenerate after an intentional change with::

    PYTHONPATH=src python tests/tune/test_oracle.py regen
"""

import json
from pathlib import Path

import pytest

from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.counters import EventCounters
from repro.observe import Tracer
from repro.tune import (
    BOUND_ATOMICS,
    BOUND_MEMORY,
    BOUND_SYNC,
    analyze_result,
    analyze_trace,
    classify_phase,
)

from tests.tune.chrome import tracer_from_chrome

GOLDEN_DIR = Path(__file__).parent / "golden"
OBSERVE_GOLDEN_DIR = Path(__file__).parent.parent / "observe" / "golden"

#: (observe golden chrome trace, committed oracle report) pairs
GOLDEN_REPORTS = [
    ("msm_2gpu.json", "bottleneck_msm_2gpu.json"),
    ("serve_3req.json", "bottleneck_serve_3req.json"),
]


def golden_report_json(chrome_name: str) -> str:
    """The oracle report of one committed Chrome trace, as canonical JSON."""
    doc = json.loads((OBSERVE_GOLDEN_DIR / chrome_name).read_text())
    subject = chrome_name.removesuffix(".json")
    report = analyze_trace(tracer_from_chrome(doc), subject=subject)
    return report.to_json(indent=2) + "\n"


class TestClassification:
    def test_semantic_defaults(self):
        assert classify_phase("scatter", 1, 1.0) == BOUND_ATOMICS
        assert classify_phase("bucket-sum", 1, 1.0) == BOUND_MEMORY
        assert classify_phase("transfer", 1, 1.0) == BOUND_MEMORY
        assert classify_phase("launch", 1, 1.0) == BOUND_SYNC
        assert classify_phase("sync", 1, 1.0) == BOUND_SYNC

    def test_low_parallel_efficiency_means_sync_bound(self):
        # multi-track phase whose tracks mostly waited: coordination binds
        assert classify_phase("bucket-sum", 4, 0.2) == BOUND_SYNC
        # a single track cannot wait on itself
        assert classify_phase("bucket-sum", 1, 0.2) == BOUND_MEMORY
        # saturated tracks keep the semantic default
        assert classify_phase("bucket-sum", 4, 0.95) == BOUND_MEMORY

    def test_shared_atomics_refine_scatter_to_memory(self):
        hier = EventCounters(global_atomics=5, shared_atomics=995)
        naive = EventCounters(global_atomics=1000, shared_atomics=0)
        assert classify_phase("scatter", 2, 1.0, hier) == BOUND_MEMORY
        assert classify_phase("scatter", 2, 1.0, naive) == BOUND_ATOMICS
        # counters never override the sync re-classification
        assert classify_phase("scatter", 2, 0.1, hier) == BOUND_SYNC


class TestAnalyzeTrace:
    def build(self) -> Tracer:
        trace = Tracer("unit")
        trace.add_span("scatter w0", "gpu0", 0.0, 2.0, cat="scatter")
        trace.add_span("scatter w1", "gpu1", 0.0, 2.0, cat="scatter")
        trace.add_span("bucket sum w0", "gpu0", 2.0, 6.0, cat="bucket-sum")
        trace.add_span("d2h", "nic", 6.0, 8.0, cat="transfer")
        return trace

    def test_phase_folding(self):
        report = analyze_trace(self.build(), subject="unit")
        assert report.makespan_ms == 8.0
        assert report.audit_ok and report.audit_violations == 0
        scatter = next(p for p in report.phases if p.phase == "scatter")
        assert scatter.busy_ms == 4.0
        assert scatter.span_count == 2
        assert scatter.tracks == ("gpu0", "gpu1")
        # busy 4 over makespan 8 x 2 tracks
        assert scatter.utilization == pytest.approx(0.25)
        # busy 4 over envelope 2 x 2 tracks: fully saturated
        assert scatter.parallel_efficiency == pytest.approx(1.0)
        # busiest resource phase wins primary
        assert report.primary == "bucket-sum"
        assert report.primary_bound == BOUND_MEMORY

    def test_bound_totals_and_ordering(self):
        report = analyze_trace(self.build(), subject="unit")
        assert [p.phase for p in report.phases] == [
            "bucket-sum", "scatter", "transfer"
        ]
        assert report.bound_ms() == {"atomics": 4.0, "memory": 6.0}

    def test_audit_failure_is_reported_not_silent(self):
        trace = self.build()
        trace.add_span("partial overlap", "gpu0", 1.0, 3.0)  # straddles w0's end
        report = analyze_trace(trace, subject="bad")
        assert not report.audit_ok
        assert report.audit_violations >= 1
        with pytest.raises(ValueError, match="unauditable"):
            analyze_trace(trace, subject="bad", strict=True)

    def test_analyze_result_reconciles_against_timeline(self):
        result = DistMsm(MultiGpuSystem(2)).estimate(curve_by_name("BN254"), 1 << 16)
        report = analyze_result(result, subject="estimate")
        assert report.audit_ok
        assert report.makespan_ms == pytest.approx(result.time_ms)
        assert report.primary  # some resource phase was elected


class TestChromeIngestion:
    def test_roundtrip_preserves_spans_and_meta(self):
        from tests.observe.test_chrome_export import build_msm_trace

        original = build_msm_trace()
        rebuilt = tracer_from_chrome(json.loads(original.to_chrome_json()))
        assert rebuilt.label == original.label
        assert rebuilt.tracks == original.tracks
        assert rebuilt.makespan_ms() == pytest.approx(original.makespan_ms())
        assert len(rebuilt.spans) == len(original.spans)
        assert rebuilt.category_ms().keys() == original.category_ms().keys()
        for cat, ms in original.category_ms().items():
            assert rebuilt.category_ms()[cat] == pytest.approx(ms)

    def test_reports_agree_between_live_and_roundtripped(self):
        from tests.observe.test_chrome_export import build_msm_trace

        live = build_msm_trace()
        rebuilt = tracer_from_chrome(json.loads(live.to_chrome_json()))
        assert (
            analyze_trace(live, subject="x").to_json()
            == analyze_trace(rebuilt, subject="x").to_json()
        )


class TestGoldenReports:
    @pytest.mark.parametrize("chrome_name,report_name", GOLDEN_REPORTS)
    def test_byte_stable(self, chrome_name, report_name):
        expected = (GOLDEN_DIR / report_name).read_text()
        assert golden_report_json(chrome_name) == expected, (
            f"oracle report for {chrome_name} drifted from its golden; "
            f"regenerate with: PYTHONPATH=src python {__file__} regen"
        )

    def test_export_is_deterministic(self):
        name = GOLDEN_REPORTS[0][0]
        assert golden_report_json(name) == golden_report_json(name)


def regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for chrome_name, report_name in GOLDEN_REPORTS:
        path = GOLDEN_DIR / report_name
        path.write_text(golden_report_json(chrome_name))
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "regen" in sys.argv:
        regen()
    else:
        print(__doc__)
