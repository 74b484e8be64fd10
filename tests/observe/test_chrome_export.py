"""Chrome trace-event export: format, determinism, golden-trace regression.

The golden files under ``tests/observe/golden/`` are committed canonical
exports of a 2-GPU MSM estimate and a 3-request serve run; the tests
assert the export reproduces them *byte for byte* (sorted keys, Python's
deterministic float repr), so any change to the trace schema or to the
recorded schedules is a visible diff, not a silent drift.
"""

import json
from pathlib import Path

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem
from repro.observe import Tracer, to_chrome_trace

GOLDEN_DIR = Path(__file__).parent / "golden"


def build_msm_trace() -> Tracer:
    """The canonical traced 2-GPU MSM estimate (fully deterministic)."""
    curve = curve_by_name("BLS12-381")
    trace = Tracer("golden-msm-2gpu")
    DistMsm(MultiGpuSystem(2), DistMsmConfig(window_size=10)).estimate(
        curve, 1 << 16, trace=trace
    )
    return trace


def build_serve_trace() -> Tracer:
    """The canonical traced 3-request serve run (fully deterministic)."""
    from repro.serve import MsmProofServer, ServeConfig, poisson_trace

    curve = curve_by_name("BLS12-381")
    trace = Tracer("golden-serve-3req")
    server = MsmProofServer(
        MultiGpuSystem(2), DistMsmConfig(window_size=10), ServeConfig(max_batch_size=2)
    )
    server.serve(
        poisson_trace(curve, count=3, rate_rps=200.0, seed=7, sizes=1 << 14),
        trace=trace,
    )
    return trace


class TestChromeFormat:
    def test_event_structure(self):
        trace = Tracer("fmt")
        trace.add_span("work", "gpu0", 1.0, 3.0, cat="scatter", args={"gpu": 0})
        trace.instant("died", "gpu0", 2.5, cat="fault")
        trace.annotate(curve="BLS12-381")
        doc = to_chrome_trace(trace)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["label"] == "fmt"
        assert doc["metadata"]["curve"] == "BLS12-381"
        by_ph = {}
        for event in doc["traceEvents"]:
            by_ph.setdefault(event["ph"], []).append(event)
        # one thread_name metadata event per track
        assert [m["args"]["name"] for m in by_ph["M"]] == ["gpu0"]
        (x,) = by_ph["X"]
        assert x["ts"] == 1000.0 and x["dur"] == 2000.0  # ms -> us
        assert x["cat"] == "scatter" and x["args"] == {"gpu": 0}
        (i,) = by_ph["i"]
        assert i["ts"] == 2500.0 and i["s"] == "t"
        assert set(by_ph) == {"M", "X", "i"}

    def test_tids_follow_sorted_tracks(self):
        trace = Tracer()
        trace.add_span("b", "zeta", 0.0, 1.0)
        trace.add_span("a", "alpha", 0.0, 1.0)
        doc = to_chrome_trace(trace)
        names = {m["tid"]: m["args"]["name"] for m in doc["traceEvents"] if m["ph"] == "M"}
        assert names == {1: "alpha", 2: "zeta"}

    def test_export_parses_and_counts_spans(self):
        trace = build_msm_trace()
        doc = json.loads(trace.to_chrome_json())
        x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x_events) == len(trace.spans)


class TestGoldenTraces:
    def test_export_is_deterministic(self):
        assert build_msm_trace().to_chrome_json() == build_msm_trace().to_chrome_json()

    def test_msm_golden_byte_stable(self):
        golden = (GOLDEN_DIR / "msm_2gpu.json").read_text()
        assert build_msm_trace().to_chrome_json(indent=2) + "\n" == golden

    def test_serve_golden_byte_stable(self):
        golden = (GOLDEN_DIR / "serve_3req.json").read_text()
        assert build_serve_trace().to_chrome_json(indent=2) + "\n" == golden

    def test_goldens_are_valid_chrome_traces(self):
        for name in ("msm_2gpu.json", "serve_3req.json"):
            doc = json.loads((GOLDEN_DIR / name).read_text())
            assert "traceEvents" in doc
            for event in doc["traceEvents"]:
                assert event["ph"] in {"M", "X", "i", "C"}
                if event["ph"] == "X":
                    assert event["dur"] >= 0.0
