"""Tracing disabled must cost nothing: no spans, no dicts, same timelines."""

import pytest

import repro.observe.tracer as tracer_mod
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.engine.resources import GPU_COMPUTE, Resource
from repro.engine.timeline import Task, simulate
from repro.gpu.cluster import MultiGpuSystem
from repro.observe import Tracer


class _Exploding:
    """Stands in for Span: any construction proves the hot path allocated."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("tracing object allocated with tracing disabled")


@pytest.fixture
def no_span_allocations(monkeypatch):
    """Make every Span construction fail for the duration of the test."""
    monkeypatch.setattr(tracer_mod, "Span", _Exploding)


def _tasks():
    gpu0 = Resource("gpu0", GPU_COMPUTE, 0)
    gpu1 = Resource("gpu1", GPU_COMPUTE, 1)
    return (
        Task("a:g0", gpu0, 2.0),
        Task("a:g1", gpu1, 3.0),
        Task("b:g0", gpu0, 1.0, deps=("a:g0", "a:g1")),
    )


class TestZeroOverhead:
    def test_simulate_without_tracer_allocates_nothing(self, no_span_allocations):
        timeline = simulate(_tasks())
        assert timeline.total_ms == 4.0

    def test_estimate_without_trace_allocates_nothing(
        self, no_span_allocations, bn254
    ):
        engine = DistMsm(MultiGpuSystem(2), DistMsmConfig(window_size=10))
        result = engine.estimate(bn254, 1 << 14)
        assert result.time_ms > 0

    def test_serve_without_trace_allocates_nothing(self, no_span_allocations, bn254):
        from repro.serve import MsmProofServer, ServeConfig, poisson_trace

        server = MsmProofServer(
            MultiGpuSystem(2), DistMsmConfig(window_size=10), ServeConfig()
        )
        served = server.serve(
            poisson_trace(bn254, count=2, rate_rps=100.0, seed=3, sizes=1 << 12)
        )
        assert served.metrics.served == 2

    def test_tracing_does_not_change_the_timeline(self, bn254):
        """The trace is a transcription; the schedule must be identical."""
        engine = DistMsm(MultiGpuSystem(2), DistMsmConfig(window_size=10))
        plain = engine.estimate(bn254, 1 << 14)
        traced = engine.estimate(bn254, 1 << 14, trace=Tracer())
        assert plain.time_ms == traced.time_ms
        assert plain.timeline.spans.keys() == traced.timeline.spans.keys()
        for name, span in plain.timeline.spans.items():
            other = traced.timeline.spans[name]
            assert (span.start_ms, span.end_ms) == (other.start_ms, other.end_ms)
