"""MsmProofServer: the serving loop end to end (fault-free paths)."""

import pytest

from repro.core.config import DistMsmConfig
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem
from repro.serve import (
    SHED_INFEASIBLE,
    SHED_QUEUE_FULL,
    MsmProofServer,
    PlanCache,
    ProofRequest,
    ServeConfig,
    bursty_trace,
    poisson_trace,
    serve_one_at_a_time,
)
from repro.serve.server import PLAN_MS
from repro.verify.servecheck import verify_serving
from repro.verify.timelinecheck import verify_timeline

BLS = curve_by_name("BLS12-381")
CONFIG = DistMsmConfig(window_size=10)


def _server(gpus=4, **kw):
    return MsmProofServer(
        MultiGpuSystem(gpus), CONFIG, ServeConfig(**kw)
    )


def _trace(count=12, rate=300.0, **kw):
    return poisson_trace(BLS, count, rate, seed=7, sizes=1 << 14, **kw)


def _assert_audit_clean(result):
    checked = verify_serving(
        result.requests, result.records, result.shed, result.timeline
    )
    assert checked.ok, [str(v) for v in checked.violations]
    tchecked = verify_timeline(result.timeline, faults=result.faults)
    assert tchecked.ok, [str(v) for v in tchecked.violations]


class TestOpenLoopServing:
    def test_every_request_served_and_audited(self):
        result = _server(gpu_groups=2, max_batch_size=4).serve(_trace())
        assert len(result.records) == 12
        assert result.shed == []
        _assert_audit_clean(result)

    def test_deterministic(self):
        a = _server(gpu_groups=2).serve(_trace())
        b = _server(gpu_groups=2).serve(_trace())
        assert a.metrics == b.metrics

    def test_no_request_starts_before_arrival(self):
        result = _server(gpu_groups=2, max_batch_size=4).serve(_trace())
        arrivals = {r.req_id: r.arrival_ms for r in result.requests}
        for record in result.records:
            assert record.start_ms >= arrivals[record.req_id] - 1e-9
            assert record.complete_ms > record.start_ms

    def test_life_cycle_monotone(self):
        for record in _server(gpu_groups=2).serve(_trace()).records:
            assert record.arrival_ms <= record.formed_ms <= record.admit_ms
            assert record.admit_ms <= record.start_ms <= record.complete_ms

    def test_batches_respect_max_size(self):
        result = _server(gpu_groups=1, max_batch_size=3).serve(_trace(15, 2000.0))
        assert result.batches
        assert max(len(b.requests) for b in result.batches) <= 3
        # a dense trace actually exercises the size trigger
        assert any(len(b.requests) == 3 for b in result.batches)

    def test_age_trigger_bounds_queue_wait(self):
        # sparse arrivals: batches close by age, never by size
        result = _server(gpu_groups=1, max_batch_size=8, max_wait_ms=2.0).serve(
            _trace(6, rate=50.0)
        )
        for record in result.records:
            assert record.formed_ms - record.arrival_ms <= 2.0 + 1e-9

    def test_plan_cache_reused_across_batches(self):
        result = _server(gpu_groups=1, max_batch_size=2).serve(_trace())
        stats = result.metrics.caches["plan"]
        assert stats["misses"] == 1  # one shape, one group size
        assert stats["hits"] >= 11

    def test_plan_misses_charge_batch_form_latency(self):
        cold = _server(gpu_groups=1, max_batch_size=4)
        result = cold.serve(_trace(4, rate=5000.0))
        first = min(result.records, key=lambda r: r.req_id)
        assert first.admit_ms - first.formed_ms >= PLAN_MS - 1e-9
        # batches after the first hit the cache: no planning charge
        later = [r for r in result.records if r.batch_id != first.batch_id]
        for record in later:
            assert record.admit_ms - record.formed_ms == pytest.approx(0.0, abs=1e-9)

    def test_duplicate_request_ids_rejected(self):
        requests = [
            ProofRequest(0, BLS, 1 << 12, arrival_ms=0.0),
            ProofRequest(0, BLS, 1 << 12, arrival_ms=1.0),
        ]
        with pytest.raises(ValueError, match="duplicate request id"):
            _server().serve(requests)

    def test_empty_workload(self):
        result = _server().serve([])
        assert result.records == [] and result.metrics.served == 0


class TestAdmissionIntegration:
    def test_queue_overflow_sheds(self):
        # a burst far beyond the queue bound must shed, not crash
        trace = bursty_trace(BLS, bursts=1, burst_size=12, gap_ms=1.0, sizes=1 << 14)
        result = MsmProofServer(
            MultiGpuSystem(2),
            CONFIG,
            ServeConfig(gpu_groups=1, max_batch_size=2, max_queue=4),
        ).serve(trace)
        assert any(e.reason == SHED_QUEUE_FULL for e in result.metrics.shed)
        assert result.metrics.served + result.metrics.shed_count() == 12
        _assert_audit_clean(result)

    def test_infeasible_deadlines_shed_once_service_known(self):
        # warm the plan cache so admission can judge feasibility, then
        # submit a request whose deadline is impossible
        cache = PlanCache()
        server = MsmProofServer(
            MultiGpuSystem(4),
            CONFIG,
            ServeConfig(gpu_groups=1, max_batch_size=2),
            plan_cache=cache,
        )
        warm = server.serve(_trace(2, rate=100.0))
        assert warm.metrics.served == 2
        service = cache.peek(
            server._engine_for(4), BLS, 1 << 14
        ).service_ms
        impossible = ProofRequest(
            100, BLS, 1 << 14, arrival_ms=0.0, deadline_ms=service * 0.5
        )
        result = server.serve([impossible])
        assert [e.reason for e in result.metrics.shed] == [SHED_INFEASIBLE]
        assert result.records == []

    def test_shed_requests_never_execute(self):
        trace = bursty_trace(BLS, bursts=1, burst_size=10, gap_ms=1.0, sizes=1 << 14)
        result = MsmProofServer(
            MultiGpuSystem(2),
            CONFIG,
            ServeConfig(gpu_groups=1, max_batch_size=2, max_queue=3),
        ).serve(trace)
        shed_ids = {e.request.req_id for e in result.shed}
        assert shed_ids
        for name in result.timeline.spans:
            for rid in shed_ids:
                assert not name.startswith(f"req{rid}.")


class TestBaselineComparison:
    def test_batching_beats_serial_p95_under_load(self):
        """The acceptance claim, in miniature."""
        trace = _trace(24, rate=2000.0)
        batched = _server(gpu_groups=1, max_batch_size=4, max_wait_ms=1.0).serve(
            trace
        )
        serial = serve_one_at_a_time(MultiGpuSystem(4), trace, CONFIG)
        assert batched.metrics.p95_ms < serial.metrics.p95_ms
        assert (
            batched.metrics.throughput_rps >= serial.metrics.throughput_rps - 1e-9
        )
        _assert_audit_clean(batched)
        _assert_audit_clean(serial)

    def test_serial_baseline_truly_serialises(self):
        trace = _trace(5, rate=3000.0)
        result = serve_one_at_a_time(MultiGpuSystem(2), trace, CONFIG)
        spans = result.timeline.spans
        ordered = sorted(
            (r.req_id for r in result.records),
            key=lambda rid: spans[f"req{rid}.a0:reduce"].end_ms,
        )
        for prev, cur in zip(ordered, ordered[1:]):
            reduce_end = spans[f"req{prev}.a0:reduce"].end_ms
            for name, span in spans.items():
                if name.startswith(f"req{cur}.") and ":gpu" in name:
                    assert span.start_ms >= reduce_end - 1e-9

    def test_overlap_false_requires_serial_shape(self):
        with pytest.raises(ValueError, match="one-at-a-time baseline"):
            ServeConfig(overlap=False, gpu_groups=2)
        with pytest.raises(ValueError, match="one-at-a-time baseline"):
            ServeConfig(overlap=False, max_batch_size=4)


class TestConfigValidation:
    def test_groups_bounded_by_gpus(self):
        with pytest.raises(ValueError, match="at least as many"):
            MsmProofServer(
                MultiGpuSystem(2), CONFIG, ServeConfig(gpu_groups=4)
            )

    def test_group_partition_is_contiguous_and_complete(self):
        server = MsmProofServer(
            MultiGpuSystem(7), CONFIG, ServeConfig(gpu_groups=3)
        )
        flat = [g for group in server.groups for g in group]
        assert flat == list(range(7))
        sizes = [len(g) for g in server.groups]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_batch_size": 0}, "max_batch_size"),
            ({"max_wait_ms": -1.0}, "max_wait_ms"),
            ({"max_queue": 0}, "max_queue"),
            ({"max_wait_ms": float("nan")}, "max_wait_ms"),
            ({"max_wait_ms": float("inf")}, "max_wait_ms"),
        ],
    )
    def test_batch_and_queue_bounds_validated(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**kwargs)
