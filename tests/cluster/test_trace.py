"""Replayable cluster traces: format round-trip and deterministic replay."""

import pytest

from repro.cluster import (
    ClusterTrace,
    ProofCluster,
    TraceSegment,
    generate_requests,
    replay,
)
from repro.cluster.trace import diurnal_burst_trace
from repro.core.config import DistMsmConfig
from repro.verify.clustercheck import verify_cluster


def _small_trace() -> ClusterTrace:
    return diurnal_burst_trace(
        name="unit", seed=3, rate_rps=300.0, scale=0.3
    )


class TestFormat:
    def test_json_round_trip_is_identity(self):
        trace = _small_trace()
        assert ClusterTrace.from_json(trace.to_json()) == trace

    def test_save_load(self, tmp_path):
        trace = _small_trace()
        path = tmp_path / "trace.json"
        trace.save(path)
        assert ClusterTrace.load(path) == trace

    def test_unknown_format_rejected(self):
        trace = _small_trace()
        doctored = trace.to_json().replace(
            "repro.cluster.trace/v1", "someone.else/v9"
        )
        with pytest.raises(ValueError):
            ClusterTrace.from_json(doctored)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            TraceSegment(name="x", kind="tsunami", duration_ms=10.0)
        with pytest.raises(ValueError):
            TraceSegment(name="x", kind="warmup", duration_ms=0.0)
        with pytest.raises(ValueError):
            TraceSegment(
                name="x", kind="warmup", duration_ms=10.0,
                tenant_mix=(("acme", -1.0),),
            )

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("deadline_ms", float("nan"), "deadline_ms must be finite"),
            ("deadline_ms", float("inf"), "deadline_ms must be finite"),
            ("deadline_ms", 0.0, "deadline_ms must be > 0"),
            ("deadline_ms", -5.0, "deadline_ms must be > 0"),
            ("duration_ms", float("nan"), "duration_ms must be finite"),
            ("rate_rps", float("nan"), "rate_rps must be finite"),
            ("rate_rps", float("inf"), "rate_rps must be finite"),
            ("periods", float("nan"), "periods must be finite"),
            ("gap_ms", float("nan"), "gap_ms must be finite"),
            ("jitter_ms", float("nan"), "jitter_ms must be finite"),
            ("tenant_mix", (("acme", float("nan")),), "tenant_mix"),
        ],
    )
    def test_non_finite_or_non_positive_values_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=rf"segment 'day': {match}"):
            TraceSegment(**{"name": "day", "kind": "diurnal", "duration_ms": 10.0, field: value})

    def test_nan_deadline_in_a_trace_file_is_rejected_at_load(self):
        # before the check, every request got a NaN deadline and the SLO
        # ledger silently read zero violations
        doctored = _small_trace().to_json().replace(
            '"deadline_ms": null', '"deadline_ms": NaN', 1
        )
        with pytest.raises(ValueError, match="segment 'warmup': deadline_ms"):
            ClusterTrace.from_json(doctored)

    def test_duration_is_sum_of_segments(self):
        trace = _small_trace()
        assert trace.duration_ms == pytest.approx(
            sum(s.duration_ms for s in trace.segments)
        )


class TestGeneration:
    def test_replay_is_deterministic(self):
        a = generate_requests(_small_trace())
        b = generate_requests(_small_trace())
        assert [
            (r.req_id, r.arrival_ms, r.n, r.tenant, r.label) for r in a
        ] == [(r.req_id, r.arrival_ms, r.n, r.tenant, r.label) for r in b]

    def test_different_seed_different_arrivals(self):
        base = _small_trace()
        other = ClusterTrace(
            name=base.name, curve=base.curve, seed=base.seed + 1,
            segments=base.segments,
        )
        a = [r.arrival_ms for r in generate_requests(base)]
        b = [r.arrival_ms for r in generate_requests(other)]
        assert a != b

    def test_requests_are_ordered_and_in_window(self):
        trace = _small_trace()
        requests = generate_requests(trace)
        assert requests, "the canonical trace must generate work"
        assert [r.req_id for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival_ms for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a < trace.duration_ms for a in arrivals)

    def test_tenants_come_from_the_mix(self):
        requests = generate_requests(_small_trace())
        tenants = {r.tenant for r in requests}
        assert tenants <= {"acme", "zkmart"}
        assert len(tenants) == 2

    def test_deadline_class_stamps_requests(self):
        trace = diurnal_burst_trace(
            name="slo", seed=3, rate_rps=200.0, deadline_ms=40.0, scale=0.3
        )
        requests = generate_requests(trace)
        for r in requests:
            assert r.deadline_ms == pytest.approx(r.arrival_ms + 40.0)


class TestReplay:
    def test_replay_serves_the_trace_and_audits_clean(self):
        cluster = ProofCluster(
            2, gpus_per_node=2, config=DistMsmConfig(window_size=10)
        )
        result = replay(cluster, _small_trace())
        assert result.metrics.submitted == len(generate_requests(_small_trace()))
        assert result.metrics.served + len(result.shed) == result.metrics.submitted
        checked = verify_cluster(result, subject="trace replay")
        assert checked.ok, [str(v) for v in checked.all_violations()]
