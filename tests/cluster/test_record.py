"""The Chrome-trace transcription of a finished cluster run
(``record_cluster``) and the cluster report's summary line."""

import json

import pytest

from repro.cluster import ProofCluster
from repro.cluster.record import ROUTER_TRACK, record_cluster
from repro.core.config import DistMsmConfig
from repro.curves.params import curve_by_name
from repro.engine.faults import FaultPlan, GpuFailure
from repro.observe.tracer import Tracer
from repro.serve import ProofRequest

BLS = curve_by_name("BLS12-381")


@pytest.fixture(scope="module")
def failover_run():
    """Two nodes; node 1 dies mid-run and its work fails over to node 0."""
    requests = [
        ProofRequest(
            req_id=i,
            curve=BLS,
            n=1 << 16,
            arrival_ms=float(i),
            label=f"r{i}",
            tenant="acme" if i % 2 else "zkmart",
        )
        for i in range(12)
    ]
    cluster = ProofCluster(2, gpus_per_node=2, config=DistMsmConfig(window_size=10))
    return cluster.serve(
        requests, faults=FaultPlan.of(GpuFailure(6.0, 2), GpuFailure(6.0, 3))
    )


class TestClusterMetrics:
    def test_render_reports_violations_and_failovers(self, failover_run):
        metrics = failover_run.metrics
        text = metrics.render()
        assert f"{metrics.deadline_violations} deadline violations" in text
        assert text.endswith(f"{metrics.failover_count} failovers")


class TestRecordCluster:
    @pytest.fixture(scope="class")
    def tracer(self, failover_run):
        tracer = Tracer("cluster")
        record_cluster(tracer, failover_run)
        return tracer

    def test_every_request_is_queued_then_executing(self, failover_run, tracer):
        for record in failover_run.records:
            (queued,) = [s for s in tracer.spans if s.name == f"req{record.req_id}:queued"]
            (executing,) = [
                s for s in tracer.spans if s.name == f"req{record.req_id}:executing"
            ]
            assert queued.track == executing.track == f"tenant/{record.tenant}"
            assert queued.end_ms == executing.start_ms == record.dispatch_ms
            assert executing.args["node"] == record.node_id

    def test_node_timelines_get_their_own_tracks(self, failover_run, tracer):
        for node_id, served in failover_run.node_results.items():
            tracks = [t for t in tracer.tracks if t.startswith(f"node{node_id}/")]
            assert bool(tracks) == bool(served.timeline.spans)
            spans = [s for s in tracer.spans if s.track in tracks]
            assert len(spans) == len(served.timeline.spans)
        # the survivor served everything, the dead node's work included
        assert failover_run.node_results[0].timeline.spans

    def test_router_track_marks_the_death_and_the_failovers(self, failover_run, tracer):
        router = [e for e in tracer.instants if e.track == ROUTER_TRACK]
        names = [e.name for e in router]
        assert "death:n1" in names and "detect:n1" in names
        failovers = [e for e in router if e.cat == "failover"]
        assert len(failovers) == len(failover_run.failovers) >= 1
        dispatches = [e for e in router if e.cat == "dispatch"]
        assert len(dispatches) == len(failover_run.dispatches)

    def test_transcript_exports_to_chrome_json(self, tracer):
        events = json.loads(tracer.to_chrome_json())["traceEvents"]
        assert sum(1 for e in events if e["ph"] == "X") == len(tracer.spans)
