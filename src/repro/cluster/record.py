"""Cluster trace recording: per-node lanes, tenant request lanes, router events.

Like :func:`repro.observe.record.record_timeline`, recording a cluster
run is a transcription of finished results, never instrumentation on the
routing path.  One :func:`record_cluster` call turns a
:class:`~repro.cluster.router.ClusterResult` into Chrome-trace material:

* every node's served timeline on ``node{k}/{resource}`` tracks, so the
  per-node GPU lanes sit side by side in one viewer;
* every request's life as two spans on its tenant's lane — ``queued``
  (cluster arrival → dispatch) and ``executing`` (dispatch → complete,
  annotated with the serving node and failover flag);
* router control-plane instants on the ``router`` track: dispatches,
  sheds (with reason), node deaths and their heartbeat detections,
  failover re-dispatches, and non-hold autoscale decisions.
"""

from __future__ import annotations

from repro.cluster.router import ClusterResult
from repro.observe.record import phase_category
from repro.observe.tracer import Tracer

__all__ = ["record_cluster"]

ROUTER_TRACK = "router"


def record_cluster(tracer: Tracer, result: ClusterResult) -> None:
    """Transcribe a finished cluster run onto ``tracer``."""
    for node_id in sorted(result.node_results):
        timeline = result.node_results[node_id].timeline
        for span in sorted(
            timeline.spans.values(),
            key=lambda s: (s.start_ms, s.resource.name, s.task),
        ):
            tracer.add_span(
                f"n{node_id}:{span.task}",
                f"node{node_id}/{span.resource.name}",
                span.start_ms,
                span.end_ms,
                cat=phase_category(span.task),
                args={"node": node_id, "stage": span.stage}
                if span.stage
                else {"node": node_id},
            )

    for record in sorted(result.records, key=lambda r: (r.req_id, r.node_id)):
        lane = f"tenant/{record.tenant}"
        tracer.add_span(
            f"req{record.req_id}:queued",
            lane,
            record.arrival_ms,
            record.dispatch_ms,
            cat="queue",
            args={"tenant": record.tenant},
        )
        tracer.add_span(
            f"req{record.req_id}:executing",
            lane,
            record.dispatch_ms,
            record.complete_ms,
            cat="execute",
            args={
                "tenant": record.tenant,
                "node": record.node_id,
                "failover": record.failover,
                "retries": record.retries,
            },
        )

    for dispatch in sorted(
        result.dispatches, key=lambda d: (d.at_ms, d.req_id, d.node_id)
    ):
        tracer.instant(
            f"dispatch:req{dispatch.req_id}->n{dispatch.node_id}",
            ROUTER_TRACK,
            dispatch.at_ms,
            cat="dispatch",
            args={
                "tenant": dispatch.tenant,
                "node": dispatch.node_id,
                "failover": dispatch.failover,
            },
        )
    for event in sorted(
        result.shed, key=lambda e: (e.at_ms, e.request.req_id)
    ):
        tracer.instant(
            f"shed:req{event.request.req_id}",
            ROUTER_TRACK,
            event.at_ms,
            cat="shed",
            args={"reason": event.reason},
        )
    for death in sorted(result.deaths, key=lambda d: (d.at_ms, d.node_id)):
        tracer.instant(
            f"death:n{death.node_id}",
            ROUTER_TRACK,
            death.at_ms,
            cat="fault",
            args={"node": death.node_id},
        )
        tracer.instant(
            f"detect:n{death.node_id}",
            ROUTER_TRACK,
            death.detect_ms,
            cat="fault",
            args={"node": death.node_id, "death_ms": death.at_ms},
        )
    for failover in sorted(
        result.failovers, key=lambda f: (f.redispatch_ms, f.req_id)
    ):
        tracer.instant(
            f"failover:req{failover.req_id}:n{failover.from_node}->"
            f"n{failover.to_node}",
            ROUTER_TRACK,
            failover.redispatch_ms,
            cat="failover",
            args={"from": failover.from_node, "to": failover.to_node},
        )
    for decision in result.scale_decisions:
        if decision.action == "hold":
            continue
        tracer.instant(
            f"autoscale:{decision.action}:{decision.active}->{decision.target}",
            ROUTER_TRACK,
            decision.at_ms,
            cat="autoscale",
            args={"reason": decision.reason, "queued": decision.queued},
        )
