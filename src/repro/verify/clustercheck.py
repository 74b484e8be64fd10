"""Independent audit of cluster runs (:class:`repro.cluster.router.ClusterResult`).

The cluster router *claims* a distribution story — every request routed
to exactly one node, shed work never executing anywhere, lost work
re-routed exactly once after a death — and this checker replays those
claims against the finished artifacts, trusting nothing the router said
about itself:

* **per-node honesty** — every node's :class:`~repro.serve.server.ServeResult`
  passes the full serving audit (:func:`repro.verify.servecheck.verify_serving`);
* **single-serve** — no request appears in two nodes' record sets (the
  distributed analogue of exactly-once);
* **cluster conservation** — records and cluster-level shed events
  partition the submitted requests, per cluster and per tenant;
* **shed never executes** — a request shed at the router owns no task on
  *any* node's timeline;
* **dispatch causality** — no dispatch precedes its request's cluster
  arrival, and each record's ``arrival <= dispatch <= complete``;
* **failover at-most-once** — at most one :class:`FailoverEvent` per
  request; its source actually died, its re-dispatch respects the
  heartbeat detection tick, and the request ended up served by the
  target or honestly shed — never by the dead node;
* **dead nodes stay dead** — no task or record on a dead node starts at
  or after the death instant, or runs past it.

Conservation, causality and exclusion are the shared invariants of
:mod:`repro.verify.invariants`; violations carry ``rule="cluster"``, and
per-node serving violations keep their own subjects (``{subject}/node{k}``)
so reports point at the box.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analyze.finding import Finding
from repro.cluster.metrics import tenant_name
from repro.cluster.router import ClusterResult
from repro.engine.timeline import TIME_EPS
from repro.verify.invariants import Gate, Occupancy, causality, conservation, exclusion
from repro.verify.report import CheckResult
from repro.verify.servecheck import ServeCheckResult, request_id_of, verify_serving


@dataclass
class ClusterCheckResult(CheckResult):
    """Outcome of auditing one cluster serving run."""

    checker = "cluster"
    submitted: int = 0
    served: int = 0
    shed: int = 0
    #: node id -> that node's serving audit
    node_checks: dict[int, ServeCheckResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.all_violations()

    def all_violations(self) -> list[Finding]:
        """Per-node violations in node order, then the cluster-level ones."""
        out: list[Finding] = []
        for node_id in sorted(self.node_checks):
            out.extend(self.node_checks[node_id].violations)
        return out + self.violations


def verify_cluster(
    result: ClusterResult,
    subject: str = "cluster run",
    eps: float = TIME_EPS,
) -> ClusterCheckResult:
    """Audit one cluster run's artifacts against the distribution invariants."""
    check = ClusterCheckResult(
        subject,
        submitted=len(result.requests),
        served=len(result.records),
        shed=len(result.shed),
    )
    submitted = {r.req_id: r for r in result.requests}
    shed_ids = {e.request.req_id for e in result.shed}
    nodes = sorted(result.node_results)

    def noun(rid: int) -> str:
        return f"request {rid}"

    def op(rid: int) -> str:
        return f"req{rid}"

    # 1. per-node serving audits (each node is an honest server on its own)
    for node_id in nodes:
        node_result = result.node_results[node_id]
        check.node_checks[node_id] = verify_serving(
            node_result.requests,
            node_result.records,
            node_result.shed,
            node_result.timeline,
            subject=f"{subject}/node{node_id}",
            eps=eps,
        )

    # 2. conservation across the fleet: no request served by two nodes,
    #    and records and shed events partition the submissions
    conservation(
        check,
        None,
        [
            (rec.req_id, f"served by node {node_id}")
            for node_id in nodes
            for rec in result.node_results[node_id].records
        ],
        noun=noun,
        op=op,
    )
    conservation(
        check,
        submitted,
        [(r.req_id, "served") for r in result.records]
        + [(e.request.req_id, "shed") for e in result.shed],
        noun=noun,
        lost="neither served nor shed (lost in the cluster)",
        op=op,
    )

    # 3. tenant conservation: the per-tenant ledgers add up
    want = Counter(tenant_name(r.tenant) for r in result.requests)
    got = Counter(rec.tenant for rec in result.records)
    got.update(tenant_name(e.request.tenant) for e in result.shed)
    for name in sorted(want | got):
        if got[name] != want[name]:
            check.add(
                f"tenant {name!r}: {want[name]} submitted but {got[name]} "
                "accounted (served + shed)",
                op=name,
            )

    # 4. shed never executes, on any node in the fleet
    for node_id in nodes:
        for name in sorted(result.node_results[node_id].timeline.spans):
            rid = request_id_of(name)
            if rid is not None and rid in shed_ids:
                check.add(
                    f"cluster-shed request {rid} has task {name!r} on "
                    f"node {node_id}'s timeline",
                    op=name,
                )

    # 5. causality: dispatch after arrival, completion after dispatch,
    #    failover re-dispatch after the source node's detection
    gates = []
    for dispatch in result.dispatches:
        request = submitted.get(dispatch.req_id)
        if request is None:
            check.add(f"dispatch of unknown request {dispatch.req_id}", op=op(dispatch.req_id))
        else:
            gates.append(Gate(f"request {dispatch.req_id} dispatched", dispatch.at_ms,
                              "its arrival", request.arrival_ms, op(dispatch.req_id)))
    for rec in result.records:
        gates.append(Gate(f"request {rec.req_id}: dispatch", rec.dispatch_ms,
                          "arrival", rec.arrival_ms, op(rec.req_id)))
        gates.append(Gate(f"request {rec.req_id}: completion", rec.complete_ms,
                          "dispatch", rec.dispatch_ms, op(rec.req_id)))

    # 6. failover at-most-once, from a node that actually died, to a node
    #    that then served it (or an honest shed), never back at the source
    deaths = {d.node_id: d for d in result.deaths}
    conservation(
        check,
        None,
        [(e.req_id, f"failed over from node {e.from_node}") for e in result.failovers],
        noun=noun,
        op=op,
    )
    served_on = {
        k: {r.req_id for r in node.records} for k, node in result.node_results.items()
    }
    for event in result.failovers:
        rid, label = event.req_id, op(event.req_id)
        death = deaths.get(event.from_node)
        if death is None:
            check.add(
                f"request {rid} failed over from node {event.from_node}, "
                "which never died",
                op=label,
            )
        else:
            gates.append(Gate(f"request {rid} re-dispatched", event.redispatch_ms,
                              f"node {event.from_node}'s detection", death.detect_ms, label))
        if rid in served_on.get(event.from_node, ()):
            check.add(
                f"request {rid} failed over from node {event.from_node} "
                "yet also served there",
                op=label,
            )
        if rid not in served_on.get(event.to_node, ()) and rid not in shed_ids:
            check.add(
                f"request {rid} failed over to node {event.to_node} "
                "but was neither served there nor shed",
                op=label,
            )
    causality(check, gates, eps)

    # 7. exclusion: nothing runs on a dead node after its death
    uses = []
    for node_id in sorted(deaths):
        node_result = result.node_results.get(node_id)
        if node_result is None:
            continue
        device = f"node:{node_id}"
        for name in sorted(node_result.timeline.spans):
            span = node_result.timeline.spans[name]
            uses.append(Occupancy(f"task {name!r}", device, span.start_ms, span.end_ms, name))
        for rec in node_result.records:
            uses.append(Occupancy(f"request {rec.req_id}", device, rec.start_ms,
                                  rec.complete_ms, op(rec.req_id)))
    exclusion(
        check, uses, {f"node:{k}": (d.at_ms, "death") for k, d in deaths.items()}, eps
    )
    return check
