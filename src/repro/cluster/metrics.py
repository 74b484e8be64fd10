"""Cluster-scope SLO metrics: end-to-end latency, tenants, failover.

A :class:`ClusterRecord` is the cluster's view of one served request —
latency is measured from the *cluster* arrival (when the client
submitted), not the node-local dispatch, so router queueing is part of
the tail the report stands on.  :class:`ClusterMetrics` extends the same
SLO block as :class:`repro.serve.metrics.ServeMetrics`
(:class:`~repro.serve.metrics.SloMetrics`) one level up, with the
cluster-only dimensions: per-tenant breakdowns
(served / shed / tail / violations — the SLO-budget accounting), per-node
placement counts, and failover statistics.

Percentiles reuse the deterministic nearest-rank definition from
:mod:`repro.observe.stats`; every export iterates in sorted order so the
JSON artifacts are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.curves.point import AffinePoint
from repro.observe.stats import percentile
from repro.serve.metrics import LatencyRecord, SloMetrics


def tenant_name(raw: str) -> str:
    """Queue/accounting name of a request's tenant ("" = ``default``)."""
    return raw if raw else "default"


@dataclass(frozen=True)
class ClusterRecord(LatencyRecord):
    """One request's life cycle as the cluster saw it."""

    req_id: int
    tenant: str
    node_id: int
    n: int
    arrival_ms: float
    dispatch_ms: float
    complete_ms: float
    deadline_ms: float | None = None
    #: intra-node fault-recovery re-executions
    retries: int = 0
    #: re-routed here after another node's death
    failover: bool = False
    #: functional serving only: the bit-exact MSM result point
    result: AffinePoint | None = None

    @property
    def route_wait_ms(self) -> float:
        """Router time: cluster arrival until the node dispatch."""
        return self.dispatch_ms - self.arrival_ms

    @property
    def node_ms(self) -> float:
        """Node time: dispatch until the host reduce delivered."""
        return self.complete_ms - self.dispatch_ms

    def as_dict(self) -> dict:
        return {
            "req_id": self.req_id,
            "tenant": self.tenant,
            "node": self.node_id,
            "n": self.n,
            "arrival_ms": self.arrival_ms,
            "route_wait_ms": self.route_wait_ms,
            "node_ms": self.node_ms,
            "total_ms": self.total_ms,
            "retries": self.retries,
            "failover": self.failover,
            "deadline_violated": self.deadline_violated,
        }


@dataclass
class ClusterMetrics(SloMetrics[ClusterRecord]):
    """The aggregate SLO report of one cluster serving run."""

    #: node id -> mean GPU utilization over that node's timeline
    node_gpu_utilization: dict = field(default_factory=dict)
    scale_ups: int = 0
    scale_downs: int = 0

    @property
    def failover_count(self) -> int:
        return sum(1 for r in self.records if r.failover)

    def tenants(self) -> list[str]:
        names = {r.tenant for r in self.records}
        names |= {tenant_name(e.request.tenant) for e in self.shed}
        return sorted(names)

    def per_tenant(self) -> dict:
        """Tenant -> served/shed/tail/violation accounting (SLO budgets)."""
        out: dict = {}
        for tenant in self.tenants():
            recs = [r for r in self.records if r.tenant == tenant]
            lat = [r.total_ms for r in recs]
            out[tenant] = {
                "served": len(recs),
                "shed": sum(
                    1
                    for e in self.shed
                    if tenant_name(e.request.tenant) == tenant
                ),
                "p50_ms": percentile(lat, 50.0),
                "p99_ms": percentile(lat, 99.0),
                "deadline_violations": sum(1 for r in recs if r.deadline_violated),
                "failovers": sum(1 for r in recs if r.failover),
            }
        return out

    def per_node(self) -> dict:
        """Node id -> served count and mean GPU utilization."""
        out: dict = {}
        node_ids = sorted(
            {r.node_id for r in self.records} | set(self.node_gpu_utilization)
        )
        for node_id in node_ids:
            out[node_id] = {
                "served": sum(1 for r in self.records if r.node_id == node_id),
                "gpu_utilization": self.node_gpu_utilization.get(node_id, 0.0),
            }
        return out

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "failovers": self.failover_count,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "tenants": self.per_tenant(),
            "nodes": {str(k): v for k, v in sorted(self.per_node().items())},
        }

    def render(self) -> str:
        """One-paragraph human summary (benchmark table row material)."""
        return (
            f"{self.render_slo()}, "
            f"{self.deadline_violations} deadline violations, "
            f"{self.failover_count} failovers"
        )
