"""Cluster-scope SLO metrics: end-to-end latency, tenants, failover.

A :class:`ClusterRecord` is the cluster's view of one served request —
latency is measured from the *cluster* arrival (when the client
submitted), not the node-local dispatch, so router queueing is part of
the tail the report stands on.  :class:`ClusterMetrics` extends the same
SLO block as :class:`repro.serve.metrics.ServeMetrics`
(:class:`~repro.serve.metrics.SloMetrics`) one level up, with the
cluster-only dimensions: per-tenant breakdowns
(served / shed / tail / violations — the SLO-budget accounting),
failover and autoscale counts.

Percentiles reuse the deterministic nearest-rank definition from
:mod:`repro.observe.stats`; tenants are reported in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class ClusterMetrics(SloMetrics[ClusterRecord]):
    """The aggregate SLO report of one cluster serving run."""

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

    def render(self) -> str:
        """One-paragraph human summary (benchmark table row material)."""
        return (
            f"{self.render_slo()}, "
            f"{self.deadline_violations} deadline violations, "
            f"{self.failover_count} failovers"
        )
