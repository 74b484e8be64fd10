"""ProofCluster router: queues, fairness, SLO sheds, least-loaded routing."""

from dataclasses import replace

import pytest

from repro.cluster import ProofCluster, TenantSpec
from repro.cluster.router import MAX_INFLIGHT_PER_NODE, TENANT_MAX_QUEUE
from repro.core.config import DistMsmConfig
from repro.curves.params import curve_by_name
from repro.serve import ProofRequest
from repro.serve.admission import SHED_INFEASIBLE, SHED_QUEUE_FULL
from repro.verify.clustercheck import verify_cluster

BLS = curve_by_name("BLS12-381")
CONFIG = DistMsmConfig(window_size=10)


def _requests(
    count: int, gap_ms: float = 1.0, tenants: tuple = ("acme", "zkmart")
) -> list[ProofRequest]:
    return [
        ProofRequest(
            req_id=i,
            curve=BLS,
            n=1 << 16,
            arrival_ms=i * gap_ms,
            label=f"r{i}",
            tenant=tenants[i % len(tenants)],
        )
        for i in range(count)
    ]


class TestBasicServing:
    def test_everything_served_exactly_once(self):
        cluster = ProofCluster(3, gpus_per_node=2, config=CONFIG)
        result = cluster.serve(_requests(12))
        assert len(result.records) == 12
        assert not result.shed
        seen = [r.req_id for r in result.records]
        assert sorted(seen) == list(range(12))
        checked = verify_cluster(result, subject="3-node basic")
        assert checked.ok, [str(v) for v in checked.all_violations()]

    def test_load_spreads_over_nodes(self):
        cluster = ProofCluster(3, gpus_per_node=2, config=CONFIG)
        result = cluster.serve(_requests(12, gap_ms=0.5))
        used = {r.node_id for r in result.records}
        assert len(used) == 3

    def test_serve_is_one_shot(self):
        cluster = ProofCluster(2, gpus_per_node=2, config=CONFIG)
        cluster.serve(_requests(2))
        with pytest.raises(RuntimeError):
            cluster.serve(_requests(2))

    def test_duplicate_req_ids_rejected(self):
        cluster = ProofCluster(2, gpus_per_node=2, config=CONFIG)
        reqs = _requests(2)
        reqs[1] = replace(reqs[1], req_id=0)
        with pytest.raises(ValueError):
            cluster.serve(reqs)

    def test_empty_workload(self):
        result = ProofCluster(2, gpus_per_node=2, config=CONFIG).serve([])
        assert result.records == []
        assert result.metrics.served == 0


class TestTenantQueues:
    def test_weighted_fair_share_under_contention(self):
        # twice the node's in-flight cap arrives at once: the first
        # MAX_INFLIGHT_PER_NODE dispatches are the fair-queueing order
        heavy = [
            ProofRequest(
                req_id=i, curve=BLS, n=1 << 16, arrival_ms=0.0,
                label=f"h{i}", tenant="heavy",
            )
            for i in range(MAX_INFLIGHT_PER_NODE)
        ]
        light = [
            ProofRequest(
                req_id=100 + i, curve=BLS, n=1 << 16, arrival_ms=0.0,
                label=f"l{i}", tenant="light",
            )
            for i in range(MAX_INFLIGHT_PER_NODE)
        ]
        cluster = ProofCluster(
            1,
            gpus_per_node=2,
            config=CONFIG,
            tenants=(TenantSpec("heavy", weight=3.0), TenantSpec("light", weight=1.0)),
        )
        result = cluster.serve(heavy + light)
        first = [d.tenant for d in result.dispatches[:MAX_INFLIGHT_PER_NODE]]
        assert all(d.at_ms == 0.0 for d in result.dispatches[:MAX_INFLIGHT_PER_NODE])
        # weight 3 vs 1: about three heavy dispatches per light one
        assert first.count("heavy") >= 5, first
        assert first.count("light") >= 1, first

    def test_queue_full_sheds_at_the_router(self):
        # one instant's arrivals all queue before anything dispatches, so
        # everything past the tenant's queue cap is shed
        count = TENANT_MAX_QUEUE + 6
        reqs = _requests(count, gap_ms=0.0, tenants=("bulk",))
        cluster = ProofCluster(1, gpus_per_node=2, config=CONFIG)
        result = cluster.serve(reqs)
        assert len(result.shed) == 6
        assert all(s.reason == SHED_QUEUE_FULL for s in result.shed)
        assert len(result.records) + len(result.shed) == count
        checked = verify_cluster(result, subject="queue-full")
        assert checked.ok, [str(v) for v in checked.all_violations()]

    def test_deadline_class_sheds_infeasible_work(self):
        reqs = _requests(10, gap_ms=0.0, tenants=("slo",))
        cluster = ProofCluster(
            1,
            gpus_per_node=2,
            config=CONFIG,
            tenants=(TenantSpec("slo", deadline_class_ms=1.0),),
        )
        result = cluster.serve(reqs)
        # the node takes MAX_INFLIGHT_PER_NODE requests at once and serves
        # ~6 ms per request: everything still queued when its 1 ms
        # deadline passes is shed, never dispatched
        infeasible = [s for s in result.shed if s.reason == SHED_INFEASIBLE]
        assert infeasible
        shed_ids = {s.request.req_id for s in result.shed}
        served_ids = {r.req_id for r in result.records}
        assert shed_ids.isdisjoint(served_ids)
        assert shed_ids | served_ids == set(range(10))
        # the deadline class was stamped onto the served records too
        assert all(r.deadline_ms is not None for r in result.records)

    def test_per_tenant_metrics_conserve_counts(self):
        cluster = ProofCluster(2, gpus_per_node=2, config=CONFIG)
        result = cluster.serve(_requests(10))
        per = result.metrics.per_tenant()
        assert sorted(per) == ["acme", "zkmart"]
        total = sum(t["served"] + t["shed"] for t in per.values())
        assert total == 10
