"""The cluster front-end: tenant queues, routing, SLOs, autoscale, failover.

:class:`ProofCluster` shards one proof-serving workload across N
:class:`~repro.cluster.node.ProofNode` boxes.  The control plane is an
event-driven router loop over the ONE simulated cluster clock:

* **per-tenant queues with weighted fairness** — every arriving request
  enters its tenant's FIFO and receives a start-time-fair-queueing finish
  tag (``max(vt[tenant], vclock) + 1/weight``); dequeue picks the
  smallest ``(tag, tenant name)`` over the queue heads, so a weight-2
  tenant drains twice as fast as a weight-1 tenant under contention, and
  an idle tenant banks no credit (its next tag restarts at the virtual
  clock);
* **per-tenant SLO budgets** — each tenant's queue holds at most
  ``TENANT_MAX_QUEUE`` requests (overflow is shed as ``queue-full`` *at
  the router*, never occupying cluster capacity), and a
  :class:`TenantSpec` can stamp a relative deadline class on requests
  that arrive without one; a request whose deadline has already passed
  at dispatch time is shed as ``deadline-infeasible`` instead of being
  routed — the shed ledger is the SLO-budget accounting;
* **least-loaded routing** — each dispatch goes to the available node
  (active, reported alive, fewer than ``MAX_INFLIGHT_PER_NODE`` requests
  in flight) with the smallest estimated backlog, comparing
  *control-plane estimates* from the router's own plan cache, never
  ground truth from node engines;
* **autoscaling** — an optional :class:`~repro.cluster.autoscale.Autoscaler`
  observes queue depth at a fixed control interval and activates
  standby nodes (after ``provision_ms``) or drains active ones;
* **failover** — the global fault plan is projected per node by
  :func:`~repro.cluster.failover.split_fault_plan`; a dead node keeps
  *receiving* dispatches until its heartbeat detection tick (one every
  ``NODE_HEARTBEAT_MS``; those dispatches are lost), then the lost work
  is re-dispatched once to surviving nodes and the death is logged as
  :class:`FailoverEvent` records the auditors
  (:mod:`repro.verify.clustercheck`) replay.

Routing is control-plane only; the data plane runs afterwards — each
node serves exactly what was bound to it, under its local fault plan,
and the per-node :class:`~repro.serve.server.ServeResult` timelines are
stitched into cluster-level :class:`~repro.cluster.metrics.ClusterRecord`
entries and one :class:`~repro.cluster.metrics.ClusterMetrics` report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.cluster.autoscale import (
    ACTION_DOWN,
    ACTION_UP,
    AutoscaleConfig,
    Autoscaler,
    ScaleDecision,
)
from repro.cluster.failover import (
    NodeDeath,
    serve_dying_node,
    split_fault_plan,
)
from repro.cluster.metrics import ClusterMetrics, ClusterRecord, tenant_name
from repro.cluster.node import ProofNode
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.engine.faults import FaultPlan
from repro.engine.timeline import TIME_EPS
from repro.faults.recovery import FaultRecoveryError
from repro.gpu.cluster import MultiGpuSystem
from repro.serve.admission import SHED_INFEASIBLE, SHED_QUEUE_FULL, ShedEvent
from repro.serve.plancache import PlanCache
from repro.serve.queue import ProofRequest
from repro.serve.server import ServeResult

if TYPE_CHECKING:
    from repro.observe.tracer import Tracer

#: router-side cap on the requests one node has in flight (estimated)
MAX_INFLIGHT_PER_NODE = 8
#: requests one tenant may hold in its router queue before overflow sheds
TENANT_MAX_QUEUE = 64
#: heartbeat period of the node failure detector (ms)
NODE_HEARTBEAT_MS = 5.0

#: node life-cycle states the router's capacity loop walks through
NODE_ACTIVE = "active"
NODE_STANDBY = "standby"
NODE_PENDING = "pending"  # activated, paying provision_ms
NODE_DRAINING = "draining"  # finishes booked work, receives nothing new


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's SLO contract with the cluster.

    ``weight`` is the fair-share ratio under contention;
    ``deadline_class_ms`` stamps a relative deadline on requests that
    arrive without one.
    """

    name: str
    weight: float = 1.0
    deadline_class_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be > 0, got {self.weight}"
            )
        if self.deadline_class_ms is not None and self.deadline_class_ms <= 0:
            raise ValueError(
                f"tenant {self.name!r}: deadline_class_ms must be > 0, "
                f"got {self.deadline_class_ms}"
            )


@dataclass(frozen=True)
class Dispatch:
    """One routing decision: which request went to which node, when."""

    req_id: int
    node_id: int
    at_ms: float
    tenant: str
    est_service_ms: float
    failover: bool = False


@dataclass(frozen=True)
class FailoverEvent:
    """One request's re-routing after a node death."""

    req_id: int
    from_node: int
    to_node: int
    death_ms: float
    detect_ms: float
    redispatch_ms: float

    def __post_init__(self) -> None:
        if self.from_node == self.to_node:
            raise ValueError(
                f"req {self.req_id}: failover cannot target the dead node "
                f"{self.from_node}"
            )
        if self.redispatch_ms < self.detect_ms - TIME_EPS:
            raise ValueError(
                f"req {self.req_id}: re-dispatched at {self.redispatch_ms} "
                f"before detection {self.detect_ms}"
            )


@dataclass
class ClusterResult:
    """Everything one cluster serving run produced, for metrics and audit."""

    requests: list[ProofRequest]
    dispatches: list[Dispatch]
    shed: list[ShedEvent]
    #: node id -> that node's full audited serving result
    node_results: dict[int, ServeResult]
    deaths: list[NodeDeath]
    failovers: list[FailoverEvent]
    scale_decisions: list[ScaleDecision]
    records: list[ClusterRecord]
    metrics: ClusterMetrics
    faults: FaultPlan | None = None
    #: node id -> the local fault plan that node served under
    local_faults: dict = field(default_factory=dict)


@dataclass
class _QueueEntry:
    """One queued request with its committed fair-queueing tag."""

    request: ProofRequest
    tag: float


class ProofCluster:
    """A multi-node sharded proof-serving cluster.

    ``autoscale`` turns on the autoscaler: nodes beyond
    ``autoscale.min_nodes`` start on standby.
    """

    def __init__(
        self,
        num_nodes: int,
        gpus_per_node: int = 4,
        config: DistMsmConfig | None = None,
        tenants: tuple[TenantSpec, ...] = (),
        autoscale: AutoscaleConfig | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {gpus_per_node}")
        self.config = config or DistMsmConfig()
        self.autoscale = autoscale
        self.nodes = [ProofNode(k, gpus_per_node, self.config) for k in range(num_nodes)]
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant specs: {sorted(names)}")
        self._tenants = {t.name: t for t in tenants}
        # the router's OWN plan cache: routing estimates are control-plane
        # work and must not warm (or be warmed by) any node's data path
        self.router_cache = PlanCache()
        self._est_engines: dict[int, DistMsm] = {}
        self._autoscaler: Autoscaler | None = None
        self._served = False

    # -- control-plane helpers -----------------------------------------------

    def tenant_spec(self, tenant: str) -> TenantSpec:
        """The tenant's contract (an implicit default for unknown names)."""
        name = tenant_name(tenant)
        spec = self._tenants.get(name)
        return spec if spec is not None else TenantSpec(name)

    def _estimate_ms(self, request: ProofRequest, gpus: int) -> float:
        engine = self._est_engines.get(gpus)
        if engine is None:
            engine = DistMsm(MultiGpuSystem(gpus, gpus_per_node=gpus), self.config)
            self._est_engines[gpus] = engine
        plan, _ = self.router_cache.lookup(engine, request.curve, request.n)
        return plan.service_ms

    # -- the serve entry point -----------------------------------------------

    def serve(
        self,
        requests: list[ProofRequest],
        faults: FaultPlan | None = None,
        trace: "Tracer | None" = None,
    ) -> ClusterResult:
        """Route, serve, and audit one workload across the cluster."""
        if self._served:
            raise RuntimeError(
                "ProofCluster.serve is one-shot (node dispatch and death "
                "state are consumed); build a fresh cluster per run"
            )
        self._served = True
        workload = sorted(requests, key=lambda r: (r.arrival_ms, r.req_id))
        ids = [r.req_id for r in workload]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate req_ids in cluster workload")

        # stamp tenant deadline classes on requests that arrive without one
        stamped: list[ProofRequest] = []
        for request in workload:
            spec = self.tenant_spec(request.tenant)
            if request.deadline_ms is None and spec.deadline_class_ms is not None:
                request = replace(
                    request,
                    deadline_ms=request.arrival_ms + spec.deadline_class_ms,
                )
            stamped.append(request)
        request_map = {r.req_id: r for r in stamped}

        # project the global fault plan onto nodes; stamp deaths
        node_gpu_counts = [n.system.num_gpus for n in self.nodes]
        local_plans, deaths = split_fault_plan(
            faults, node_gpu_counts, NODE_HEARTBEAT_MS
        )
        if len(deaths) == len(self.nodes):
            raise FaultRecoveryError(
                "fault plan kills every node; no survivor to fail over to"
            )
        for death in deaths:
            node = self.nodes[death.node_id]
            node.death_ms = death.at_ms
            node.detect_ms = death.detect_ms
        self._local_plans = {
            k: plan for k, plan in enumerate(local_plans) if plan is not None
        }
        self._dying_results = {}

        shed, dispatches, failovers = self._route(stamped, deaths)
        node_results, more_shed = self._execute(
            request_map, local_plans, deaths
        )
        shed.extend(more_shed)

        records = self._records(request_map, node_results, dispatches)
        metrics = self._metrics(records, shed, node_results)
        result = ClusterResult(
            requests=stamped,
            dispatches=dispatches,
            shed=shed,
            node_results=node_results,
            deaths=deaths,
            failovers=failovers,
            scale_decisions=list(self._autoscaler.decisions)
            if self._autoscaler
            else [],
            records=records,
            metrics=metrics,
            faults=faults,
            local_faults={
                k: plan for k, plan in enumerate(local_plans) if plan is not None
            },
        )
        if trace is not None:
            from repro.cluster.record import record_cluster

            record_cluster(trace, result)
        return result

    # -- phase 1: the router event loop --------------------------------------

    def _route(
        self, stamped: list[ProofRequest], deaths: list[NodeDeath]
    ) -> tuple[list[ShedEvent], list[Dispatch], list[FailoverEvent]]:
        auto_cfg = self.autoscale
        self._autoscaler = Autoscaler(auto_cfg) if auto_cfg else None
        if auto_cfg:
            self._state = [
                NODE_ACTIVE if k < auto_cfg.min_nodes else NODE_STANDBY
                for k in range(len(self.nodes))
            ]
        else:
            self._state = [NODE_ACTIVE] * len(self.nodes)
        self._ready_ms = [0.0] * len(self.nodes)
        self._ever_active = {
            k for k, s in enumerate(self._state) if s == NODE_ACTIVE
        }

        queues: dict[str, deque[_QueueEntry]] = {}
        vt: dict[str, float] = {}
        vclock = 0.0
        shed: list[ShedEvent] = []
        dispatches: list[Dispatch] = []

        def admit(request: ProofRequest) -> None:
            nonlocal vclock
            spec = self.tenant_spec(request.tenant)
            queue = queues.setdefault(spec.name, deque())
            if len(queue) >= TENANT_MAX_QUEUE:
                shed.append(
                    ShedEvent(request, request.arrival_ms, SHED_QUEUE_FULL)
                )
                return
            tag = max(vt.get(spec.name, 0.0), vclock) + 1.0 / spec.weight
            vt[spec.name] = tag
            queue.append(_QueueEntry(request, tag))

        def queued_total() -> int:
            return sum(len(q) for q in queues.values())

        def pick_tenant() -> str:
            return min(
                (t for t, q in sorted(queues.items()) if q),
                key=lambda t: (queues[t][0].tag, t),
            )

        def available(now_ms: float) -> list[ProofNode]:
            return [
                node
                for k, node in enumerate(self.nodes)
                if self._state[k] == NODE_ACTIVE
                and node.reported_alive(now_ms)
                and node.inflight(now_ms) < MAX_INFLIGHT_PER_NODE
            ]

        def active_count(now_ms: float) -> int:
            return sum(
                1
                for k, node in enumerate(self.nodes)
                if self._state[k] == NODE_ACTIVE and node.reported_alive(now_ms)
            )

        def autoscale_tick(now_ms: float) -> None:
            assert self._autoscaler and auto_cfg
            active = active_count(now_ms)
            target = self._autoscaler.tick(now_ms, queued_total(), active)
            if target > active:
                want = target - active
                for k, state in enumerate(self._state):
                    if want == 0:
                        break
                    if not self.nodes[k].reported_alive(now_ms):
                        continue
                    if state == NODE_DRAINING:
                        # a draining node is still warm: reinstate instantly
                        self._state[k] = NODE_ACTIVE
                        want -= 1
                    elif state == NODE_STANDBY:
                        self._state[k] = NODE_PENDING
                        self._ready_ms[k] = now_ms + auto_cfg.provision_ms
                        want -= 1
            elif target < active:
                want = active - target
                for k in range(len(self.nodes) - 1, -1, -1):
                    if want == 0:
                        break
                    if self._state[k] == NODE_ACTIVE and self.nodes[
                        k
                    ].reported_alive(now_ms):
                        self._state[k] = NODE_DRAINING
                        want -= 1

        arrivals = deque(stamped)
        clock_ms = 0.0
        tick_index = 0
        while arrivals or queued_total():
            # 0. promote provisioned nodes whose warm-up completed
            for k, state in enumerate(self._state):
                if state == NODE_PENDING and self._ready_ms[k] <= clock_ms + TIME_EPS:
                    self._state[k] = NODE_ACTIVE
                    self._ever_active.add(k)

            # 1. autoscale control ticks due by now
            if self._autoscaler and auto_cfg:
                while tick_index * auto_cfg.control_interval_ms <= clock_ms + TIME_EPS:
                    autoscale_tick(tick_index * auto_cfg.control_interval_ms)
                    tick_index += 1

            # 2. pull due arrivals into their tenant queues
            while arrivals and arrivals[0].arrival_ms <= clock_ms + TIME_EPS:
                admit(arrivals.popleft())

            # 3. dispatch while both work and capacity exist
            while queued_total():
                avail = available(clock_ms)
                if not avail:
                    break
                tenant = pick_tenant()
                entry = queues[tenant].popleft()
                vclock = max(vclock, entry.tag)
                request = entry.request
                if (
                    request.deadline_ms is not None
                    and clock_ms > request.deadline_ms + TIME_EPS
                ):
                    # the SLO budget is already blown: shedding here is
                    # strictly better than burning a node on a dead request
                    shed.append(ShedEvent(request, clock_ms, SHED_INFEASIBLE))
                    continue
                node = min(
                    avail,
                    key=lambda n: (
                        n.backlog_ms(clock_ms), n.inflight(clock_ms), n.node_id
                    ),
                )
                est = self._estimate_ms(request, node.system.num_gpus)
                node.assign(request, clock_ms, est)
                dispatches.append(
                    Dispatch(
                        req_id=request.req_id,
                        node_id=node.node_id,
                        at_ms=clock_ms,
                        tenant=tenant_name(request.tenant),
                        est_service_ms=est,
                    )
                )

            if not arrivals and not queued_total():
                break

            # 4. advance the clock to the next event
            candidates: list[float] = []
            if arrivals:
                candidates.append(arrivals[0].arrival_ms)
            if queued_total():
                for k, node in enumerate(self.nodes):
                    if self._state[k] != NODE_ACTIVE:
                        continue
                    if not node.reported_alive(clock_ms):
                        continue
                    head = node.next_est_complete_ms()
                    if head is not None:
                        candidates.append(head)
            candidates.extend(
                self._ready_ms[k]
                for k, state in enumerate(self._state)
                if state == NODE_PENDING
            )
            candidates.extend(
                d.detect_ms for d in deaths if d.detect_ms > clock_ms + TIME_EPS
            )
            if self._autoscaler and auto_cfg and (
                candidates
                or any(
                    s in (NODE_STANDBY, NODE_DRAINING) for s in self._state
                )
            ):
                candidates.append(tick_index * auto_cfg.control_interval_ms)
            if not candidates:
                raise FaultRecoveryError(
                    f"{queued_total()} requests queued with no node able to "
                    f"take them and no capacity event pending"
                )
            clock_ms = max(clock_ms, min(candidates))

        failovers = self._failover(deaths, shed, dispatches)
        return shed, dispatches, failovers

    # -- phase 2: failover re-routing ----------------------------------------

    def _failover(
        self,
        deaths: list[NodeDeath],
        shed: list[ShedEvent],
        dispatches: list[Dispatch],
    ) -> list[FailoverEvent]:
        """Re-dispatch work a dying node swallowed, once, to survivors."""
        failovers: list[FailoverEvent] = []
        self._lost_by_node: dict[int, set[int]] = {}
        for death in sorted(deaths, key=lambda d: (d.detect_ms, d.node_id)):
            node = self.nodes[death.node_id]
            # the authoritative lost set comes from the death-truncation
            # fixed point; the result is kept so _execute serves once
            result, lost = serve_dying_node(
                node, self._local_plan_of(death.node_id), death
            )
            self._dying_results[death.node_id] = result
            self._lost_by_node[death.node_id] = lost
            lost_requests = sorted(
                (
                    d.request
                    for d in node.dispatches
                    if d.request.req_id in lost
                ),
                key=lambda r: (r.arrival_ms, r.req_id),
            )
            survivors = [
                n for n in self.nodes if n.death_ms is None
            ]
            for request in lost_requests:
                if (
                    request.deadline_ms is not None
                    and death.detect_ms > request.deadline_ms + TIME_EPS
                ):
                    shed.append(
                        ShedEvent(request, death.detect_ms, SHED_INFEASIBLE)
                    )
                    continue
                preferred = [
                    n for n in survivors if n.node_id in self._ever_active
                ] or survivors
                target = min(
                    preferred,
                    key=lambda n: (n.backlog_ms(death.detect_ms), n.node_id),
                )
                est = self._estimate_ms(request, target.system.num_gpus)
                target.assign(request, death.detect_ms, est, failover=True)
                dispatches.append(
                    Dispatch(
                        req_id=request.req_id,
                        node_id=target.node_id,
                        at_ms=death.detect_ms,
                        tenant=tenant_name(request.tenant),
                        est_service_ms=est,
                        failover=True,
                    )
                )
                failovers.append(
                    FailoverEvent(
                        req_id=request.req_id,
                        from_node=death.node_id,
                        to_node=target.node_id,
                        death_ms=death.at_ms,
                        detect_ms=death.detect_ms,
                        redispatch_ms=death.detect_ms,
                    )
                )
        return failovers

    def _local_plan_of(self, node_id: int) -> FaultPlan | None:
        return self._local_plans.get(node_id)

    # -- phase 3: the data plane ---------------------------------------------

    def _execute(
        self,
        request_map: dict[int, ProofRequest],
        local_plans: list[FaultPlan | None],
        deaths: list[NodeDeath],
    ) -> tuple[dict[int, ServeResult], list[ShedEvent]]:
        """Serve every node's bound work; map node shed back to the cluster."""
        death_of = {d.node_id: d for d in deaths}
        node_results: dict[int, ServeResult] = {}
        shed: list[ShedEvent] = []
        for node in self.nodes:
            if not node.dispatches:
                continue
            death = death_of.get(node.node_id)
            if death is not None:
                result = self._dying_results[node.node_id]
            else:
                result = node.serve(faults=local_plans[node.node_id])
            node_results[node.node_id] = result
            for event in result.shed:
                original = request_map[event.request.req_id]
                shed.append(ShedEvent(original, event.at_ms, event.reason))
        return node_results, shed

    # -- result assembly -----------------------------------------------------

    def _records(
        self,
        request_map: dict[int, ProofRequest],
        node_results: dict[int, ServeResult],
        dispatches: list[Dispatch],
    ) -> list[ClusterRecord]:
        last_dispatch: dict[int, Dispatch] = {}
        for dispatch in dispatches:
            last_dispatch[dispatch.req_id] = dispatch
        records: list[ClusterRecord] = []
        for node_id in sorted(node_results):
            for rec in node_results[node_id].records:
                original = request_map[rec.req_id]
                dispatch = last_dispatch[rec.req_id]
                records.append(
                    ClusterRecord(
                        req_id=rec.req_id,
                        tenant=tenant_name(original.tenant),
                        node_id=node_id,
                        n=rec.n,
                        arrival_ms=original.arrival_ms,
                        dispatch_ms=dispatch.at_ms,
                        complete_ms=rec.complete_ms,
                        deadline_ms=original.deadline_ms,
                        retries=rec.retries,
                        failover=dispatch.failover,
                        result=rec.result,
                    )
                )
        records.sort(key=lambda r: (r.req_id, r.node_id))
        return records

    def _metrics(
        self,
        records: list[ClusterRecord],
        shed: list[ShedEvent],
        node_results: dict[int, ServeResult],
    ) -> ClusterMetrics:
        ends = [0.0]
        ends.extend(res.timeline.total_ms for res in node_results.values())
        ends.extend(r.complete_ms for r in records)
        ends.extend(e.at_ms for e in shed)
        scaler = self._autoscaler
        return ClusterMetrics(
            records=records,
            shed=shed,
            makespan_ms=max(ends),
            scale_ups=len(scaler.actions(ACTION_UP)) if scaler else 0,
            scale_downs=len(scaler.actions(ACTION_DOWN)) if scaler else 0,
        )
