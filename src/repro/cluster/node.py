"""One proof-serving node of the cluster: a server plus reported load.

A :class:`ProofNode` owns one :class:`~repro.gpu.cluster.MultiGpuSystem`
and the :class:`~repro.serve.server.MsmProofServer` that serves on it.
The cluster router (:mod:`repro.cluster.router`) never reaches into the
node's engine — it talks to the node through two narrow surfaces:

* **dispatch** — :meth:`ProofNode.assign` hands the node one request at a
  cluster-clock instant and updates the node's *reported load model*: an
  estimated-completion heap plus an estimated-free time, the quantities
  least-loaded routing compares.
  Estimates come from the router's control-plane plan cache, so routing
  never runs a planner on the data path.
* **health** — :attr:`death_ms` / :attr:`detect_ms` are stamped by the
  failover layer (:mod:`repro.cluster.failover`) when the cluster-level
  fault plan kills every GPU of this node.  :meth:`reported_alive` is
  what the router sees (heartbeat semantics: a dead node keeps receiving
  dispatches until the detection tick, and those requests are lost).

Serving happens once, after routing: :meth:`ProofNode.serve` re-stamps
every dispatched request's arrival to its dispatch instant (the node sees
work when the router sends it, deadlines stay absolute) and runs the
wrapped server over the node-local fault plan.  All clocks are the ONE
simulated cluster clock — node timelines, dispatch times, and fault
events compare directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from repro.core.config import DistMsmConfig
from repro.engine.faults import FaultPlan
from repro.engine.timeline import TIME_EPS
from repro.gpu.cluster import MultiGpuSystem
from repro.serve.plancache import PlanCache
from repro.serve.queue import ProofRequest
from repro.serve.server import MsmProofServer, ServeConfig, ServeResult

#: the serving policy of every cluster node: shedding is a *router*
#: decision (per-tenant queues, SLO budgets), so the node accepts what it
#: is handed — a wide queue and no deadline rejection
DEFAULT_NODE_SERVE_CONFIG = ServeConfig(
    gpu_groups=1,
    max_batch_size=4,
    max_wait_ms=1.0,
    max_queue=256,
    reject_infeasible=False,
)


@dataclass(frozen=True)
class NodeDispatch:
    """One request handed to this node by the router.

    ``request`` keeps its cluster-clock arrival (for end-to-end latency);
    ``dispatch_ms`` is when the router bound it here, which becomes the
    node-local arrival.  ``est_service_ms`` is the control-plane service
    estimate used for load accounting; ``failover=True`` marks a request
    re-routed here after another node's death.
    """

    request: ProofRequest
    dispatch_ms: float
    est_service_ms: float
    failover: bool = False

    def local_request(self) -> ProofRequest:
        """The request as the node sees it: arrival = dispatch instant."""
        return replace(self.request, arrival_ms=self.dispatch_ms)


class ProofNode:
    """One cluster node: a proof server with dispatch and death bookkeeping."""

    def __init__(
        self,
        node_id: int,
        num_gpus: int,
        config: DistMsmConfig | None = None,
    ) -> None:
        if node_id < 0:
            raise ValueError(f"node_id must be >= 0, got {node_id}")
        self.node_id = node_id
        self.system = MultiGpuSystem(num_gpus, gpus_per_node=num_gpus)
        self.config = config or DistMsmConfig()
        # each node owns its plan cache: a real deployment would not share
        # planner memory across boxes, and per-node hit rates stay honest
        self.plan_cache = PlanCache()
        self.server = MsmProofServer(
            self.system, self.config, DEFAULT_NODE_SERVE_CONFIG, plan_cache=self.plan_cache
        )
        self.dispatches: list[NodeDispatch] = []
        #: stamped by the failover layer when the fault plan kills the node
        self.death_ms: float | None = None
        self.detect_ms: float | None = None
        # reported load model (estimates, not ground truth)
        self._est_heap: list[float] = []
        self.est_free_ms = 0.0

    # -- load model (router-facing) ------------------------------------------

    def assign(
        self,
        request: ProofRequest,
        dispatch_ms: float,
        est_service_ms: float,
        failover: bool = False,
    ) -> NodeDispatch:
        """Bind ``request`` to this node at ``dispatch_ms`` and book the load."""
        if est_service_ms < 0:
            raise ValueError(f"est_service_ms must be >= 0, got {est_service_ms}")
        dispatch = NodeDispatch(request, dispatch_ms, est_service_ms, failover)
        self.dispatches.append(dispatch)
        est_start = max(dispatch_ms, self.est_free_ms)
        est_complete = est_start + est_service_ms
        heapq.heappush(self._est_heap, est_complete)
        self.est_free_ms = est_complete
        return dispatch

    def inflight(self, now_ms: float) -> int:
        """Estimated requests still executing here at ``now_ms``."""
        while self._est_heap and self._est_heap[0] <= now_ms + TIME_EPS:
            heapq.heappop(self._est_heap)
        return len(self._est_heap)

    def backlog_ms(self, now_ms: float) -> float:
        """Estimated time until this node drains its booked work."""
        return max(0.0, self.est_free_ms - now_ms)

    def next_est_complete_ms(self) -> float | None:
        """The earliest booked completion still pending (None when idle)."""
        return self._est_heap[0] if self._est_heap else None

    # -- health (the router sees detection, not the death itself) ----------

    def reported_alive(self, now_ms: float) -> bool:
        """What the heartbeat detector tells the router at ``now_ms``."""
        return self.detect_ms is None or now_ms < self.detect_ms - TIME_EPS

    # -- serving (data plane) ------------------------------------------------

    def local_requests(self, exclude: frozenset[int] | set[int] = frozenset()) -> list[ProofRequest]:
        """The dispatched requests re-stamped to node-local arrivals."""
        return [
            d.local_request()
            for d in self.dispatches
            if d.request.req_id not in exclude
        ]

    def serve(
        self,
        faults: FaultPlan | None = None,
        exclude: frozenset[int] | set[int] = frozenset(),
    ) -> ServeResult:
        """Serve everything dispatched here (minus ``exclude``) under ``faults``.

        ``faults`` is this node's *local* plan (GPU ids 0..num_gpus-1,
        link node 0) produced by
        :func:`repro.cluster.failover.split_fault_plan`; the wrapped
        server recovers intra-node failures itself.  ``exclude`` carries
        the request ids the failover layer already decided were lost to
        this node's death.
        """
        return self.server.serve(self.local_requests(exclude), faults=faults)
