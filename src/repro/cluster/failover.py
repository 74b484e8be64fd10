"""Node-level failure detection and in-flight re-routing for the cluster.

The cluster takes ONE global fault plan (GPU ids numbered across all
nodes, link indices matching node ids — exactly what
:func:`repro.faults.chaos.random_fault_plan` emits for the whole fleet)
and :func:`split_fault_plan` projects it into per-node *local* plans plus
the list of :class:`NodeDeath` events — a node dies when the plan kills
every one of its GPUs; the death instant is the *last* kill.

Two clocks matter, both reusing the heartbeat semantics of
:func:`repro.faults.recovery.detection_time_ms`:

* ``at_ms`` — when the node actually stops (requests in flight there are
  lost, nothing completes after this instant);
* ``detect_ms`` — when the router's heartbeat notices; between the two
  the router keeps dispatching into the void (those requests are lost
  too), after it the lost work is re-routed to *surviving* nodes.

The kill events that complete a node's death are **withheld** from the
node's local plan: the wrapped :class:`~repro.serve.server.MsmProofServer`
refuses plans that kill every GPU (it could never finish), and the node's
timeline is truncated at the death instant by
:func:`serve_dying_node` instead — a fixed-point that serves the node's
dispatched work, discards every request whose completion lands after the
death, and re-serves until the surviving set is stable.  Earlier partial
kills inside the node stay in the local plan, so intra-node recovery
(re-emission on surviving GPUs) still happens below the cluster layer.

Functional payloads make failover *bit-exact*: the MSM result never
depends on which node computed it, so a re-routed request's point equals
the no-failure point — asserted by tests and the cluster benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.faults import (
    ByzantineWorker,
    FaultEvent,
    FaultPlan,
    GpuFailure,
    Straggler,
    TransferError,
)
from repro.engine.timeline import TIME_EPS
from repro.faults.recovery import FaultRecoveryError, detection_time_ms
from repro.cluster.node import ProofNode
from repro.serve.server import ServeResult

#: re-serves :func:`serve_dying_node` may take before it gives up
TRUNCATION_MAX_ROUNDS = 64


@dataclass(frozen=True)
class NodeDeath:
    """One node's fail-stop: actual instant and heartbeat detection tick."""

    node_id: int
    at_ms: float
    detect_ms: float

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError(f"NodeDeath.at_ms must be >= 0, got {self.at_ms}")
        if self.detect_ms < self.at_ms:
            raise ValueError(
                f"NodeDeath detected at {self.detect_ms} before death {self.at_ms}"
            )


def node_of_gpu(gpu_id: int, node_gpu_counts: list[int]) -> tuple[int, int]:
    """Map a global GPU id to ``(node_id, local_gpu_id)``."""
    offset = 0
    for node_id, count in enumerate(node_gpu_counts):
        if gpu_id < offset + count:
            return node_id, gpu_id - offset
        offset += count
    raise ValueError(
        f"gpu {gpu_id} outside the cluster (total {offset} GPUs)"
    )


def split_fault_plan(
    faults: FaultPlan | None,
    node_gpu_counts: list[int],
    heartbeat_ms: float,
) -> tuple[list[FaultPlan | None], list[NodeDeath]]:
    """Project a global fault plan into per-node local plans plus deaths.

    GPU-addressed events are remapped to node-local GPU ids;
    :class:`TransferError` events go to the node their link index names.
    For every node whose GPUs are *all* killed, a :class:`NodeDeath` is
    emitted (death = the last kill) and the kills at that final instant
    are withheld from the local plan, leaving the node's own server a
    survivor to recover onto until the box actually stops.
    """
    if heartbeat_ms <= 0:
        raise ValueError(f"heartbeat_ms must be > 0, got {heartbeat_ms}")
    num_nodes = len(node_gpu_counts)
    if faults is None or faults.empty:
        return [None] * num_nodes, []

    per_node: list[list[FaultEvent]] = [[] for _ in range(num_nodes)]
    for event in faults.events:
        if isinstance(event, GpuFailure):
            node_id, local = node_of_gpu(event.gpu_id, node_gpu_counts)
            per_node[node_id].append(GpuFailure(event.at_ms, local))
        elif isinstance(event, Straggler):
            node_id, local = node_of_gpu(event.gpu_id, node_gpu_counts)
            per_node[node_id].append(Straggler(local, event.slowdown))
        elif isinstance(event, ByzantineWorker):
            node_id, local = node_of_gpu(event.gpu_id, node_gpu_counts)
            per_node[node_id].append(
                ByzantineWorker(local, event.mode, event.round, event.seed)
            )
        elif isinstance(event, TransferError):
            if event.node >= num_nodes:
                raise ValueError(
                    f"TransferError names node {event.node}; cluster has "
                    f"{num_nodes} nodes"
                )
            per_node[event.node].append(
                TransferError(0, event.at_ms, event.transient)
            )
        else:  # pragma: no cover - FaultPlan already validated event types
            raise TypeError(f"unknown fault event {event!r}")

    plans: list[FaultPlan | None] = []
    deaths: list[NodeDeath] = []
    for node_id, events in enumerate(per_node):
        kills = [e for e in events if isinstance(e, GpuFailure)]
        killed = {e.gpu_id for e in kills}
        if killed == set(range(node_gpu_counts[node_id])) and killed:
            death_ms = max(e.at_ms for e in kills)
            deaths.append(
                NodeDeath(
                    node_id=node_id,
                    at_ms=death_ms,
                    detect_ms=detection_time_ms(death_ms, heartbeat_ms),
                )
            )
            # withhold the final kill(s): the box stops at death_ms anyway,
            # and the node server needs a survivor for its earlier recovery
            events = [
                e
                for e in events
                if not (
                    isinstance(e, GpuFailure) and e.at_ms >= death_ms - TIME_EPS
                )
            ]
        plans.append(FaultPlan(tuple(events)) if events else None)
    return plans, deaths


def serve_dying_node(
    node: ProofNode,
    local_faults: FaultPlan | None,
    death: NodeDeath,
) -> tuple[ServeResult, set[int]]:
    """Serve a dying node's dispatched work, truncated at its death.

    Returns ``(result, lost_ids)`` where ``result`` serves exactly the
    requests that completed strictly before the node stopped, and
    ``lost_ids`` are the dispatches the death swallowed — requests
    dispatched at-or-after the death instant (the router had not detected
    it yet) plus requests whose completion would have landed after it.

    The truncation is a fixed point: removing a request can only *pull
    earlier* or reshuffle batch formation for the rest, so the serve is
    repeated with the grown exclusion set until no served completion
    crosses the death instant.
    """
    lost: set[int] = {
        d.request.req_id
        for d in node.dispatches
        if d.dispatch_ms >= death.at_ms - TIME_EPS
    }
    for _ in range(TRUNCATION_MAX_ROUNDS):
        result = node.serve(faults=local_faults, exclude=lost)
        late = {
            r.req_id
            for r in result.records
            if r.complete_ms > death.at_ms + TIME_EPS
        }
        if not late:
            return result, lost
        lost |= late
    raise FaultRecoveryError(
        f"node {node.node_id} death truncation did not converge within "
        f"{TRUNCATION_MAX_ROUNDS} rounds"
    )
