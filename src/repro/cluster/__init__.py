"""repro.cluster: a multi-node sharded proof-serving cluster.

The serving layer (:mod:`repro.serve`) runs one proof server on one
multi-GPU box.  This package scales that out: N
:class:`~repro.cluster.node.ProofNode` boxes behind a
:class:`~repro.cluster.router.ProofCluster` front-end with per-tenant
weighted-fair queues and SLO budgets, least-loaded routing,
heartbeat-detected node failover with at-most-once re-dispatch, a
simulated queue-depth autoscaler, and replayable JSON workload
traces (:mod:`repro.cluster.trace`).  Everything runs on the ONE
simulated clock of :mod:`repro.engine.timeline`, and every run is
auditable by :mod:`repro.verify.clustercheck`.
"""

from repro.cluster.autoscale import (
    ACTION_DOWN,
    ACTION_HOLD,
    ACTION_UP,
    AutoscaleConfig,
    Autoscaler,
    ScaleDecision,
)
from repro.cluster.failover import (
    NodeDeath,
    node_of_gpu,
    serve_dying_node,
    split_fault_plan,
)
from repro.cluster.metrics import ClusterMetrics, ClusterRecord, tenant_name
from repro.cluster.node import (
    DEFAULT_NODE_SERVE_CONFIG,
    NodeDispatch,
    ProofNode,
)
from repro.cluster.record import record_cluster
from repro.cluster.router import (
    ClusterResult,
    Dispatch,
    FailoverEvent,
    ProofCluster,
    TenantSpec,
)
from repro.cluster.trace import (
    SEGMENT_KINDS,
    TRACE_FORMAT,
    ClusterTrace,
    TraceSegment,
    diurnal_burst_trace,
    generate_requests,
    replay,
)

__all__ = [
    "ACTION_DOWN",
    "ACTION_HOLD",
    "ACTION_UP",
    "AutoscaleConfig",
    "Autoscaler",
    "ClusterMetrics",
    "ClusterRecord",
    "ClusterResult",
    "ClusterTrace",
    "DEFAULT_NODE_SERVE_CONFIG",
    "Dispatch",
    "FailoverEvent",
    "NodeDeath",
    "NodeDispatch",
    "ProofCluster",
    "ProofNode",
    "SEGMENT_KINDS",
    "ScaleDecision",
    "TRACE_FORMAT",
    "TenantSpec",
    "TraceSegment",
    "diurnal_burst_trace",
    "generate_requests",
    "node_of_gpu",
    "record_cluster",
    "replay",
    "serve_dying_node",
    "split_fault_plan",
    "tenant_name",
]
