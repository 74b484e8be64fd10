"""repro.serve — continuous-batching MSM proof serving in simulated time.

The serving layer turns the repository's single-MSM machinery into a
request-serving system: seeded arrival processes feed a bounded queue
behind admission control, a continuous batcher forms MSM batches
(size/age/deadline triggers) and plans them through persistent plan and
precompute caches, and every batch lands on ONE shared event-driven
timeline so GPU compute, node transfers, and host bucket-reduce overlap
across requests.  Faults degrade capacity and retry work honestly;
metrics report the SLO story (p50/p95/p99, throughput, utilization,
shed/violation counts) as JSON.

See DESIGN.md §10 for the architecture walk-through.
"""

from repro.serve.admission import (
    SHED_INFEASIBLE,
    SHED_QUEUE_FULL,
    AdmissionController,
    ShedEvent,
    degraded_batch_size,
)
from repro.serve.batcher import (
    Batch,
    ContinuousBatcher,
    emit_request_tasks,
    request_task_names,
)
from repro.serve.metrics import RequestRecord, ServeMetrics
from repro.serve.plancache import CachedPlan, CacheStats, PlanCache, cache_report
from repro.serve.queue import (
    MsmPayload,
    ProofRequest,
    RequestQueue,
    bursty_trace,
    poisson_trace,
)
from repro.serve.server import (
    MsmProofServer,
    ServeConfig,
    ServeResult,
    serve_one_at_a_time,
)

__all__ = [
    "SHED_INFEASIBLE",
    "SHED_QUEUE_FULL",
    "AdmissionController",
    "Batch",
    "CacheStats",
    "CachedPlan",
    "ContinuousBatcher",
    "MsmPayload",
    "MsmProofServer",
    "PlanCache",
    "ProofRequest",
    "RequestQueue",
    "RequestRecord",
    "ServeConfig",
    "ServeMetrics",
    "ServeResult",
    "ShedEvent",
    "bursty_trace",
    "cache_report",
    "degraded_batch_size",
    "emit_request_tasks",
    "poisson_trace",
    "request_task_names",
    "serve_one_at_a_time",
]
