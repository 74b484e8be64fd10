"""repro.engine — the unified event-driven execution timeline.

One scheduler for everything the reproduction times: DistMSM's own phases
(:mod:`repro.core.distmsm` emits its per-GPU scatter / bucket-sum / reduce /
transfer work as tasks), the cross-MSM flow shop of §3.2.3
(:func:`repro.core.multi_msm.schedule_pipeline` runs GPU groups and one
shared CPU on this timeline, for one proof's MSMs or a batch of independent
requests), and the end-to-end proof model (:mod:`repro.zksnark.pipeline`).

Core pieces:

* :class:`~repro.engine.resources.Resource` / :func:`system_resources` —
  typed units: per-GPU compute streams, per-node transfer channels, host CPU.
* :class:`~repro.engine.timeline.Task` / :class:`Stage` /
  :class:`Timeline` and :func:`simulate` — the deterministic event loop,
  which is :class:`~repro.engine.timeline.Simulation`'s (the one loop,
  fault-free or faulted, and resumable) run in one go.
* :class:`~repro.engine.timeline.TimelineBuilder` — incremental graph
  construction with barrier stages.
* :class:`~repro.engine.faults.FaultPlan` and its typed events
  (:class:`GpuFailure` / :class:`Straggler` / :class:`TransferError`) —
  deterministic chaos schedules consumed by :func:`simulate`.
"""

from repro.engine.faults import (
    FaultEvent,
    FaultPlan,
    GpuFailure,
    RetryPolicy,
    Straggler,
    TransferError,
    channel_resource_name,
    gpu_resource_name,
)
from repro.engine.resources import (
    GPU_COMPUTE,
    HOST_CPU,
    TRANSFER,
    Resource,
    SystemResources,
    system_resources,
)
from repro.engine.timeline import (
    AppendError,
    Simulation,
    Stage,
    Task,
    TaskAttempt,
    TaskFailure,
    TaskSpan,
    Timeline,
    TimelineBuilder,
    simulate,
)

__all__ = [
    "GPU_COMPUTE",
    "HOST_CPU",
    "TRANSFER",
    "Resource",
    "SystemResources",
    "system_resources",
    "AppendError",
    "Simulation",
    "Stage",
    "Task",
    "TaskAttempt",
    "TaskFailure",
    "TaskSpan",
    "Timeline",
    "TimelineBuilder",
    "simulate",
    "FaultEvent",
    "FaultPlan",
    "GpuFailure",
    "RetryPolicy",
    "Straggler",
    "TransferError",
    "channel_resource_name",
    "gpu_resource_name",
]
