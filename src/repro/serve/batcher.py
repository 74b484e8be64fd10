"""Continuous batching: forming MSM batches and admitting them as tasks.

The batcher is the piece between the waiting room and the execution
engine.  It watches the queue and closes a batch when one of three
triggers fires:

* **size** — the queue holds a full batch (``max_batch_size``, possibly
  degraded under faults);
* **age** — the oldest waiting request has waited ``max_wait_ms``
  (bounded batching delay, the knob that trades p50 for throughput);
* **deadline** — waiting any longer would make a waiting request's
  deadline infeasible even if it started immediately.

A closed batch is bound to one GPU group and emitted as engine tasks:
per-request GPU stages on every GPU of the group (FIFO streams serialize
requests within the batch), one device-to-host transfer on the group's
node link (requiring the group's GPUs alive — GPU memory dies with the
GPU), and one host bucket-reduce on the shared CPU.  Because every batch
lands on the *same* shared timeline, batches from different requests
overlap GPU compute, node transfers, and CPU bucket-reduce exactly the
way §3.2.3 pipelines one proof's MSM sequence — generalised to an
arbitrary request stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.engine.resources import Resource, SystemResources
from repro.engine.timeline import Task
from repro.serve.plancache import CachedPlan
from repro.serve.queue import ProofRequest, RequestQueue

if TYPE_CHECKING:
    from repro.serve.server import ServeConfig


@dataclass
class Batch:
    """One formed batch: requests bound to a GPU group at a point in time.

    ``formed_ms`` is when the trigger fired; ``admit_ms`` adds the
    modelled planning latency (plan-cache misses); ``window_sizes`` maps
    request id to the §3.1 window size its plan chose.
    """

    batch_id: int
    group: int
    requests: list[ProofRequest]
    formed_ms: float
    admit_ms: float
    window_sizes: dict = field(default_factory=dict)
    plan_misses: int = 0

    @property
    def size(self) -> int:
        return len(self.requests)


def request_task_names(req_id: int, attempt: int, gpu_indices: list[int]) -> dict:
    """The engine task names of one request execution attempt."""
    prefix = f"req{req_id}.a{attempt}"
    return {
        "gpu": [f"{prefix}:gpu{i}" for i in gpu_indices],
        "xfer": f"{prefix}:xfer",
        "reduce": f"{prefix}:reduce",
    }


def emit_request_tasks(
    request: ProofRequest,
    attempt: int,
    plan: CachedPlan,
    group_gpus: list[Resource],
    resources: SystemResources,
    not_before_ms: float,
    stage: str,
    extra_deps: tuple[str, ...] = (),
) -> list[Task]:
    """One request's execution as engine tasks on its group's resources.

    GPU stages run on every GPU of the (possibly fault-shrunken) group,
    the transfer on the first group member's node link — requiring every
    group GPU alive, since partial bucket sums live in GPU memory until
    the copy lands — and the bucket-reduce on the shared host CPU.
    ``extra_deps`` gate the GPU stage: they serialise the one-at-a-time
    baseline (each request's GPU stage waits for the previous request's
    reduce) and hold a Byzantine retry until the rejected result lands.
    """
    if not group_gpus:
        raise ValueError(f"request {request.req_id}: empty GPU group")
    names = request_task_names(request.req_id, attempt, [g.index for g in group_gpus])
    tasks = [
        Task(
            name,
            gpu,
            plan.gpu_ms,
            deps=extra_deps,
            stage=stage,
            not_before_ms=not_before_ms,
        )
        for name, gpu in zip(names["gpu"], group_gpus)
    ]
    tasks.append(
        Task(
            names["xfer"],
            resources.channel_for_gpu(group_gpus[0].index),
            plan.transfer_ms,
            deps=tuple(names["gpu"]),
            stage=stage,
            not_before_ms=not_before_ms,
            requires_alive=tuple(g.name for g in group_gpus),
        )
    )
    tasks.append(
        Task(
            names["reduce"],
            resources.cpu,
            plan.cpu_ms,
            deps=(names["xfer"],),
            stage=stage,
            not_before_ms=not_before_ms,
        )
    )
    return tasks


class ContinuousBatcher:
    """Batch-formation policy over a :class:`RequestQueue`.

    The server owns the clock and the queue; the batcher answers two
    questions — *when* to close the next batch and *which* requests go
    into it — and emits the closed batch's tasks.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.batches: list[Batch] = []

    def next_close_ms(
        self,
        queue: RequestQueue,
        now_ms: float,
        effective_max_batch: int,
        service_peek: Callable[[ProofRequest], float | None],
    ) -> float | None:
        """When the next batch should close, given the queue right now.

        ``None`` when the queue is empty.  ``service_peek`` returns the
        cached service-time estimate for a request (``None`` when the
        plan cache has never seen its shape — no deadline pressure can be
        computed for it yet).
        """
        if not len(queue):
            return None
        if len(queue) >= effective_max_batch:
            return now_ms
        oldest = queue.oldest_arrival_ms()
        assert oldest is not None
        close = oldest + self.config.max_wait_ms
        for request in queue.snapshot():
            if request.deadline_ms is None:
                continue
            estimate = service_peek(request)
            if estimate is None:
                continue
            close = min(close, request.deadline_ms - estimate)
        return max(now_ms, close)

    def form(
        self,
        queue: RequestQueue,
        group: int,
        formed_ms: float,
        admit_ms: float,
        effective_max_batch: int,
        window_sizes: dict,
        plan_misses: int,
    ) -> Batch:
        """Close a batch: drain the queue in urgency order and record it."""
        requests = queue.pop_batch(effective_max_batch)
        batch = Batch(
            batch_id=len(self.batches),
            group=group,
            requests=requests,
            formed_ms=formed_ms,
            admit_ms=admit_ms,
            window_sizes=dict(window_sizes),
            plan_misses=plan_misses,
        )
        self.batches.append(batch)
        return batch
