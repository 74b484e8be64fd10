"""Admission control: backpressure, load shedding, fault-aware degrade.

The serving layer never silently drops work and never queues work it
cannot finish.  Every arriving request passes through the
:class:`AdmissionController`, which either admits it into the bounded
:class:`~repro.serve.queue.RequestQueue` or sheds it with a typed
:class:`ShedEvent`:

* ``queue-full`` — the bounded queue is at capacity (backpressure: in a
  real deployment the client would see HTTP 429 / retry-after);
* ``deadline-infeasible`` — even starting immediately on the
  least-loaded group, the request's modelled completion would overshoot
  its deadline, so accepting it would only waste GPU time.
* ``untrusted-capacity`` — chunk verification is on and no GPU is both
  alive and trusted (every survivor is a known always-cheating Byzantine
  worker), so no result the cluster could produce would ever pass
  verify-on-receive; queueing would promise work that can only be
  rejected.

Shed requests *never execute* — the servecheck verifier
(:mod:`repro.verify.servecheck`) audits that no shed request has a task
on the timeline.

Under faults the controller degrades rather than fails: when the failure
detector reports dead GPUs (heartbeat semantics from
:mod:`repro.faults.recovery`), the surviving capacity fraction shrinks
the effective batch size (``degraded_batch_size``) and feasibility is
judged against the re-planned, slower service times — serving keeps its
promises or refuses them, it does not break them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.serve.queue import ProofRequest

if TYPE_CHECKING:
    from repro.serve.server import ServeConfig

#: shed reasons (the only values ShedEvent.reason may take)
SHED_QUEUE_FULL = "queue-full"
SHED_INFEASIBLE = "deadline-infeasible"
SHED_UNTRUSTED = "untrusted-capacity"


@dataclass(frozen=True)
class ShedEvent:
    """One load-shedding decision: which request, when, and why."""

    request: ProofRequest
    at_ms: float
    reason: str

    def __post_init__(self) -> None:
        if self.reason not in (SHED_QUEUE_FULL, SHED_INFEASIBLE, SHED_UNTRUSTED):
            raise ValueError(f"unknown shed reason {self.reason!r}")


@dataclass
class AdmissionController:
    """Decides, per arrival, between admission and typed shedding.

    ``config.max_queue`` bounds the waiting room; ``config.reject_infeasible``
    enables deadline-based shedding.
    """

    config: ServeConfig
    shed: list[ShedEvent] = field(default_factory=list)

    def decide(
        self,
        request: ProofRequest,
        queue_len: int,
        earliest_start_ms: float,
        service_estimate_ms: float,
    ) -> ShedEvent | None:
        """Admit (``None``) or shed (the recorded :class:`ShedEvent`).

        ``earliest_start_ms`` is the earliest time any group could start
        the request (arrival vs. least-loaded group's backlog);
        ``service_estimate_ms`` the cached plan's un-overlapped service
        time at current (possibly fault-degraded) capacity.
        """
        if queue_len >= self.config.max_queue:
            return self._shed(request, request.arrival_ms, SHED_QUEUE_FULL)
        if (
            self.config.reject_infeasible
            and request.deadline_ms is not None
            and earliest_start_ms + service_estimate_ms > request.deadline_ms
        ):
            return self._shed(request, request.arrival_ms, SHED_INFEASIBLE)
        return None

    def _shed(self, request: ProofRequest, at_ms: float, reason: str) -> ShedEvent:
        event = ShedEvent(request, at_ms, reason)
        self.shed.append(event)
        return event

    def shed_untrusted(self, request: ProofRequest, at_ms: float) -> ShedEvent:
        """Shed because no GPU is both alive and trusted (quarantine)."""
        return self._shed(request, at_ms, SHED_UNTRUSTED)


def degraded_batch_size(
    base_batch_size: int, surviving_gpus: int, total_gpus: int
) -> int:
    """Batch size under fault-replanned capacity, floored at one.

    Losing half the GPUs halves the batch the batcher may close — smaller
    batches keep per-request latency bounded while the survivors carry
    the re-planned, slower service times.
    """
    if base_batch_size < 1:
        raise ValueError(f"base_batch_size must be >= 1, got {base_batch_size}")
    if not 0 <= surviving_gpus <= total_gpus:
        raise ValueError(
            f"surviving_gpus {surviving_gpus} out of range 0..{total_gpus}"
        )
    if total_gpus == 0:
        return 1
    return max(1, (base_batch_size * surviving_gpus) // total_gpus)
