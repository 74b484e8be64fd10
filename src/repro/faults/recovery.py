"""Failure detection and re-planning policy for the DistMSM orchestrator.

The recovery model (DESIGN.md §9):

* **Detection** is heartbeat-based: the host notices a GPU death only at
  the first heartbeat tick *after* it happens (:func:`detection_time_ms`).
  Work already queued behind the dead GPU fails on its own; detection
  gates when the re-planned work may start.
* **Re-planning** redistributes the dead GPU's *lost* assignments over the
  survivors round-robin (:func:`redistribute_assignments`), keeping the
  same window size ``s`` — partial bucket sums are ``s``-bound, so mixing
  window sizes would force recomputing everything from scratch.  The
  §3.1-optimal ``s`` for the reduced GPU count is still recomputed and
  reported (:attr:`FaultReport.replanned_window_size`) as the policy for
  the *next* MSM on the degraded cluster.
* **Accounting** stays honest: the recovered makespan includes the aborted
  work, the detection latency, and every retry's backoff gap; the
  :class:`FaultReport` carries the fault-free makespan alongside so the
  recovery overhead is a first-class output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro.engine.faults import (
    ByzantineWorker,
    FaultEvent,
    FaultPlan,
    GpuFailure,
    Straggler,
    TransferError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import Assignment
    from repro.gpu.cluster import MultiGpuSystem

#: guard for float heartbeat-tick arithmetic
_TICK_EPS = 1e-9

#: heartbeat period of the GPU failure detector (ms): a GPU death is
#: noticed at the first tick after it happens, by the engine and the server
GPU_HEARTBEAT_MS = 1.0


def fault_event_dict(event: FaultEvent) -> dict:
    """One fault event as a plain dict tagged with its type name.

    The stable serialisation both :meth:`FaultReport.to_json` and chaos-run
    archiving use: field dict plus ``"type"``, so heterogeneous plans
    round-trip through sorted-key JSON deterministically.
    """
    record = asdict(event)
    record["type"] = type(event).__name__
    return record


class FaultRecoveryError(RuntimeError):
    """Raised when no recovery is possible (e.g. every GPU died)."""


def validate_fault_plan(faults: FaultPlan, system: "MultiGpuSystem") -> None:
    """Reject a plan naming GPUs or links ``system`` lacks, or killing every GPU.

    The one check :class:`~repro.core.distmsm.DistMsm` and the proof server
    run before anything executes, so an event addressed past the system's
    GPUs or nodes raises instead of being silently ignored.
    """
    num, nodes = system.num_gpus, system.nodes
    for event in faults.events:
        if isinstance(event, (GpuFailure, Straggler, ByzantineWorker)) and event.gpu_id >= num:
            raise ValueError(f"fault targets gpu {event.gpu_id}, system has {num} GPUs")
        if isinstance(event, TransferError) and event.node >= nodes:
            raise ValueError(f"fault targets node {event.node}, system has {nodes} node(s)")
    if len(faults.gpu_death_times()) >= num:
        raise FaultRecoveryError("fault plan kills every GPU; no survivor to recover onto")


def max_recovery_rounds(faults: FaultPlan, system: "MultiGpuSystem") -> int:
    """Re-plans a recovery loop may run before it raises
    :class:`FaultRecoveryError`: one per fault event and per GPU, plus two.

    :class:`~repro.core.distmsm.DistMsm` and the proof server share it.
    """
    return len(faults.events) + system.num_gpus + 2


def detection_time_ms(at_ms: float, heartbeat_ms: float) -> float:
    """When the host *notices* a failure that happened at ``at_ms``.

    The detector polls every ``heartbeat_ms``; a death at exactly a tick is
    caught by the *next* tick (the tick that fires at the death time still
    sees the GPU's last heartbeat).
    """
    if heartbeat_ms <= 0:
        raise ValueError(f"heartbeat_ms must be > 0, got {heartbeat_ms}")
    if at_ms < 0:
        raise ValueError(f"at_ms must be >= 0, got {at_ms}")
    return (math.floor(at_ms / heartbeat_ms + _TICK_EPS) + 1) * heartbeat_ms


def redistribute_assignments(
    assignments: Sequence["Assignment"],
    survivors: Sequence[int],
) -> list["Assignment"]:
    """Reassign lost work round-robin over ``survivors``.

    Each assignment keeps its window and fractional bucket/point ranges —
    only the owning GPU changes — so the recovered execution covers exactly
    the same (window, bucket-range, point-range) cells as the original
    plan, which is what makes bit-exact recovery possible.
    """
    if not survivors:
        raise FaultRecoveryError("no surviving GPUs to redistribute work onto")
    ordered = sorted(survivors)
    return [
        replace(a, gpu=ordered[i % len(ordered)]) for i, a in enumerate(assignments)
    ]


@dataclass(frozen=True)
class RecoveryRound:
    """One detect-and-re-plan round of a recovered execution."""

    round: int  #: 0 = the original plan, 1+ = re-plans
    gpus: tuple[int, ...]  #: GPUs executing in this round
    failed_gpus: tuple[int, ...]  #: GPUs lost *during* this round
    lost_chunks: tuple[tuple[int, int], ...]  #: (round, gpu) chunks to redo
    detected_at_ms: float  #: heartbeat tick that triggered the next round
    start_at_ms: float  #: earliest start of the re-planned work


@dataclass(frozen=True)
class FaultReport:
    """What happened during a faulted execution, attached to the result."""

    plan: FaultPlan
    rounds: tuple[RecoveryRound, ...]
    dead_gpus: tuple[int, ...]
    surviving_gpus: tuple[int, ...]
    fault_free_ms: float
    recovered_ms: float
    window_size: int  #: the s actually executed (original plan's s)
    replanned_window_size: int  #: §3.1-optimal s for the survivor count
    retries: int = 0  #: transfer retries that occurred across the run

    def __post_init__(self) -> None:
        if self.recovered_ms < 0 or self.fault_free_ms < 0:
            raise ValueError("makespans must be >= 0")

    @property
    def recovery_overhead_ms(self) -> float:
        """Extra wall-clock caused by faults (>= 0 up to float noise)."""
        return self.recovered_ms - self.fault_free_ms

    def summary(self) -> str:
        parts = [
            f"{len(self.dead_gpus)} GPU(s) lost",
            f"{len(self.surviving_gpus)} survived",
            f"{self.retries} transfer retr{'y' if self.retries == 1 else 'ies'}",
            f"overhead {self.recovery_overhead_ms:+.3f} ms",
        ]
        if self.replanned_window_size != self.window_size:
            parts.append(
                f"next-MSM window {self.window_size}->{self.replanned_window_size}"
            )
        return ", ".join(parts)

    def to_json(self) -> str:
        """Deterministic JSON export (sorted keys) for archiving chaos runs.

        The fault plan's events are serialised as typed dicts
        (:func:`fault_event_dict`), so the archived record fully determines
        the run it came from.
        """
        record = {
            "plan": [fault_event_dict(e) for e in self.plan.events],
            "rounds": [
                {**asdict(r), "lost_chunks": [list(c) for c in r.lost_chunks],
                 "gpus": list(r.gpus), "failed_gpus": list(r.failed_gpus)}
                for r in self.rounds
            ],
            "dead_gpus": list(self.dead_gpus),
            "surviving_gpus": list(self.surviving_gpus),
            "fault_free_ms": self.fault_free_ms,
            "recovered_ms": self.recovered_ms,
            "window_size": self.window_size,
            "replanned_window_size": self.replanned_window_size,
            "retries": self.retries,
        }
        return json.dumps(record, sort_keys=True)
