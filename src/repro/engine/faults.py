"""Deterministic fault events for the execution engine (paper §5 scale-out).

The simulated cluster historically assumed every GPU, transfer channel and
host survived every run.  This module is the chaos layer: a
:class:`FaultPlan` is a *fixed, validated schedule* of typed fault events
that :func:`repro.engine.timeline.simulate` injects into its event loop —
so a resource can die, slow down, or fail a task mid-timeline, and every
chaos run is exactly reproducible from the plan (and, one level up, from
the seed that generated it — :func:`repro.faults.chaos.random_fault_plan`).

Three event types, mirroring the failure modes that dominate real
multi-GPU ZKP deployments (ZKProphet's tail/variance observation):

* :class:`GpuFailure` — fail-stop: the GPU's compute stream dies at
  ``at_ms``; the running task is killed, queued tasks can never start, and
  in-flight transfers that *require* the GPU (its memory) die with it.
* :class:`Straggler` — the GPU survives but every task on it runs
  ``slowdown`` times longer (thermal throttling, a bad PCIe lane, a noisy
  neighbour).
* :class:`TransferError` — the node's host link corrupts whatever transfer
  is in flight at ``at_ms``; ``transient`` errors are retryable under a
  :class:`RetryPolicy` (exponential backoff), permanent ones are not.
* :class:`ByzantineWorker` — the GPU stays alive and on time but returns
  *forged* chunk results (wrong point, flipped bit, shifted bucket); the
  timeline simulator ignores it (timing is unaffected), the orchestrator
  corrupts that GPU's delivered partials deterministically and must catch
  the forgery through the :mod:`repro.msm.outsource` verification
  protocol (DESIGN.md §14).

Events address resources by the standard :func:`~repro.engine.resources.
system_resources` names (``"gpu3"``, ``"node0-link"``), which keeps the
engine generic: any task graph using those names can be chaos-tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def gpu_resource_name(gpu_id: int) -> str:
    """The engine resource name of one GPU's compute stream."""
    return f"gpu{gpu_id}"


def channel_resource_name(node: int) -> str:
    """The engine resource name of one node's host transfer link."""
    return f"node{node}-link"


@dataclass(frozen=True)
class GpuFailure:
    """GPU ``gpu_id`` fail-stops at ``at_ms`` (device and memory lost)."""

    at_ms: float
    gpu_id: int

    def __post_init__(self) -> None:
        if self.at_ms < 0 or not math.isfinite(self.at_ms):
            raise ValueError(f"GpuFailure.at_ms must be finite and >= 0, got {self.at_ms}")
        if self.gpu_id < 0:
            raise ValueError(f"GpuFailure.gpu_id must be >= 0, got {self.gpu_id}")

    @property
    def resource(self) -> str:
        return gpu_resource_name(self.gpu_id)


@dataclass(frozen=True)
class Straggler:
    """GPU ``gpu_id`` runs every task ``slowdown``x slower (but survives)."""

    gpu_id: int
    slowdown: float

    def __post_init__(self) -> None:
        if self.gpu_id < 0:
            raise ValueError(f"Straggler.gpu_id must be >= 0, got {self.gpu_id}")
        if self.slowdown < 1.0 or not math.isfinite(self.slowdown):
            raise ValueError(f"Straggler.slowdown must be finite and >= 1, got {self.slowdown}")

    @property
    def resource(self) -> str:
        return gpu_resource_name(self.gpu_id)


@dataclass(frozen=True)
class TransferError:
    """The transfer in flight on ``node``'s link at ``at_ms`` fails.

    A transient error is retryable (the orchestrator re-issues the copy
    after exponential backoff); a permanent one poisons the delivery, and
    recovery must re-plan the work elsewhere.  An error that fires while
    the link is idle hits nothing and expires silently.
    """

    node: int
    at_ms: float
    transient: bool = True

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"TransferError.node must be >= 0, got {self.node}")
        if self.at_ms < 0 or not math.isfinite(self.at_ms):
            raise ValueError(f"TransferError.at_ms must be finite and >= 0, got {self.at_ms}")

    @property
    def resource(self) -> str:
        return channel_resource_name(self.node)


#: corruption modes a Byzantine worker may apply to its chunk results
BYZANTINE_MODES = ("wrong-result", "bit-flip", "off-by-one-bucket")


@dataclass(frozen=True)
class ByzantineWorker:
    """GPU ``gpu_id`` forges its chunk results (but meets every deadline).

    ``mode`` picks the corruption applied to the delivered bucket partials
    (see :mod:`repro.faults.byzantine`); ``round`` restricts the cheating
    to one recovery round (the adaptive "cheat only on round r" attacker),
    ``None`` cheats on every chunk it is ever dispatched; ``seed`` drives
    the deterministic corruption PRG so every forgery is replayable.
    """

    gpu_id: int
    mode: str = "wrong-result"
    round: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gpu_id < 0:
            raise ValueError(f"ByzantineWorker.gpu_id must be >= 0, got {self.gpu_id}")
        if self.mode not in BYZANTINE_MODES:
            raise ValueError(
                f"unknown byzantine mode {self.mode!r}; choose from {BYZANTINE_MODES}"
            )
        if self.round is not None and self.round < 0:
            raise ValueError(f"ByzantineWorker.round must be >= 0, got {self.round}")

    def cheats_in_round(self, rnd: int) -> bool:
        """Whether this worker forges the chunk it runs in round ``rnd``."""
        return self.round is None or self.round == rnd


FaultEvent = GpuFailure | Straggler | TransferError | ByzantineWorker


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry policy for transient transfer errors.

    After failed attempt ``k`` (1-based) the next attempt may start no
    earlier than ``fail_time + backoff_base_ms * 2**(k-1)``; at most
    ``max_retries`` retries are issued before the task fails permanently.
    """

    max_retries: int = 3
    backoff_base_ms: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_ms <= 0:
            raise ValueError(f"backoff_base_ms must be > 0, got {self.backoff_base_ms}")

    def delay_ms(self, failed_attempt: int) -> float:
        """Backoff before the retry that follows ``failed_attempt`` (1-based)."""
        if failed_attempt < 1:
            raise ValueError(f"attempt numbers are 1-based, got {failed_attempt}")
        return self.backoff_base_ms * (2.0 ** (failed_attempt - 1))


@dataclass(frozen=True)
class FaultPlan:
    """A validated, deterministic schedule of fault events.

    At most one :class:`GpuFailure`, one :class:`Straggler` and one
    :class:`ByzantineWorker` per GPU; any number of
    :class:`TransferError` events per link.  The plan is the
    single source of truth for a chaos run: the engine consumes it, the
    orchestrator re-plans around it, and the independent checker
    (:mod:`repro.verify.faultcheck`) audits the resulting timeline
    against it.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        dead: set[int] = set()
        slowed: set[int] = set()
        byzantine: set[int] = set()
        for event in self.events:
            if isinstance(event, GpuFailure):
                if event.gpu_id in dead:
                    raise ValueError(f"duplicate GpuFailure for gpu {event.gpu_id}")
                dead.add(event.gpu_id)
            elif isinstance(event, Straggler):
                if event.gpu_id in slowed:
                    raise ValueError(f"duplicate Straggler for gpu {event.gpu_id}")
                slowed.add(event.gpu_id)
            elif isinstance(event, ByzantineWorker):
                if event.gpu_id in byzantine:
                    raise ValueError(
                        f"duplicate ByzantineWorker for gpu {event.gpu_id}"
                    )
                byzantine.add(event.gpu_id)
            elif not isinstance(event, TransferError):
                raise TypeError(f"unknown fault event {event!r}")

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultPlan":
        return cls(tuple(events))

    @property
    def empty(self) -> bool:
        return not self.events

    def death_times(self) -> dict[str, float]:
        """Resource name -> fail-stop time."""
        return {e.resource: e.at_ms for e in self.events if isinstance(e, GpuFailure)}

    def gpu_death_times(self) -> dict[int, float]:
        """GPU id -> fail-stop time."""
        return {e.gpu_id: e.at_ms for e in self.events if isinstance(e, GpuFailure)}

    def slowdowns(self) -> dict[str, float]:
        """Resource name -> straggler slowdown factor."""
        return {e.resource: e.slowdown for e in self.events if isinstance(e, Straggler)}

    def transfer_errors(self) -> dict[str, list[TransferError]]:
        """Resource name -> its transfer-error events, in time order."""
        out: dict[str, list[TransferError]] = {}
        for event in sorted(
            (e for e in self.events if isinstance(e, TransferError)),
            key=lambda e: (e.at_ms, e.node),
        ):
            out.setdefault(event.resource, []).append(event)
        return out

    def byzantine_workers(self) -> dict[int, ByzantineWorker]:
        """GPU id -> its Byzantine event (the timing layers ignore these)."""
        return {
            e.gpu_id: e for e in self.events if isinstance(e, ByzantineWorker)
        }
