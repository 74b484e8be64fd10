"""Request arrival and queueing for the proof-serving layer.

Everything runs in *simulated* milliseconds, the same clock the execution
engine (:mod:`repro.engine.timeline`) schedules on.  A
:class:`ProofRequest` is one client-submitted MSM: a curve, a size, an
arrival time, and optionally a deadline and a functional
payload (the actual scalars and points, for bit-exact serving).

Two open-loop trace generators build deterministic arrival processes from
a seed — :func:`poisson_trace` (exponential inter-arrivals at a fixed
offered rate) and :func:`bursty_trace` (synchronised request bursts, the
adversarial case for admission control).

:class:`RequestQueue` is the bounded waiting room between admission
control and the batcher: requests wait in urgency order (deadline, then
arrival), and the batcher drains them when a batch trigger
fires.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint


@dataclass(frozen=True)
class MsmPayload:
    """The functional content of a request: real scalars and points.

    Optional — analytic serving (timing only) leaves it ``None``.  Tuples,
    not lists, so a request stays hashable and immutable in flight.
    """

    scalars: tuple[int, ...]
    points: tuple[AffinePoint, ...]

    def __post_init__(self) -> None:
        if len(self.scalars) != len(self.points):
            raise ValueError(
                f"payload length mismatch: {len(self.scalars)} scalars, "
                f"{len(self.points)} points"
            )


@dataclass(frozen=True)
class ProofRequest:
    """One MSM proof request as submitted by a client.

    ``deadline_ms`` is absolute (same clock as ``arrival_ms``); ``None``
    means best-effort.
    """

    req_id: int
    curve: CurveParams
    n: int
    arrival_ms: float
    deadline_ms: float | None = None
    label: str = "req"
    payload: MsmPayload | None = None
    #: multi-tenant serving (repro.cluster): which tenant submitted the
    #: request ("" = untenanted single-server workloads)
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"request {self.req_id}: n must be positive")
        if not math.isfinite(self.arrival_ms):
            raise ValueError(
                f"request {self.req_id}: arrival must be finite, got {self.arrival_ms}"
            )
        if self.deadline_ms is not None and not math.isfinite(self.deadline_ms):
            raise ValueError(
                f"request {self.req_id}: deadline must be finite, got {self.deadline_ms}"
            )
        if self.arrival_ms < 0:
            raise ValueError(
                f"request {self.req_id}: negative arrival {self.arrival_ms}"
            )
        if self.deadline_ms is not None and self.deadline_ms < self.arrival_ms:
            raise ValueError(
                f"request {self.req_id}: deadline {self.deadline_ms} before "
                f"arrival {self.arrival_ms}"
            )
        if self.payload is not None and len(self.payload.scalars) != self.n:
            raise ValueError(
                f"request {self.req_id}: payload has "
                f"{len(self.payload.scalars)} scalars but n={self.n}"
            )

    @property
    def urgency(self) -> tuple:
        """Sort key for the queue: EDF, then FIFO."""
        deadline = self.deadline_ms if self.deadline_ms is not None else float("inf")
        return (deadline, self.arrival_ms, self.req_id)


class RequestQueue:
    """The bounded waiting room between admission and the batcher.

    ``push`` never rejects — admission control decides *before* pushing
    (see :class:`repro.serve.admission.AdmissionController`); the queue
    only enforces the invariant that it was never overfilled.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._waiting: list[ProofRequest] = []

    def __len__(self) -> int:
        return len(self._waiting)

    @property
    def full(self) -> bool:
        return len(self._waiting) >= self.capacity

    def push(self, request: ProofRequest) -> None:
        if self.full:
            raise OverflowError(
                f"queue over capacity {self.capacity}; admission must shed first"
            )
        self._waiting.append(request)

    def oldest_arrival_ms(self) -> float | None:
        """Arrival time of the longest-waiting request (age trigger input)."""
        if not self._waiting:
            return None
        return min(r.arrival_ms for r in self._waiting)

    def pop_batch(self, max_size: int) -> list[ProofRequest]:
        """Remove up to ``max_size`` requests in urgency order."""
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self._waiting.sort(key=lambda r: r.urgency)
        batch, self._waiting = self._waiting[:max_size], self._waiting[max_size:]
        return batch

    def snapshot(self) -> tuple[ProofRequest, ...]:
        """The waiting requests, in urgency order (read-only view)."""
        return tuple(sorted(self._waiting, key=lambda r: r.urgency))


def _sizes_at(sizes: int | tuple[int, ...] | list[int], i: int) -> int:
    if isinstance(sizes, int):
        return sizes
    return sizes[i % len(sizes)]


def poisson_trace(
    curve: CurveParams,
    count: int,
    rate_rps: float,
    seed: int,
    sizes: int | tuple[int, ...] | list[int] = 1 << 16,
    deadline_ms: float | None = None,
    start_id: int = 0,
) -> list[ProofRequest]:
    """An open-loop Poisson arrival process at ``rate_rps`` requests/s.

    Inter-arrival gaps are exponential with mean ``1e3 / rate_rps`` ms,
    drawn from a seeded generator, so the trace is fully reproducible.
    ``sizes`` is either one MSM size or a cycle of sizes (mixed traffic);
    ``deadline_ms`` is a *relative* latency SLO attached to every request.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    rng = random.Random(seed)
    now = 0.0
    out: list[ProofRequest] = []
    for i in range(count):
        now += rng.expovariate(rate_rps) * 1e3
        out.append(
            ProofRequest(
                req_id=start_id + i,
                curve=curve,
                n=_sizes_at(sizes, i),
                arrival_ms=now,
                deadline_ms=None if deadline_ms is None else now + deadline_ms,
                label=f"poisson{start_id + i}",
            )
        )
    return out


def bursty_trace(
    curve: CurveParams,
    bursts: int,
    burst_size: int,
    gap_ms: float,
    seed: int = 0,
    sizes: int | tuple[int, ...] | list[int] = 1 << 16,
    jitter_ms: float = 0.0,
) -> list[ProofRequest]:
    """Synchronised best-effort bursts: ``burst_size`` requests every ``gap_ms``.

    The adversarial admission-control case — all clients fire at once.
    ``jitter_ms`` > 0 spreads each burst's arrivals uniformly over that
    window (seeded, deterministic).  Request ids count from 0.
    """
    if bursts < 0 or burst_size < 1:
        raise ValueError("bursts must be >= 0 and burst_size >= 1")
    if gap_ms <= 0:
        raise ValueError(f"gap_ms must be > 0, got {gap_ms}")
    rng = random.Random(seed)
    out: list[ProofRequest] = []
    rid = 0
    for b in range(bursts):
        base = b * gap_ms
        for _ in range(burst_size):
            at = base + (rng.uniform(0.0, jitter_ms) if jitter_ms > 0 else 0.0)
            out.append(
                ProofRequest(
                    req_id=rid,
                    curve=curve,
                    n=_sizes_at(sizes, rid),
                    arrival_ms=at,
                    label=f"burst{b}.{rid}",
                )
            )
            rid += 1
    out.sort(key=lambda r: (r.arrival_ms, r.req_id))
    return out
