"""SLO metrics for the serving layer: latency breakdowns and percentiles.

Every served request gets a :class:`RequestRecord` with the full
life-cycle timestamps — arrival, batch-close, admission onto the engine,
first GPU start, completion — from which the three-way latency breakdown
(queue wait / batch formation+planning / execution) falls out.  The
:class:`ServeMetrics` aggregate adds the SLO quantities a serving
deployment is judged on: p50/p95/p99 latency, throughput, per-resource
GPU utilization, deadline-violation and shed counts, and cache behaviour
— all exportable as JSON for the benchmark suite
(``benchmarks/bench_serving.py`` writes ``results/serving_latency.txt``).

The SLO block itself — served/submitted/shed counts, the latency tail,
throughput and deadline violations — lives in :class:`SloMetrics`, which
the cluster report (:class:`repro.cluster.metrics.ClusterMetrics`)
extends as well; :class:`LatencyRecord` is the matching per-request
base (end-to-end latency and deadline verdict).

Percentiles use the deterministic nearest-rank definition (no
interpolation), so reported tails are values that actually occurred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Generic, TypeVar

from repro.curves.point import AffinePoint
from repro.observe.stats import percentile
from repro.serve.admission import ShedEvent


class LatencyRecord:
    """One served request's end-to-end view: arrival to completion."""

    arrival_ms: float
    complete_ms: float
    deadline_ms: float | None

    @property
    def total_ms(self) -> float:
        return self.complete_ms - self.arrival_ms

    @property
    def deadline_violated(self) -> bool:
        return self.deadline_ms is not None and self.complete_ms > self.deadline_ms


R = TypeVar("R", bound=LatencyRecord)


@dataclass
class SloMetrics(Generic[R]):
    """The SLO block of one serving run: counts, latency tail, throughput.

    Percentiles are nearest-rank over every served request's
    :attr:`LatencyRecord.total_ms`; throughput is served requests per
    second of makespan.
    """

    records: list[R] = field(default_factory=list)
    shed: list[ShedEvent] = field(default_factory=list)
    makespan_ms: float = 0.0

    @property
    def served(self) -> int:
        return len(self.records)

    @property
    def submitted(self) -> int:
        return len(self.records) + len(self.shed)

    def latencies_ms(self) -> list[float]:
        return [r.total_ms for r in self.records]

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms(), 50.0)

    @property
    def p95_ms(self) -> float:
        return percentile(self.latencies_ms(), 95.0)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms(), 99.0)

    @property
    def mean_ms(self) -> float:
        lat = self.latencies_ms()
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def throughput_rps(self) -> float:
        """Served requests per second over the run's makespan."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.served / self.makespan_ms * 1e3

    @property
    def deadline_violations(self) -> int:
        return sum(1 for r in self.records if r.deadline_violated)

    def shed_count(self, reason: str | None = None) -> int:
        if reason is None:
            return len(self.shed)
        return sum(1 for e in self.shed if e.reason == reason)

    def as_dict(self) -> dict:
        return {
            "served": self.served,
            "shed": self.shed_count(),
            "shed_by_reason": {
                reason: self.shed_count(reason)
                for reason in sorted({e.reason for e in self.shed})
            },
            "submitted": self.submitted,
            "makespan_ms": self.makespan_ms,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
                "mean": self.mean_ms,
            },
            "deadline_violations": self.deadline_violations,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render_slo(self) -> str:
        """The summary line's shared head: counts, makespan, rate, tail."""
        return (
            f"served {self.served}/{self.submitted} "
            f"(shed {self.shed_count()}), makespan {self.makespan_ms:.3f} ms, "
            f"{self.throughput_rps:.1f} req/s, latency p50 {self.p50_ms:.3f} / "
            f"p95 {self.p95_ms:.3f} / p99 {self.p99_ms:.3f} ms"
        )


@dataclass
class RequestRecord(LatencyRecord):
    """One served request's life cycle, all timestamps in engine ms.

    ``arrival_ms <= formed_ms <= admit_ms <= start_ms <= complete_ms``;
    the gap between ``formed_ms`` and ``admit_ms`` is the modelled
    planning latency (zero on a plan-cache hit).
    """

    req_id: int
    label: str
    n: int
    arrival_ms: float
    formed_ms: float
    admit_ms: float
    start_ms: float
    complete_ms: float
    batch_id: int
    group: int
    deadline_ms: float | None = None
    #: number of fault-recovery re-executions this request needed
    retries: int = 0
    #: functional serving only: the bit-exact MSM result point
    result: AffinePoint | None = None

    @property
    def queue_ms(self) -> float:
        """Waiting-room time: arrival until the batch closed around it."""
        return self.formed_ms - self.arrival_ms

    @property
    def batch_form_ms(self) -> float:
        """Batch formation + planning time (plan-cache misses pay here)."""
        return self.admit_ms - self.formed_ms

    @property
    def execute_ms(self) -> float:
        """Engine time: admission until the host reduce delivered."""
        return self.complete_ms - self.admit_ms

    def as_dict(self) -> dict:
        return {
            "req_id": self.req_id,
            "label": self.label,
            "n": self.n,
            "arrival_ms": self.arrival_ms,
            "queue_ms": self.queue_ms,
            "batch_form_ms": self.batch_form_ms,
            "execute_ms": self.execute_ms,
            "total_ms": self.total_ms,
            "batch_id": self.batch_id,
            "group": self.group,
            "retries": self.retries,
            "deadline_violated": self.deadline_violated,
        }


@dataclass
class ServeMetrics(SloMetrics[RequestRecord]):
    """The aggregate SLO report of one serving run."""

    #: busy fraction per engine resource name over the makespan
    utilization: dict = field(default_factory=dict)
    #: plan/precompute cache snapshot (repro.serve.plancache.cache_report)
    caches: dict = field(default_factory=dict)

    @property
    def retried_requests(self) -> int:
        return sum(1 for r in self.records if r.retries > 0)

    def gpu_utilization(self) -> float:
        """Mean busy fraction over the GPU compute resources."""
        gpu = [v for name, v in self.utilization.items() if name.startswith("gpu")]
        return sum(gpu) / len(gpu) if gpu else 0.0

    def mean_breakdown_ms(self) -> dict:
        """Average queue / batch-form / execute split over served requests."""
        if not self.records:
            return {"queue_ms": 0.0, "batch_form_ms": 0.0, "execute_ms": 0.0}
        k = len(self.records)
        return {
            "queue_ms": sum(r.queue_ms for r in self.records) / k,
            "batch_form_ms": sum(r.batch_form_ms for r in self.records) / k,
            "execute_ms": sum(r.execute_ms for r in self.records) / k,
        }

    def as_dict(self) -> dict:
        return {
            **super().as_dict(),
            "breakdown_ms": self.mean_breakdown_ms(),
            "retried_requests": self.retried_requests,
            "gpu_utilization": self.gpu_utilization(),
            "caches": self.caches,
            "requests": [r.as_dict() for r in self.records],
        }

    def render(self) -> str:
        """One-paragraph human summary (benchmark table row material)."""
        return (
            f"{self.render_slo()}, "
            f"gpu util {self.gpu_utilization():.0%}, "
            f"{self.deadline_violations} deadline violations"
        )
