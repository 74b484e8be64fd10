"""Replayable production traces: warm-up / diurnal / burst segments.

A :class:`ClusterTrace` is a versioned, JSON-serialisable description of
an offered workload — an ordered list of :class:`TraceSegment` entries,
each a time window with an arrival process, a size mix, and a per-tenant
probability mix — plus the one seed every random draw derives from.
``generate_requests`` expands it deterministically into the concrete
:class:`~repro.serve.queue.ProofRequest` list (same trace + same seed =
byte-identical workload), and :func:`replay` drives a
:class:`~repro.cluster.router.ProofCluster` with it.

Three segment kinds, built on the existing seeded generators:

* ``warmup`` — steady Poisson arrivals at ``rate_rps``
  (:func:`repro.serve.queue.poisson_trace`);
* ``diurnal`` — the segment is cut into ``slices`` windows whose Poisson
  rate follows a raised cosine between ``rate_rps`` (peak) and
  ``trough_fraction * rate_rps`` (trough), ``periods`` cycles over the
  segment — the compressed day/night curve of a proving service;
* ``burst`` — synchronised request bursts every ``gap_ms``
  (:func:`repro.serve.queue.bursty_trace`), the adversarial case the
  router's shedding and the autoscaler's scale-up react to.

The JSON format is ``repro.cluster.trace/v1``::

    {"format": "repro.cluster.trace/v1", "name": "...", "curve": "BLS12-381",
     "seed": 7, "segments": [{"name": "day", "kind": "diurnal",
     "duration_ms": 400.0, "rate_rps": 300.0, "sizes": [65536],
     "tenant_mix": {"acme": 2.0, "zkmart": 1.0}, "deadline_ms": null, ...}]}

Unknown ``format`` strings are rejected loudly — traces are artifacts
that outlive code versions.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.curves.params import CurveParams, curve_by_name
from repro.serve.queue import ProofRequest, bursty_trace, poisson_trace

if TYPE_CHECKING:
    from repro.cluster.router import ClusterResult, ProofCluster
    from repro.engine.faults import FaultPlan

TRACE_FORMAT = "repro.cluster.trace/v1"
SEGMENT_KINDS = ("warmup", "diurnal", "burst")


@dataclass(frozen=True)
class TraceSegment:
    """One time window of the offered workload."""

    name: str
    kind: str
    duration_ms: float
    #: warmup/diurnal: Poisson rate (diurnal: the *peak* rate)
    rate_rps: float = 100.0
    sizes: tuple[int, ...] = (1 << 16,)
    #: tenant -> mix weight; draws are proportional, weights need not sum to 1
    tenant_mix: tuple[tuple[str, float], ...] = (("default", 1.0),)
    #: relative latency SLO stamped on every request of this segment
    deadline_ms: float | None = None
    # diurnal shape
    trough_fraction: float = 0.25
    periods: float = 1.0
    slices: int = 8
    # burst shape
    burst_size: int = 8
    gap_ms: float = 50.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(
                f"segment {self.name!r}: unknown kind {self.kind!r}; "
                f"choose from {SEGMENT_KINDS}"
            )
        floats = [
            ("duration_ms", self.duration_ms),
            ("rate_rps", self.rate_rps),
            ("trough_fraction", self.trough_fraction),
            ("periods", self.periods),
            ("gap_ms", self.gap_ms),
            ("jitter_ms", self.jitter_ms),
            *((f"tenant_mix[{t!r}]", w) for t, w in self.tenant_mix),
        ]
        if self.deadline_ms is not None:
            floats.append(("deadline_ms", self.deadline_ms))
        for key, value in floats:
            if not math.isfinite(value):
                raise ValueError(
                    f"segment {self.name!r}: {key} must be finite, got {value}"
                )
        if self.duration_ms <= 0:
            raise ValueError(
                f"segment {self.name!r}: duration_ms must be > 0, "
                f"got {self.duration_ms}"
            )
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(
                f"segment {self.name!r}: deadline_ms must be > 0, "
                f"got {self.deadline_ms}"
            )
        if self.rate_rps <= 0:
            raise ValueError(
                f"segment {self.name!r}: rate_rps must be > 0, got {self.rate_rps}"
            )
        if not self.sizes or any(n <= 0 for n in self.sizes):
            raise ValueError(f"segment {self.name!r}: sizes must be positive")
        if not self.tenant_mix or any(w <= 0 for _, w in self.tenant_mix):
            raise ValueError(
                f"segment {self.name!r}: tenant_mix weights must be positive"
            )
        if not 0.0 < self.trough_fraction <= 1.0:
            raise ValueError(
                f"segment {self.name!r}: trough_fraction must be in (0, 1], "
                f"got {self.trough_fraction}"
            )
        if self.periods <= 0 or self.slices < 1:
            raise ValueError(
                f"segment {self.name!r}: periods must be > 0 and slices >= 1"
            )
        if self.burst_size < 1 or self.gap_ms <= 0 or self.jitter_ms < 0:
            raise ValueError(
                f"segment {self.name!r}: burst_size >= 1, gap_ms > 0, "
                f"jitter_ms >= 0 required"
            )

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "duration_ms": self.duration_ms,
            "rate_rps": self.rate_rps,
            "sizes": list(self.sizes),
            "tenant_mix": {t: w for t, w in self.tenant_mix},
            "deadline_ms": self.deadline_ms,
            "trough_fraction": self.trough_fraction,
            "periods": self.periods,
            "slices": self.slices,
            "burst_size": self.burst_size,
            "gap_ms": self.gap_ms,
            "jitter_ms": self.jitter_ms,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TraceSegment":
        mix = raw.get("tenant_mix", {"default": 1.0})
        return cls(
            name=raw["name"],
            kind=raw["kind"],
            duration_ms=float(raw["duration_ms"]),
            rate_rps=float(raw.get("rate_rps", 100.0)),
            sizes=tuple(int(n) for n in raw.get("sizes", [1 << 16])),
            tenant_mix=tuple(sorted((str(t), float(w)) for t, w in mix.items())),
            deadline_ms=(
                None if raw.get("deadline_ms") is None else float(raw["deadline_ms"])
            ),
            trough_fraction=float(raw.get("trough_fraction", 0.25)),
            periods=float(raw.get("periods", 1.0)),
            slices=int(raw.get("slices", 8)),
            burst_size=int(raw.get("burst_size", 8)),
            gap_ms=float(raw.get("gap_ms", 50.0)),
            jitter_ms=float(raw.get("jitter_ms", 0.0)),
        )


@dataclass(frozen=True)
class ClusterTrace:
    """A whole replayable workload: named, seeded, versioned."""

    name: str
    curve: str
    seed: int
    segments: tuple[TraceSegment, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError(f"trace {self.name!r} has no segments")
        curve_by_name(self.curve)  # raises on unknown curves

    @property
    def duration_ms(self) -> float:
        return sum(s.duration_ms for s in self.segments)

    # -- JSON round trip -----------------------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "format": TRACE_FORMAT,
            "name": self.name,
            "curve": self.curve,
            "seed": self.seed,
            "segments": [s.as_dict() for s in self.segments],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterTrace":
        raw = json.loads(text)
        fmt = raw.get("format")
        if fmt != TRACE_FORMAT:
            raise ValueError(
                f"unsupported trace format {fmt!r} (expected {TRACE_FORMAT!r})"
            )
        return cls(
            name=raw["name"],
            curve=raw["curve"],
            seed=int(raw["seed"]),
            segments=tuple(TraceSegment.from_dict(s) for s in raw["segments"]),
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ClusterTrace":
        return cls.from_json(pathlib.Path(path).read_text())


# -- deterministic expansion ------------------------------------------------


def _segment_subseed(seed: int, segment_index: int, slice_index: int = 0) -> int:
    """A stable per-(segment, slice) seed derived from the trace seed."""
    return (seed * 1_000_003 + segment_index * 8_191 + slice_index * 131) % (2**31)


def _raw_arrivals(
    segment: TraceSegment, curve: CurveParams, seed: int, segment_index: int
) -> list[ProofRequest]:
    """Segment-relative arrivals in ``[0, duration_ms)``, before retagging."""
    out: list[ProofRequest] = []
    if segment.kind in ("warmup", "diurnal"):
        if segment.kind == "warmup":
            windows = [(0.0, segment.duration_ms, segment.rate_rps)]
        else:
            width = segment.duration_ms / segment.slices
            windows = []
            for i in range(segment.slices):
                # raised cosine between the peak rate and the trough rate,
                # sampled at each slice's midpoint
                phase = 2.0 * math.pi * segment.periods * (i + 0.5) / segment.slices
                shape = 0.5 + 0.5 * math.cos(phase)
                rate = segment.rate_rps * (
                    segment.trough_fraction + (1.0 - segment.trough_fraction) * shape
                )
                windows.append((i * width, width, rate))
        for slice_index, (start, width, rate) in enumerate(windows):
            # oversample the open-ended Poisson generator, keep the window
            cap = max(4, int(rate * width / 1e3 * 3.0) + 8)
            draws = poisson_trace(
                curve,
                count=cap,
                rate_rps=rate,
                seed=_segment_subseed(seed, segment_index, slice_index),
                sizes=segment.sizes,
            )
            kept = [r for r in draws if r.arrival_ms < width]
            if len(kept) == len(draws):  # pragma: no cover - cap is generous
                raise ValueError(
                    f"segment {segment.name!r}: oversampling cap {cap} too "
                    f"small for rate {rate:.1f} rps over {width:.1f} ms"
                )
            out.extend(
                replace(r, arrival_ms=start + r.arrival_ms) for r in kept
            )
    else:  # burst
        bursts = max(1, int(segment.duration_ms // segment.gap_ms))
        draws = bursty_trace(
            curve,
            bursts=bursts,
            burst_size=segment.burst_size,
            gap_ms=segment.gap_ms,
            seed=_segment_subseed(seed, segment_index),
            sizes=segment.sizes,
            jitter_ms=segment.jitter_ms,
        )
        out.extend(r for r in draws if r.arrival_ms < segment.duration_ms)
    return out


def generate_requests(trace: ClusterTrace) -> list[ProofRequest]:
    """Expand a trace into its concrete, deterministic request list.

    Requests are globally re-identified in arrival order, stamped with
    their segment's relative deadline, and assigned tenants by seeded
    draws from each segment's mix.
    """
    curve = curve_by_name(trace.curve)
    tenant_rng = random.Random(trace.seed ^ 0x7E9A97)
    staged: list[tuple[float, int, int, ProofRequest, TraceSegment]] = []
    offset = 0.0
    for segment_index, segment in enumerate(trace.segments):
        raw = _raw_arrivals(segment, curve, trace.seed, segment_index)
        for order, request in enumerate(
            sorted(raw, key=lambda r: (r.arrival_ms, r.req_id))
        ):
            at = offset + request.arrival_ms
            staged.append((at, segment_index, order, request, segment))
        offset += segment.duration_ms

    staged.sort(key=lambda item: (item[0], item[1], item[2]))
    out: list[ProofRequest] = []
    for req_id, (at, segment_index, _, request, segment) in enumerate(staged):
        names = [t for t, _ in segment.tenant_mix]
        weights = [w for _, w in segment.tenant_mix]
        tenant = tenant_rng.choices(names, weights=weights, k=1)[0]
        out.append(
            ProofRequest(
                req_id=req_id,
                curve=request.curve,
                n=request.n,
                arrival_ms=at,
                deadline_ms=(
                    None
                    if segment.deadline_ms is None
                    else at + segment.deadline_ms
                ),
                label=f"{segment.name}.{req_id}",
                tenant=tenant,
            )
        )
    return out


def replay(
    cluster: "ProofCluster",
    trace: ClusterTrace,
    faults: "FaultPlan | None" = None,
) -> "ClusterResult":
    """Replay a trace on a cluster: expand deterministically, then serve."""
    return cluster.serve(generate_requests(trace), faults=faults)


def diurnal_burst_trace(
    name: str = "diurnal-burst",
    seed: int = 7,
    rate_rps: float = 250.0,
    tenant_mix: tuple[tuple[str, float], ...] = (("acme", 2.0), ("zkmart", 1.0)),
    deadline_ms: float | None = None,
    scale: float = 1.0,
) -> ClusterTrace:
    """The canonical study workload: warm-up, a diurnal day, a burst storm.

    Every request is a BLS12-381 MSM of 2^16 points.  ``scale`` stretches
    segment durations (and burst counts with them) so smoke runs and full
    runs share one shape.
    """
    sizes = (1 << 16,)
    return ClusterTrace(
        name=name,
        curve="BLS12-381",
        seed=seed,
        segments=(
            TraceSegment(
                name="warmup",
                kind="warmup",
                duration_ms=40.0 * scale,
                rate_rps=rate_rps * 0.5,
                sizes=sizes,
                tenant_mix=tenant_mix,
                deadline_ms=deadline_ms,
            ),
            TraceSegment(
                name="day",
                kind="diurnal",
                duration_ms=160.0 * scale,
                rate_rps=rate_rps,
                sizes=sizes,
                tenant_mix=tenant_mix,
                deadline_ms=deadline_ms,
                trough_fraction=0.3,
                periods=1.0,
                slices=8,
            ),
            TraceSegment(
                name="storm",
                kind="burst",
                duration_ms=60.0 * scale,
                rate_rps=rate_rps,
                sizes=sizes,
                tenant_mix=tenant_mix,
                deadline_ms=deadline_ms,
                burst_size=6,
                gap_ms=15.0 * scale,
                jitter_ms=1.0,
            ),
        ),
    )
