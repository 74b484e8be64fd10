"""Bottleneck oracle: fold trace spans per phase into a roofline verdict.

ZKProphet's observation (PAPERS.md) is that GPU ZKP performance is
governed by a handful of *bottleneck dimensions* — a kernel is
atomics-bound, memory-bound, or sync-bound, and the profitable knob
depends on which.  The in-framework equivalent works over the
observability layer: every simulated run already produces a
:class:`~repro.observe.tracer.Tracer` whose spans carry the §3.2 phase
taxonomy (:func:`repro.observe.record.phase_category`), so the oracle is
a *fold*, not an instrumentation pass.

:func:`analyze_trace` groups spans by phase category and reduces each
group to a :class:`PhaseProfile`:

* ``busy_ms`` — summed span wall-time of the phase;
* ``envelope_ms`` — the phase's extent (last end minus first start);
* ``utilization`` — busy time over (makespan x participating tracks),
  the fraction of the run's track-time the phase consumed;
* ``parallel_efficiency`` — busy time over (envelope x tracks): 1.0
  means every participating track was saturated for the phase's whole
  extent, low values mean serialization or straggling inside the phase;
* ``bound`` — the bottleneck class, from the phase's semantics refined
  by the measured shape (:func:`classify_phase`).

The classification rules are deterministic and documented:

1. every phase starts from its semantic default — ``scatter`` is
   atomics-bound (Alg. 3 exists because bucket scatter hammers atomics),
   ``transfer`` and the EC-arithmetic phases are memory-bound (point
   limbs dominate traffic; ZKProphet's headline), ``launch``/``sync``/
   ``retry`` are sync-bound;
2. a multi-track phase whose ``parallel_efficiency`` drops below
   :data:`SYNC_EFFICIENCY_FLOOR` is re-classified **sync**-bound — its
   tracks spent most of the phase extent waiting on each other, so the
   binding resource is coordination, not the default;
3. with measured :class:`~repro.gpu.counters.EventCounters` attached
   (functional runs), a scatter whose atomics are almost entirely
   *shared*-memory atomics (fraction above
   :data:`SHARED_ATOMICS_MEMORY_FRACTION`) is re-classified
   **memory**-bound — the hierarchical scatter has already demoted the
   global-atomic bottleneck, leaving bandwidth as the binding term.

Reports are reconciled against the :mod:`repro.verify.observecheck`
invariants: the trace must pass :func:`~repro.verify.observecheck.verify_trace`
(and, when the producing timeline is supplied,
:func:`~repro.verify.observecheck.verify_trace_against_timeline`) before
its numbers are trusted; the audit outcome is part of the report.  The
JSON export is byte-deterministic (sorted keys, fixed rounding, spans
folded in sorted order) so oracle drift is caught by golden-report tests
the same way Chrome-trace drift already is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.engine.timeline import Timeline
from repro.observe.tracer import Tracer
from repro.verify.observecheck import verify_trace, verify_trace_against_timeline

if TYPE_CHECKING:
    from repro.core.distmsm import DistMsmResult
    from repro.gpu.counters import EventCounters

__all__ = [
    "BOUND_ATOMICS",
    "BOUND_MEMORY",
    "BOUND_SYNC",
    "PhaseProfile",
    "BottleneckReport",
    "analyze_trace",
    "analyze_result",
    "classify_phase",
]

BOUND_ATOMICS = "atomics"
BOUND_MEMORY = "memory"
BOUND_SYNC = "sync"

#: below this busy/(envelope x tracks) fraction, a multi-track phase is
#: re-classified sync-bound: its tracks mostly waited on each other
SYNC_EFFICIENCY_FLOOR = 0.5

#: above this shared/(shared+global) atomics fraction, a measured scatter
#: is re-classified memory-bound (the global-atomic bottleneck is gone)
SHARED_ATOMICS_MEMORY_FRACTION = 0.9

#: semantic default per phase category (first column of the roofline)
_DEFAULT_BOUND: dict[str, str] = {
    "scatter": BOUND_ATOMICS,
    "bucket-sum": BOUND_MEMORY,
    "bucket-reduce": BOUND_MEMORY,
    "window-reduce": BOUND_MEMORY,
    "reduce": BOUND_MEMORY,
    "transfer": BOUND_MEMORY,
    "compute": BOUND_MEMORY,
    "commit": BOUND_MEMORY,
    "verify": BOUND_MEMORY,
    "task": BOUND_MEMORY,
    "launch": BOUND_SYNC,
    "sync": BOUND_SYNC,
    "retry": BOUND_SYNC,
    "request": BOUND_SYNC,
    "shed": BOUND_SYNC,
}

#: categories that describe request life-cycles rather than resource
#: work; they are profiled but never elected primary bottleneck
_NON_RESOURCE_PHASES = frozenset({"request", "retry", "shed", "uncategorised"})

_ROUND = 9  # fixed rounding of every exported float (byte stability)


def _r(value: float) -> float:
    return round(value, _ROUND)


@dataclass(frozen=True)
class PhaseProfile:
    """One phase's folded span statistics and its bottleneck verdict."""

    phase: str
    bound: str
    busy_ms: float
    envelope_ms: float
    span_count: int
    tracks: tuple[str, ...]
    #: busy / (makespan x tracks): share of the run's track-time consumed
    utilization: float
    #: busy / (envelope x tracks): saturation inside the phase's extent
    parallel_efficiency: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "bound": self.bound,
            "busy_ms": _r(self.busy_ms),
            "envelope_ms": _r(self.envelope_ms),
            "span_count": self.span_count,
            "tracks": list(self.tracks),
            "utilization": _r(self.utilization),
            "parallel_efficiency": _r(self.parallel_efficiency),
        }


@dataclass(frozen=True)
class BottleneckReport:
    """The oracle's verdict on one traced run.

    ``phases`` are sorted by descending busy time (name-tie-broken);
    ``primary`` names the busiest *resource* phase — the dimension an
    auto-tuner should attack first.  ``audit_ok`` records whether the
    trace passed the :mod:`repro.verify.observecheck` invariants the
    report's numbers rest on.
    """

    subject: str
    makespan_ms: float
    phases: tuple[PhaseProfile, ...]
    track_utilization: tuple[tuple[str, float], ...]
    primary: str
    primary_bound: str
    audit_ok: bool
    audit_violations: int

    def bound_ms(self) -> dict[str, float]:
        """Busy milliseconds per bottleneck class (resource phases only)."""
        totals: dict[str, float] = {}
        for profile in self.phases:
            if profile.phase in _NON_RESOURCE_PHASES:
                continue
            totals[profile.bound] = totals.get(profile.bound, 0.0) + profile.busy_ms
        return {k: _r(v) for k, v in sorted(totals.items())}

    def as_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "makespan_ms": _r(self.makespan_ms),
            "primary": self.primary,
            "primary_bound": self.primary_bound,
            "audit_ok": self.audit_ok,
            "audit_violations": self.audit_violations,
            "bound_ms": self.bound_ms(),
            "phases": [p.as_dict() for p in self.phases],
            "track_utilization": {
                track: _r(frac) for track, frac in self.track_utilization
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """One human-readable block (CLI / benchmark table material)."""
        lines = [
            f"bottleneck report for {self.subject!r}: makespan "
            f"{self.makespan_ms:.3f} ms, primary {self.primary} "
            f"({self.primary_bound}-bound), audit "
            f"{'ok' if self.audit_ok else f'{self.audit_violations} violation(s)'}"
        ]
        for p in self.phases:
            lines.append(
                f"  {p.phase:<14s} {p.bound:<8s} busy {p.busy_ms:10.3f} ms  "
                f"util {p.utilization:6.1%}  par-eff {p.parallel_efficiency:6.1%}  "
                f"({p.span_count} spans on {len(p.tracks)} tracks)"
            )
        return "\n".join(lines)


def classify_phase(
    phase: str,
    tracks: int,
    parallel_efficiency: float,
    counters: "EventCounters | None" = None,
) -> str:
    """The bottleneck class of one phase (rules in the module docstring)."""
    bound = _DEFAULT_BOUND.get(phase, BOUND_MEMORY)
    if phase in _NON_RESOURCE_PHASES:
        return bound
    if (
        phase == "scatter"
        and counters is not None
        and (counters.shared_atomics + counters.global_atomics) > 0
    ):
        shared_fraction = counters.shared_atomics / (
            counters.shared_atomics + counters.global_atomics
        )
        if shared_fraction > SHARED_ATOMICS_MEMORY_FRACTION:
            bound = BOUND_MEMORY
    if tracks >= 2 and parallel_efficiency < SYNC_EFFICIENCY_FLOOR:
        bound = BOUND_SYNC
    return bound


def analyze_trace(
    trace: Tracer,
    subject: str = "trace",
    timeline: Timeline | None = None,
    counters: "EventCounters | None" = None,
    strict: bool = False,
) -> BottleneckReport:
    """Fold one trace into a :class:`BottleneckReport`.

    ``timeline`` (when available) arms the full observecheck
    cross-examination — busy-time and makespan reconciliation against the
    engine schedule; without it only the trace-internal invariants run.
    ``counters`` refines the scatter classification on functional runs.
    ``strict=True`` raises instead of recording a failed audit.
    """
    audit = verify_trace(trace, subject=f"{subject} (oracle audit)")
    violations = len(audit.violations)
    if timeline is not None:
        cross = verify_trace_against_timeline(
            trace, timeline, subject=f"{subject} (oracle cross-audit)"
        )
        violations = max(violations, len(cross.violations))
    if strict and violations:
        raise ValueError(
            f"oracle refuses an unauditable trace for {subject!r}: "
            f"{violations} observecheck violation(s)"
        )

    makespan = trace.makespan_ms()
    by_phase: dict[str, list] = {}
    for span in sorted(
        trace.spans, key=lambda s: (s.start_ms, s.end_ms, s.track, s.name)
    ):
        by_phase.setdefault(span.cat or "uncategorised", []).append(span)

    profiles: list[PhaseProfile] = []
    for phase in sorted(by_phase):
        spans = by_phase[phase]
        busy = sum(s.duration_ms for s in spans)
        lo = min(s.start_ms for s in spans)
        hi = max(s.end_ms for s in spans)
        envelope = hi - lo
        tracks = tuple(sorted({s.track for s in spans}))
        track_time = makespan * len(tracks)
        phase_track_time = envelope * len(tracks)
        utilization = busy / track_time if track_time > 0 else 0.0
        efficiency = busy / phase_track_time if phase_track_time > 0 else 1.0
        profiles.append(
            PhaseProfile(
                phase=phase,
                bound=classify_phase(phase, len(tracks), efficiency, counters),
                busy_ms=busy,
                envelope_ms=envelope,
                span_count=len(spans),
                tracks=tracks,
                utilization=min(1.0, utilization),
                parallel_efficiency=min(1.0, efficiency),
            )
        )
    profiles.sort(key=lambda p: (-p.busy_ms, p.phase))

    busy_by_track = trace.busy_ms()
    track_utilization = tuple(
        (track, (busy_by_track[track] / makespan) if makespan > 0 else 0.0)
        for track in sorted(busy_by_track)
    )
    resource = [p for p in profiles if p.phase not in _NON_RESOURCE_PHASES]
    primary = resource[0] if resource else None
    return BottleneckReport(
        subject=subject,
        makespan_ms=makespan,
        phases=tuple(profiles),
        track_utilization=track_utilization,
        primary=primary.phase if primary else "",
        primary_bound=primary.bound if primary else "",
        audit_ok=violations == 0,
        audit_violations=violations,
    )


def analyze_result(
    result: "DistMsmResult",
    subject: str = "msm",
    strict: bool = False,
) -> BottleneckReport:
    """Oracle a finished :class:`~repro.core.distmsm.DistMsmResult`.

    Transcribes the result's timeline onto a fresh tracer (exactly what a
    traced run would have recorded) and analyzes it with the result's
    measured counters — the convenience entry the CLI and tuner use when
    no tracer was attached up front.
    """
    from repro.observe.record import record_timeline

    if result.timeline is None:
        raise ValueError("result carries no timeline to analyze")
    trace = Tracer(subject)
    record_timeline(trace, result.timeline)
    return analyze_trace(
        trace,
        subject=subject,
        timeline=result.timeline,
        counters=result.counters,
        strict=strict,
    )
