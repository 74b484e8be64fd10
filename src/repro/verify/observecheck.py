"""Independent audit of traces (:class:`repro.observe.tracer.Tracer`).

The recorders in :mod:`repro.observe.record` *produce* traces; this
checker re-derives nothing from them — it takes the finished trace (and,
for the cross-check, the engine timeline it claims to transcribe) and
replays the invariants every honest trace must satisfy:

* every span is well-formed (finite, non-negative duration, not before
  t=0) and every ``begin`` was matched by an ``end``;
* on any one track, two spans are either disjoint or properly nested —
  a partial overlap means the span stack was corrupted;
* against a timeline: every executed task has exactly one span (on the
  track named after its resource, over exactly its scheduled interval),
  every failed-but-retried attempt has its ``#a{k}`` span, and nothing
  else occupies the resource tracks;
* per-resource span wall-times sum to the timeline's busy time, and the
  trace makespan equals the timeline makespan, both within ``eps``;
* for phase-serial (legacy barrier) schedules, the stage envelopes tile
  ``[0, makespan]`` — their durations *sum* to the reported makespan
  within 1e-9, the acceptance criterion of the observability layer.

Violations carry ``rule="observe"``; ``op`` names the offending span or
task, ``address`` the track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.timeline import TIME_EPS, Timeline
from repro.observe.tracer import Tracer
from repro.verify.invariants import conservation
from repro.verify.report import CheckResult


@dataclass
class ObserveCheckResult(CheckResult):
    """Outcome of auditing one trace."""

    checker = "observe"
    spans: int = 0
    tracks: int = 0


def verify_trace(
    trace: Tracer,
    subject: str = "trace",
    eps: float = TIME_EPS,
) -> ObserveCheckResult:
    """Audit one trace's internal consistency (no timeline needed)."""
    result = ObserveCheckResult(subject, spans=len(trace.spans), tracks=len(trace.tracks))

    for span in trace.spans:
        if not (math.isfinite(span.start_ms) and math.isfinite(span.end_ms)):
            result.add("span has non-finite bounds", op=span.name, address=span.track)
            continue
        if span.start_ms < -eps:
            result.add(
                f"span starts before t=0 (at {span.start_ms})",
                op=span.name, address=span.track,
            )
        if span.end_ms < span.start_ms - eps:
            result.add(
                f"span ends at {span.end_ms} before its start {span.start_ms}",
                op=span.name, address=span.track,
            )

    for track, name in trace.open_spans():
        result.add("span begun but never ended", op=name, address=track)

    # nesting well-formedness: on one track, spans are disjoint or nested
    def nested(outer, inner) -> bool:
        return (
            outer.start_ms <= inner.start_ms + eps
            and outer.end_ms >= inner.end_ms - eps
        )

    for track in trace.tracks:
        spans = trace.spans_on(track)
        for prev, cur in zip(spans, spans[1:]):
            overlap = cur.start_ms < prev.end_ms - eps
            if overlap and not (nested(prev, cur) or nested(cur, prev)):
                result.add(
                    f"spans {prev.name!r} and {cur.name!r} partially overlap "
                    f"([{prev.start_ms}, {prev.end_ms}) vs "
                    f"[{cur.start_ms}, {cur.end_ms}))",
                    op=cur.name,
                    address=f"track:{track}",
                )
    return result


def verify_trace_against_timeline(
    trace: Tracer,
    timeline: Timeline,
    subject: str = "trace vs timeline",
    eps: float = TIME_EPS,
    phase_serial: bool = False,
) -> ObserveCheckResult:
    """Cross-examine a trace against the timeline it claims to transcribe.

    ``phase_serial=True`` additionally asserts the barrier-stage tiling:
    stage envelopes are contiguous from 0 and their durations sum to the
    timeline makespan (the legacy phase-serial schedule's defining
    property).
    """
    result = verify_trace(trace, subject, eps)
    resource_tracks = {span.resource.name for span in timeline.spans.values()}
    retried = {f"{a.task}#a{a.attempt}" for a in timeline.attempts}

    # 1. conservation: exactly one span per executed task on the resource
    #    tracks (retried attempts' spans aside), on its track, same interval
    by_name: dict[str, list] = {}
    for span in trace.spans:
        if span.track in resource_tracks and span.name not in retried:
            by_name.setdefault(span.name, []).append(span)
    conservation(
        result,
        timeline.spans,
        [(name, f"traced on {span.track}") for name, spans in by_name.items() for span in spans],
        noun=lambda name: f"task {name!r}",
        lost="executed but has no trace span",
        op=str,
    )
    for name, tspan in timeline.spans.items():
        if name not in by_name:
            continue
        span = by_name[name][0]
        if span.track != tspan.resource.name:
            result.add(
                f"span on track {span.track!r}, task ran on "
                f"{tspan.resource.name!r}",
                op=name, address=span.track,
            )
        if abs(span.start_ms - tspan.start_ms) > eps or abs(span.end_ms - tspan.end_ms) > eps:
            result.add(
                f"span interval [{span.start_ms}, {span.end_ms}) != scheduled "
                f"[{tspan.start_ms}, {tspan.end_ms})",
                op=name, address=span.track,
            )

    # 2. per-resource busy-time agreement (retry spans are aborted work,
    # which Timeline.busy_ms excludes — exclude them here too)
    trace_busy: dict[str, float] = {}
    for span in trace.spans:
        if span.track in resource_tracks and span.cat != "retry":
            trace_busy[span.track] = trace_busy.get(span.track, 0.0) + span.duration_ms
    for res, busy in sorted(timeline.busy_ms().items()):
        recorded_busy = trace_busy.get(res, 0.0)
        if abs(recorded_busy - busy) > eps:
            result.add(
                f"trace busy time {recorded_busy} != timeline busy time "
                f"{busy}",
                address=f"resource:{res}",
            )

    # 3. makespan agreement
    if abs(trace.makespan_ms() - timeline.total_ms) > eps:
        result.add(
            f"trace makespan {trace.makespan_ms()} != timeline makespan "
            f"{timeline.total_ms}"
        )

    # 4. phase-serial tiling: stage envelope durations sum to the makespan
    if phase_serial:
        envelopes = sorted(timeline.stage_spans().values())
        if not envelopes:
            result.add("phase-serial audit requested but timeline has no stages")
        else:
            if abs(envelopes[0][0]) > eps:
                result.add(
                    f"first stage starts at {envelopes[0][0]}, not 0"
                )
            for (_, prev_hi), (lo, _) in zip(envelopes, envelopes[1:]):
                if abs(lo - prev_hi) > eps:
                    result.add(
                        f"stage envelopes not contiguous: gap between "
                        f"{prev_hi} and {lo}"
                    )
            total = sum(hi - lo for lo, hi in envelopes)
            if abs(total - timeline.total_ms) > eps:
                result.add(
                    f"stage envelope durations sum to {total} != makespan "
                    f"{timeline.total_ms}"
                )
    return result
