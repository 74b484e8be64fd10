"""Independent audit of engine schedules (:class:`repro.engine.timeline.Timeline`).

The event-loop in :mod:`repro.engine.timeline` *constructs* schedules; this
checker re-derives nothing from it — it takes the finished artifact (tasks
with their dependency edges, plus the claimed spans and makespan) and
replays the invariants every valid schedule must satisfy:

* every task got exactly one span, with the task's duration;
* no task starts before every dependency has ended;
* no resource runs two tasks at once (they are serial units);
* the claimed makespan equals the latest span end.

Fault-aware: pass the :class:`~repro.engine.faults.FaultPlan` the timeline
was simulated under and the checker scales expected durations by straggler
slowdowns, exempts failed tasks from the coverage rule (their absence is
the point), counts retry attempts as resource occupancy, and includes
failures/attempts in the makespan claim.  The fault-*specific* rules (no
post-mortem scheduling, backoff spacing) live in
:mod:`repro.verify.faultcheck`.

Coverage, causality and the makespan floor are the shared invariants of
:mod:`repro.verify.invariants`; violations carry ``rule="timeline"`` and
``op`` names the offending task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.faults import FaultPlan
from repro.engine.timeline import TIME_EPS, Timeline
from repro.verify.invariants import Gate, causality, conservation, makespan_floor, occupancy
from repro.verify.report import CheckResult


@dataclass
class TimelineCheckResult(CheckResult):
    """Outcome of auditing one schedule."""

    checker = "timeline"
    tasks: int = 0
    resources: int = 0


def verify_timeline(
    timeline: Timeline,
    subject: str = "timeline",
    faults: FaultPlan | None = None,
) -> TimelineCheckResult:
    """Audit one scheduled timeline against the schedule invariants."""
    spans = timeline.spans
    resources = {span.resource.name for span in spans.values()}
    result = TimelineCheckResult(subject, tasks=len(timeline.tasks), resources=len(resources))
    slowdowns = faults.slowdowns() if faults is not None else {}

    # 1. conservation: every task completed or failed, exactly once
    conservation(
        result,
        (task.name for task in timeline.tasks),
        [(name, "completed") for name in spans]
        + [(f.task, "failed") for f in timeline.failures],
        noun=lambda name: f"task {name!r}",
        lost="has no span (never scheduled)",
        op=str,
    )

    # 2. durations; causality: nothing starts before t=0 or a dependency's end
    gates = []
    for task in timeline.tasks:
        span = spans.get(task.name)
        if span is None:
            continue
        expected = task.duration_ms * slowdowns.get(span.resource.name, 1.0)
        if abs(span.duration_ms - expected) > TIME_EPS:
            result.add(
                f"span duration {span.duration_ms} != task duration {expected}",
                op=task.name,
            )
        gates.append(Gate("starts", span.start_ms, "t=0", 0.0, task.name))
        for dep in task.deps:
            dep_end = spans[dep].end_ms if dep in spans else math.inf
            gates.append(
                Gate("starts", span.start_ms, f"dependency {dep!r} ends", dep_end, task.name)
            )
    causality(result, gates, TIME_EPS)

    # 3. resource exclusivity (serial units); retry attempts occupy too
    by_device: dict[str, list] = {}
    for use in occupancy(timeline):
        by_device.setdefault(use.device, []).append(use)
    for device, uses in sorted(by_device.items()):
        uses.sort(key=lambda u: (u.start_ms, u.end_ms, u.what))
        for prev, cur in zip(uses, uses[1:]):
            if cur.start_ms < prev.end_ms - TIME_EPS:
                result.add(
                    f"tasks {prev.what!r} and {cur.what!r} overlap "
                    f"([{prev.start_ms}, {prev.end_ms}) vs "
                    f"[{cur.start_ms}, {cur.end_ms}))",
                    op=cur.what,
                    address=device,
                )

    # 4. makespan claim (aborted work and retries count)
    floor = makespan_floor(timeline)
    if abs(timeline.total_ms - floor) > TIME_EPS:
        result.add(f"claimed makespan {timeline.total_ms} != latest span end {floor}")
    return result
