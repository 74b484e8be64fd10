"""Recorders: turn engine timelines and serving runs into trace spans.

The engine's :class:`~repro.engine.timeline.Timeline` already carries
exact per-task intervals, attempts, and failures, so tracing a simulated
run is a *transcription*, not instrumentation: :func:`record_timeline`
copies every scheduled span onto the tracer (one span per executed task,
on the track named after its resource), failed-but-retried attempts onto
``retry`` spans, and terminal failures onto ``fault`` instants.  The
producers (engine/DistMSM/serve) call it once, after the event loop —
which is what keeps the hot scheduling path allocation-free when tracing
is off.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.engine.timeline import Timeline
from repro.observe.tracer import Tracer

__all__ = ["phase_category", "record_timeline"]

#: ordered (keyword, category) rules; first match wins, so the more
#: specific phases come before the generic ``reduce``
_PHASE_RULES: tuple[tuple[str, str], ...] = (
    ("scatter", "scatter"),
    ("bucket-sum", "bucket-sum"),
    (":sum", "bucket-sum"),
    ("transfer", "transfer"),
    ("xfer", "transfer"),
    ("commit", "commit"),
    (":verify", "verify"),
    ("window-reduce", "window-reduce"),
    ("bucket-reduce", "bucket-reduce"),
    ("host-reduce", "reduce"),
    ("reduce", "reduce"),
    ("launch", "launch"),
    ("sync", "sync"),
    ("gpu", "compute"),
)


def phase_category(task_name: str) -> str:
    """The MSM phase a task name belongs to (``"task"`` when unknown).

    Task names across the stack embed their phase (``msm:r0:scatter:g1``,
    ``req3.a0:xfer``, ``window-reduce:g0``); this keyword classifier is
    what groups them into the flame-style per-phase aggregation.
    """
    for keyword, category in _PHASE_RULES:
        if keyword in task_name:
            return category
    return "task"


def record_timeline(
    tracer: Tracer,
    timeline: Timeline,
    task_args: Mapping[str, Mapping[str, Any]] | None = None,
) -> None:
    """Transcribe a finished timeline onto ``tracer``.

    * every completed task → one span on its resource's track, categorised
      by :func:`phase_category`, annotated with its stage and any extra
      per-task args from ``task_args``;
    * every failed-but-retried attempt → a ``retry`` span named
      ``{task}#a{attempt}`` carrying the attempt number and backoff;
    * every terminal failure → a ``fault`` instant with the reason.
    """
    extras = task_args or {}
    for span in sorted(
        timeline.spans.values(), key=lambda s: (s.start_ms, s.resource.name, s.task)
    ):
        args: dict[str, Any] = {}
        if span.stage:
            args["stage"] = span.stage
        args.update(extras.get(span.task, {}))
        tracer.add_span(
            span.task,
            span.resource.name,
            span.start_ms,
            span.end_ms,
            cat=phase_category(span.task),
            args=args,
        )
    for attempt in sorted(
        timeline.attempts, key=lambda a: (a.start_ms, a.resource.name, a.task, a.attempt)
    ):
        tracer.add_span(
            f"{attempt.task}#a{attempt.attempt}",
            attempt.resource.name,
            attempt.start_ms,
            attempt.end_ms,
            cat="retry",
            args={"attempt": attempt.attempt, "retry_at_ms": attempt.retry_at_ms},
        )
    for failure in sorted(
        timeline.failures, key=lambda f: (f.at_ms, f.resource.name, f.task)
    ):
        tracer.instant(
            failure.task,
            failure.resource.name,
            failure.at_ms,
            cat="fault",
            args={"reason": failure.reason, "attempt": failure.attempt},
        )
