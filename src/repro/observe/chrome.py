"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

Maps a :class:`~repro.observe.tracer.Tracer` onto the trace-event JSON
format: one process for the whole run, one thread (tid) per track, "X"
complete events for spans, "i" instants, and ``thread_name`` metadata
events so the viewer labels each lane.  Timestamps are exported
in microseconds (the format's unit); the simulation's milliseconds are
multiplied by 1e3.

The export is **byte-stable**: tid assignment follows sorted track names,
events are emitted in a fully deterministic order, and the JSON is dumped
with sorted keys — the golden-trace regression tests diff the bytes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.observe.tracer import Tracer

__all__ = ["to_chrome_trace", "to_chrome_json"]

#: single simulated process id used for every event
PID = 1


def _track_tids(tracer: "Tracer") -> dict[str, int]:
    """tid per track, assigned in sorted-name order (deterministic)."""
    return {track: tid for tid, track in enumerate(tracer.tracks, start=1)}


def to_chrome_trace(tracer: "Tracer") -> dict[str, Any]:
    """The trace as a Chrome trace-event ``traceEvents`` dict."""
    tids = _track_tids(tracer)
    events: list[dict[str, Any]] = []

    for track, tid in tids.items():
        events.append({
            "args": {"name": track},
            "name": "thread_name",
            "ph": "M",
            "pid": PID,
            "tid": tid,
        })

    for span in sorted(
        tracer.spans, key=lambda s: (s.start_ms, tids[s.track], s.end_ms, s.name)
    ):
        event: dict[str, Any] = {
            "cat": span.cat or "span",
            "dur": span.duration_ms * 1e3,
            "name": span.name,
            "ph": "X",
            "pid": PID,
            "tid": tids[span.track],
            "ts": span.start_ms * 1e3,
        }
        if span.args:
            event["args"] = {k: span.args[k] for k in sorted(span.args)}
        events.append(event)

    for inst in sorted(
        tracer.instants, key=lambda e: (e.at_ms, tids[e.track], e.name)
    ):
        event = {
            "cat": inst.cat or "instant",
            "name": inst.name,
            "ph": "i",
            "pid": PID,
            "s": "t",
            "tid": tids[inst.track],
            "ts": inst.at_ms * 1e3,
        }
        if inst.args:
            event["args"] = {k: inst.args[k] for k in sorted(inst.args)}
        events.append(event)

    trace: dict[str, Any] = {
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }
    if tracer.meta or tracer.label:
        trace["metadata"] = {
            "label": tracer.label,
            **{k: tracer.meta[k] for k in sorted(tracer.meta)},
        }
    return trace


def to_chrome_json(tracer: "Tracer", indent: int | None = None) -> str:
    """The trace as byte-stable Chrome trace-event JSON."""
    return json.dumps(to_chrome_trace(tracer), indent=indent, sort_keys=True)
