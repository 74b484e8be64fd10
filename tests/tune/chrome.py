"""Rebuild a Tracer from a Chrome trace-event export: reads the committed
observe goldens back in, so the bottleneck oracle can run over them."""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.observe.tracer import Tracer


def tracer_from_chrome(doc: Mapping[str, Any] | str) -> Tracer:
    """Rebuild a :class:`Tracer` from a Chrome trace-event export.

    The inverse of :func:`repro.observe.chrome.to_chrome_trace` for the
    event kinds the exporter emits (``M`` thread names, ``X`` complete
    spans, ``i`` instants; timestamps are microseconds).
    This is what lets the oracle run over the *committed* golden traces:
    classification drift then shows up as a golden-report diff.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    meta = dict(doc.get("metadata", {}))
    trace = Tracer(str(meta.pop("label", "chrome")))
    trace.meta.update(meta)
    tracks: dict[int, str] = {}
    for event in doc.get("traceEvents", ()):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            tracks[event["tid"]] = event["args"]["name"]
    for event in doc.get("traceEvents", ()):
        ph = event.get("ph")
        if ph == "X":
            start = event["ts"] / 1000.0
            trace.add_span(
                event["name"],
                tracks.get(event["tid"], f"tid{event.get('tid', 0)}"),
                start,
                start + event.get("dur", 0.0) / 1000.0,
                cat=event.get("cat", ""),
                args=event.get("args"),
            )
        elif ph == "i":
            trace.instant(
                event["name"],
                tracks.get(event["tid"], f"tid{event.get('tid', 0)}"),
                event["ts"] / 1000.0,
                cat=event.get("cat", ""),
                args=event.get("args"),
            )
    return trace
