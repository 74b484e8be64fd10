"""Structured span/event tracing for the simulated stack.

One :class:`Tracer` collects everything a performance investigation needs
from a simulated run — per-task spans on resource tracks, request
life-cycle spans on per-request lanes, instant events (faults, sheds) —
in *simulated* milliseconds, with explicit timestamps (there is no wall
clock anywhere in the reproduction).

Design rules:

* **Zero overhead when untraced.**  Producers guard every emission with
  ``if trace is not None:``, so an untraced run allocates no span, no
  dict, nothing — asserted by a test.
* **Append-only, deterministic.**  Spans are value objects; export orders
  are fully determined by (time, track, name), which is what makes the
  golden-trace regression tests byte-stable.
* **Auditable.**  :mod:`repro.verify.observecheck` re-derives nothing: it
  takes the finished trace (and optionally the engine timeline it was
  recorded from) and replays the invariants — well-formed nesting, one
  span per executed task, busy-time and makespan agreement.

The Chrome trace-event export lives in :mod:`repro.observe.chrome`; the
timeline/serve recording helpers in :mod:`repro.observe.record`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Span", "InstantEvent", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One traced interval on one track (a resource lane or request lane).

    ``cat`` is the phase category (``"scatter"``, ``"transfer"``,
    ``"request"``, ...) used for flame-style aggregation and Chrome
    colouring; ``args`` carries span metadata (window size, chunk round,
    batch id, ...), kept as a plain dict for export.
    """

    name: str
    track: str
    start_ms: float
    end_ms: float
    cat: str = ""
    args: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_ms) and math.isfinite(self.end_ms)):
            raise ValueError(f"span {self.name!r}: non-finite bounds")
        if self.end_ms < self.start_ms:
            raise ValueError(
                f"span {self.name!r}: ends at {self.end_ms} before start {self.start_ms}"
            )

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class InstantEvent:
    """One point-in-time event (a fault, a shed decision, a completion)."""

    name: str
    track: str
    at_ms: float
    cat: str = ""
    args: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Span/event collector: complete spans and instants.

    Spans are emitted complete, ``add_span(name, track, start, end)``: the
    timeline recorders transcribe a finished schedule, so both endpoints are
    known.
    """

    def __init__(self, label: str = "trace") -> None:
        self.label = label
        self.spans: list[Span] = []
        self.instants: list[InstantEvent] = []
        self.meta: dict[str, Any] = {}

    # -- emission ------------------------------------------------------------

    def add_span(
        self,
        name: str,
        track: str,
        start_ms: float,
        end_ms: float,
        cat: str = "",
        args: Mapping[str, Any] | None = None,
    ) -> Span:
        """Record one complete span."""
        span = Span(name, track, start_ms, end_ms, cat, dict(args or {}))
        self.spans.append(span)
        return span

    def instant(
        self,
        name: str,
        track: str,
        at_ms: float,
        cat: str = "",
        args: Mapping[str, Any] | None = None,
    ) -> InstantEvent:
        """Record one point-in-time event."""
        event = InstantEvent(name, track, at_ms, cat, dict(args or {}))
        self.instants.append(event)
        return event

    def annotate(self, **meta: Any) -> None:
        """Attach run-level metadata (window size, GPU count, ...)."""
        self.meta.update(meta)

    # -- introspection -------------------------------------------------------

    @property
    def tracks(self) -> list[str]:
        """Every track that carries at least one span or instant, sorted."""
        names = {s.track for s in self.spans} | {e.track for e in self.instants}
        return sorted(names)

    def makespan_ms(self) -> float:
        """Latest timestamp across spans and instants (0 for an empty trace)."""
        return max(
            (
                *(s.end_ms for s in self.spans),
                *(e.at_ms for e in self.instants),
            ),
            default=0.0,
        )

    def busy_ms(self) -> dict[str, float]:
        """Total span wall-time per track."""
        busy: dict[str, float] = {}
        for span in self.spans:
            busy[span.track] = busy.get(span.track, 0.0) + span.duration_ms
        return busy

    def category_ms(self) -> dict[str, float]:
        """Total span wall-time per category (the flamegraph aggregation)."""
        totals: dict[str, float] = {}
        for span in self.spans:
            cat = span.cat or "uncategorised"
            totals[cat] = totals.get(cat, 0.0) + span.duration_ms
        return totals

    def spans_on(self, track: str) -> list[Span]:
        """Spans of one track, in (start, end, name) order."""
        return sorted(
            (s for s in self.spans if s.track == track),
            key=lambda s: (s.start_ms, s.end_ms, s.name),
        )

    # -- export --------------------------------------------------------------

    def to_chrome_json(self, indent: int | None = None) -> str:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto)."""
        from repro.observe.chrome import to_chrome_json

        return to_chrome_json(self, indent=indent)

    def summary(self) -> str:
        """ASCII flamegraph-style summary: per-category and per-track bars."""
        from repro.analysis.ascii_plot import ascii_bars

        lines = [f"trace {self.label!r}: {len(self.spans)} spans on "
                 f"{len(self.tracks)} tracks, makespan {self.makespan_ms():.3f} ms"]
        if self.meta:
            pairs = ", ".join(f"{k}={self.meta[k]}" for k in sorted(self.meta))
            lines.append(f"  meta: {pairs}")
        cats = self.category_ms()
        if cats:
            lines.append(ascii_bars(cats, title="span time by phase (ms)"))
        busy = self.busy_ms()
        if busy:
            lines.append(ascii_bars(busy, title="span time by track (ms)"))
        if self.instants:
            lines.append(f"  {len(self.instants)} instant event(s): " + ", ".join(
                f"{e.name}@{e.at_ms:.3f}" for e in sorted(
                    self.instants, key=lambda e: (e.at_ms, e.track, e.name)
                )[:8]
            ) + ("..." if len(self.instants) > 8 else ""))
        return "\n".join(lines)

