"""repro.observe — unified tracing, profiling hooks, and trace export.

The observability substrate of the reproduction: one :class:`Tracer`
collects finished engine timelines (:func:`record_timeline`, per-task
spans), ``DistMsm`` (per-phase spans with window/chunk metadata), and the
serving layer (request life-cycle lanes); :func:`percentile` is the one
nearest-rank percentile the SLO reports share; exports are Chrome
trace-event JSON (:func:`to_chrome_json`) and an ASCII flame-style
summary (``Tracer.summary``).  ``repro.verify.observecheck`` audits every
trace against the timeline it was recorded from.
"""

from repro.observe.chrome import to_chrome_json, to_chrome_trace
from repro.observe.record import phase_category, record_timeline
from repro.observe.stats import percentile
from repro.observe.tracer import InstantEvent, Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "InstantEvent",
    "percentile",
    "to_chrome_trace",
    "to_chrome_json",
    "phase_category",
    "record_timeline",
]
