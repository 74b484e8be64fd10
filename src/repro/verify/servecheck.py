"""Independent audit of serving runs (:class:`repro.serve.server.ServeResult`).

The serving layer *claims* a causality story — requests queue, batch,
execute, complete — and an SLO report derived from it.  This checker takes
the finished artifacts (request records, shed events, the shared engine
timeline) and replays the invariants every honest serving run satisfies:

* **causality** — no task of a request occupies a resource before the
  request arrived; each record's life-cycle timestamps are monotone
  (``arrival <= formed <= admit <= start <= complete``);
* **shed means shed** — a shed request has no task on the timeline, no
  request record, and no result point (load shedding that still executes
  would be admission theater);
* **conservation** — every submitted request is accounted exactly once,
  as a record or a shed event, never both;
* **honest completion** — a record's ``complete_ms`` matches its final
  reduce span on the timeline, so reported latency is what the engine
  actually scheduled.

Causality and conservation are the shared invariants of
:mod:`repro.verify.invariants`; violations carry ``rule="serve"`` and
``op`` names the request or task at fault.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.engine.timeline import TIME_EPS, Timeline
from repro.serve.admission import ShedEvent
from repro.serve.metrics import RequestRecord
from repro.serve.queue import ProofRequest
from repro.verify.invariants import Gate, causality, conservation
from repro.verify.report import CheckResult

#: serve task names: req{id}.a{attempt}:{unit}
_TASK_RE = re.compile(r"^req(\d+)\.a(\d+):")


def request_id_of(task_name: str) -> int | None:
    """The request id a serve task name belongs to, ``None`` otherwise."""
    match = _TASK_RE.match(task_name)
    return int(match.group(1)) if match else None


@dataclass
class ServeCheckResult(CheckResult):
    """Outcome of auditing one serving run."""

    checker = "serve"
    requests: int = 0
    served: int = 0
    shed: int = 0


def verify_serving(
    requests: list[ProofRequest],
    records: list[RequestRecord],
    shed: list[ShedEvent],
    timeline: Timeline,
    subject: str = "serving run",
    eps: float = TIME_EPS,
) -> ServeCheckResult:
    """Audit one serving run's artifacts against the serving invariants."""
    result = ServeCheckResult(
        subject, requests=len(requests), served=len(records), shed=len(shed)
    )
    arrivals = {r.req_id: r.arrival_ms for r in requests}
    shed_ids = {e.request.req_id for e in shed}

    # 1. causality: no serve task touches a resource before its arrival;
    #    shed requests own no timeline work at all
    gates = []
    for name, span in timeline.spans.items():
        rid = request_id_of(name)
        if rid is None:
            continue
        if rid in shed_ids:
            result.add(
                f"shed request {rid} has task {name!r} on the timeline "
                "(shed requests must never execute)",
                op=name,
            )
        if rid not in arrivals:
            result.add(f"task {name!r} belongs to unknown request {rid}", op=name)
        else:
            gates.append(Gate(f"request {rid} task starts", span.start_ms,
                              "its arrival", arrivals[rid], name))

    # 2. conservation: records and shed events partition the submissions
    conservation(
        result,
        arrivals,
        [(r.req_id, "served") for r in records]
        + [(e.request.req_id, "shed") for e in shed],
        noun=lambda rid: f"request {rid}",
        lost="neither served nor shed (lost in the server)",
        op=lambda rid: f"req{rid}",
    )

    # 3. per-record life-cycle causality and honest completion
    reduce_ends: dict[int, float] = {}
    for name, span in timeline.spans.items():
        rid = request_id_of(name)
        if rid is not None and name.endswith(":reduce"):
            reduce_ends[rid] = max(reduce_ends.get(rid, span.end_ms), span.end_ms)
    for record in records:
        label = f"req{record.req_id}"
        stamps = (
            ("arrival", record.arrival_ms),
            ("formed", record.formed_ms),
            ("admit", record.admit_ms),
            ("start", record.start_ms),
            ("complete", record.complete_ms),
        )
        for (a_name, a), (b_name, b) in zip(stamps, stamps[1:]):
            gates.append(Gate(f"request {record.req_id}: {b_name}", b, a_name, a, label))
        end = reduce_ends.get(record.req_id)
        if end is None:
            result.add(
                f"request {record.req_id} served without a reduce span on the "
                "timeline",
                op=label,
            )
        elif abs(end - record.complete_ms) > eps:
            result.add(
                f"request {record.req_id}: recorded completion "
                f"{record.complete_ms:.6f} ms != final reduce end {end:.6f} ms",
                op=label,
            )
    causality(result, gates, eps)
    return result
