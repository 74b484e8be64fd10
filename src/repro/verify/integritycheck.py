"""End-to-end integrity audit of Byzantine-aware MSM executions (DESIGN.md §14).

The orchestrator's claim after a verified run is strong: *no unverified or
rejected chunk result reached the returned point*.  This checker replays
the audit trail it attaches to the result — the
:class:`~repro.faults.byzantine.ByzantineReport` with its per-chunk
verdicts, quarantine decisions, and consumed-slot map — against the plan
and the recovered timeline, and proves the claim by conservation of
verified mass:

* **complete coverage** — the consumed map assigns every plan slot to
  exactly one delivered execution (no slot missing, none double-counted:
  the accumulation is linear in the slot partials and a chunk adds
  exactly ``2^(s * w_min) * V`` to the point, ``V`` its window-weighted
  value, so one consumed execution per slot *is* the final point);
* **only verified mass** — every consumed execution's verdict is
  ``accepted`` (or ``unverified``, iff the report honestly declares
  verification was off); ``rejected`` and ``lost`` chunks never appear;
* **soundness honoured** — with verification on, no chunk whose forgery
  changed its value carries an ``accepted`` verdict (the response check
  must have caught it);
* **quarantine discipline** — every rejected chunk's GPU is quarantined,
  and nothing is dispatched to a quarantined GPU after its quarantine
  instant (results verified *before* the quarantine may stand: trust
  comes from the math, not the worker);
* **verify-before-consume** — on the timeline, the host accumulation
  (``msm:host-reduce``) starts no earlier than the response check of any
  consumed chunk completes;
* **honest bookkeeping** — the report's ``rejected`` counter matches its
  own verdicts, and an unverified run claims no accept/reject verdicts.

Coverage, quarantine and verify-before-consume are the shared
conservation, exclusion and causality invariants of
:mod:`repro.verify.invariants`; violations carry ``rule="integrity"``,
``op`` the ``r{round}:g{gpu}`` of the offending chunk and ``address`` the
slot when one is at fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.timeline import TIME_EPS, Timeline
from repro.faults.byzantine import (
    VERDICT_ACCEPTED,
    VERDICT_LOST,
    VERDICT_REJECTED,
    ByzantineReport,
)
from repro.verify.invariants import Gate, Occupancy, causality, conservation, exclusion
from repro.verify.report import CheckResult

__all__ = ["IntegrityCheckResult", "verify_msm_integrity"]

#: the host accumulation task gated on the consumed chunks' checks
_HOST_REDUCE = "msm:host-reduce"


@dataclass
class IntegrityCheckResult(CheckResult):
    """Outcome of auditing one Byzantine-aware execution."""

    checker = "integrity"
    chunks: int = 0
    consumed: int = 0
    rejected: int = 0
    quarantined: int = 0


def verify_msm_integrity(
    result,
    subject: str = "msm-integrity",
    eps: float = TIME_EPS,
) -> IntegrityCheckResult:
    """Audit a :class:`~repro.core.distmsm.DistMsmResult`'s integrity trail.

    ``result`` must carry a ``byzantine_report`` (any verified or
    Byzantine-faulted execution does); its ``plan`` supplies the slot
    universe and its ``timeline`` the verify-before-consume ordering.
    A result without a report fails the audit — there is nothing to
    trust an execution on.
    """
    report: ByzantineReport | None = getattr(result, "byzantine_report", None)
    checked = IntegrityCheckResult(subject)
    if report is None:
        checked.add(
            "execution carries no ByzantineReport — nothing proves the "
            "result consumed only verified chunks"
        )
        return checked
    timeline: Timeline | None = getattr(result, "timeline", None)
    plan = getattr(result, "plan", None)

    checked.chunks = len(report.chunks)
    checked.consumed = len(report.consumed)
    checked.rejected = sum(
        1 for c in report.chunks if c.verdict == VERDICT_REJECTED
    )
    checked.quarantined = len(report.quarantined)
    outcomes = {(c.round, c.gpu): c for c in report.chunks}
    quarantine_at = dict(report.quarantined)

    # 1. conservation: every plan slot consumed exactly once
    conservation(
        checked,
        range(len(plan.assignments)) if plan is not None
        else {s for c in report.chunks for s in c.slots},
        [(slot, f"consumed from r{rnd}:g{gpu}") for slot, rnd, gpu in report.consumed],
        noun=lambda slot: f"slot {slot}",
        lost="never consumed — the returned point is missing mass",
        address=lambda slot: f"slot:{slot}",
    )

    # 2. only verified mass reaches the accumulation
    for slot, rnd, gpu in report.consumed:
        outcome = outcomes.get((rnd, gpu))
        where = {"op": f"r{rnd}:g{gpu}", "address": f"slot:{slot}"}
        if outcome is None:
            checked.add("consumed execution has no recorded chunk outcome", **where)
            continue
        if slot not in outcome.slots:
            checked.add(
                f"consumed slot was never assigned to this chunk "
                f"(its slots: {list(outcome.slots)})",
                **where,
            )
        if not outcome.delivered:
            checked.add("consumed chunk was never delivered", **where)
        if outcome.verdict in (VERDICT_REJECTED, VERDICT_LOST):
            checked.add(
                f"consumed chunk's verdict is {outcome.verdict!r} — "
                "rejected/lost results must never reach the point",
                **where,
            )
        elif report.verified and outcome.verdict != VERDICT_ACCEPTED:
            checked.add(
                f"verified run consumed a chunk with verdict "
                f"{outcome.verdict!r} instead of {VERDICT_ACCEPTED!r}",
                **where,
            )

    # 3. soundness honoured: a value-changing forgery cannot be accepted
    if report.verified:
        for c in report.chunks:
            if c.corrupted and c.verdict == VERDICT_ACCEPTED:
                checked.add(
                    "value-changing forgery passed the response check — "
                    "soundness failure",
                    op=f"r{c.round}:g{c.gpu}",
                )

    # 4. quarantine discipline; exclusion: no dispatch to a GPU after its
    #    quarantine (results verified *before* it may stand)
    for c in report.chunks:
        if c.verdict == VERDICT_REJECTED and c.gpu not in quarantine_at:
            checked.add(
                "chunk was rejected but its GPU was never quarantined",
                op=f"r{c.round}:g{c.gpu}",
            )
    exclusion(
        checked,
        (
            Occupancy("chunk", f"gpu:{c.gpu}", c.dispatched_at_ms, c.dispatched_at_ms,
                      f"r{c.round}:g{c.gpu}")
            for c in report.chunks
        ),
        {f"gpu:{g}": (at, "quarantine") for g, at in quarantine_at.items()},
        eps,
    )

    # 5. causality: the host accumulation waits for every consumed chunk's
    #    response check
    if report.verified and timeline is not None:
        reduce_span = timeline.spans.get(_HOST_REDUCE)
        if reduce_span is None:
            checked.add(
                "verified run's timeline has no host-reduce span to gate on",
                op=_HOST_REDUCE,
            )
        else:
            causality(
                checked,
                (
                    Gate("host-reduce starts", reduce_span.start_ms,
                         "the consumed chunk's check completes",
                         outcomes[rnd, gpu].verified_at_ms,
                         f"r{rnd}:g{gpu}", f"slot:{slot}")
                    for slot, rnd, gpu in report.consumed
                    if (rnd, gpu) in outcomes and outcomes[rnd, gpu].verified_at_ms >= 0
                ),
                eps,
            )

    # 6. honest bookkeeping inside the report itself
    if report.rejected != checked.rejected:
        checked.add(
            f"report claims {report.rejected} rejected chunk(s) but records "
            f"{checked.rejected} rejected verdict(s)"
        )
    if not report.verified:
        for c in report.chunks:
            if c.verdict in (VERDICT_ACCEPTED, VERDICT_REJECTED):
                checked.add(
                    f"unverified run claims verdict {c.verdict!r} — without "
                    "checks there is nothing to accept or reject",
                    op=f"r{c.round}:g{c.gpu}",
                )
    for c in report.chunks:
        if not c.delivered and c.verdict != VERDICT_LOST:
            checked.add(
                f"undelivered chunk carries verdict {c.verdict!r} "
                f"instead of {VERDICT_LOST!r}",
                op=f"r{c.round}:g{c.gpu}",
            )
    return checked
