"""Independent audit of recovered fault timelines (DESIGN.md §9).

:func:`verify_timeline` checks the generic schedule invariants; this
checker audits the *fault semantics* of a timeline simulated under a
:class:`~repro.engine.faults.FaultPlan`:

* **no post-mortem scheduling** — no span (or retry attempt) may overlap a
  resource past its fail-stop time, and nothing at all may start on it
  afterwards; the same applies to every resource a task required alive;
* **backoff spacing** — retry attempt ``k`` of a task must not restart
  before ``fail_time + backoff_base_ms * 2**(k-1)``, attempt numbers are
  dense from 1, and no task exceeds ``max_retries`` retries;
* **honest makespan** — the claimed total must not be *less* than any
  recorded span end, failure time, or aborted attempt end (losing work
  must never make the run look faster).

Exclusion, causality and the makespan floor are the shared invariants of
:mod:`repro.verify.invariants`; violations carry ``rule="faults"`` and
``op`` names the offending task.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.faults import FaultPlan, RetryPolicy
from repro.engine.timeline import TIME_EPS, Timeline
from repro.verify.invariants import Gate, causality, exclusion, makespan_floor, occupancy
from repro.verify.report import CheckResult


@dataclass
class FaultCheckResult(CheckResult):
    """Outcome of auditing one recovered timeline."""

    checker = "faults"
    tasks: int = 0
    failures: int = 0
    attempts: int = 0


def verify_fault_timeline(
    timeline: Timeline,
    faults: FaultPlan,
    retry: RetryPolicy | None = None,
    subject: str = "fault-timeline",
    eps: float = TIME_EPS,
) -> FaultCheckResult:
    """Audit the fault semantics of a timeline simulated under ``faults``."""
    policy = retry if retry is not None else RetryPolicy()
    requires = {task.name: task.requires_alive for task in timeline.tasks}
    result = FaultCheckResult(
        subject,
        tasks=len(timeline.tasks),
        failures=len(timeline.failures),
        attempts=len(timeline.attempts),
    )

    # 1. exclusion: nothing runs on, or requires, a resource after its death
    uses = occupancy(timeline)
    uses += [
        use._replace(device=f"resource:{needed}")
        for use in uses
        for needed in requires.get(use.what.split("#", 1)[0], ())
    ]
    deaths = {f"resource:{r}": (at, "death") for r, at in faults.death_times().items()}
    exclusion(result, uses, deaths, eps)

    # 2. the retry budget; causality: no retry before its backoff has
    #    elapsed, and no later attempt or final run before its retry time
    by_task: dict[str, list] = {}
    for a in timeline.attempts:
        by_task.setdefault(a.task, []).append(a)
    gates = []
    for name, attempts in sorted(by_task.items()):
        attempts.sort(key=lambda a: a.attempt)
        if attempts[-1].attempt > policy.max_retries:
            result.add(
                f"{attempts[-1].attempt} failed attempts exceed "
                f"max_retries={policy.max_retries}",
                op=name,
            )
        for i, a in enumerate(attempts, start=1):
            if a.attempt != i:
                result.add(
                    f"attempt numbering is not dense (expected {i}, "
                    f"got {a.attempt})",
                    op=name,
                )
                break
        for a in attempts:
            backoff_end = a.end_ms + policy.delay_ms(a.attempt)
            gates.append(Gate(f"retry after attempt {a.attempt} scheduled",
                              a.retry_at_ms, "its backoff ends", backoff_end, name))
        for a, nxt in zip(attempts, attempts[1:]):
            gates.append(Gate(f"attempt {nxt.attempt} starts", nxt.start_ms,
                              "the scheduled retry", a.retry_at_ms, name))
        final = timeline.spans.get(name)
        if final is not None:
            gates.append(Gate("final execution starts", final.start_ms,
                              "the scheduled retry", attempts[-1].retry_at_ms, name))
        elif timeline.failure_for(name) is None:
            result.add("retried task neither completed nor failed", op=name)
    causality(result, gates, eps)

    # 3. honest makespan: aborted work may not be dropped from the claim
    floor = makespan_floor(timeline)
    if timeline.total_ms < floor - eps:
        result.add(
            f"claimed makespan {timeline.total_ms} hides work that ran "
            f"until {floor}"
        )
    return result
