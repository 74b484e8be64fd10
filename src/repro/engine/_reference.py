"""The pre-optimisation simulate loop, preserved as the schedule oracle.

:func:`reference_simulate` is the event loop :mod:`repro.engine.timeline`
shipped before the int-indexed rewrite: string-keyed dictionaries for every
per-task and per-resource lookup, and dataclass attribute access on the hot
path.  Its scheduling is preserved verbatim; only the per-dispatch gate
bookkeeping went when ``Timeline.binding`` did (``Timeline.critical_path``
rebuilds the chain from the spans).  It is kept (not re-exported) for two
consumers only:

* the differential test tier (``tests/engine/test_simulate_differential``)
  pins :func:`repro.engine.timeline.simulate` and the resumed
  :class:`~repro.engine.timeline.Simulation` byte-for-byte against this
  loop on random task DAGs, fault plans included;
* ``benchmarks/bench_vectorized.py`` measures the speedup against it.

Do not "fix" or optimise this module — its value is being frozen.
"""

from __future__ import annotations

import heapq

from repro.engine.faults import FaultPlan, RetryPolicy, TransferError
from repro.engine.timeline import (
    TIME_EPS,
    Stage,
    Task,
    TaskAttempt,
    TaskFailure,
    TaskSpan,
    Timeline,
)


def reference_simulate(
    tasks: list[Task] | tuple[Task, ...],
    stages: tuple[Stage, ...] = (),
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> Timeline:
    """Schedule ``tasks`` with the original dict-keyed event loop."""
    task_list = tuple(tasks)
    by_name: dict[str, Task] = {}
    for task in task_list:
        if task.name in by_name:
            raise ValueError(f"duplicate task name {task.name!r}")
        by_name[task.name] = task
    order = {task.name: i for i, task in enumerate(task_list)}
    for task in task_list:
        for dep in task.deps:
            if dep not in by_name:
                raise ValueError(f"task {task.name!r} depends on unknown {dep!r}")

    deaths: dict[str, float] = faults.death_times() if faults is not None else {}
    slowdowns: dict[str, float] = faults.slowdowns() if faults is not None else {}
    pending_errors: dict[str, list[TransferError]] = (
        faults.transfer_errors() if faults is not None else {}
    )
    policy = retry if retry is not None else RetryPolicy()

    remaining = {task.name: len(set(task.deps)) for task in task_list}
    dependants: dict[str, list[str]] = {task.name: [] for task in task_list}
    for task in task_list:
        for dep in dict.fromkeys(task.deps):
            dependants[dep].append(task.name)

    ready: list[tuple[float, int, str]] = [
        (by_name[name].not_before_ms, order[name], name)
        for name, n in remaining.items()
        if n == 0
    ]
    heapq.heapify(ready)

    free: dict[str, float] = {}
    ends: dict[str, float] = {}
    spans: dict[str, TaskSpan] = {}
    failures: list[TaskFailure] = []
    failed: set[str] = set()
    attempts: list[TaskAttempt] = []
    attempt_no: dict[str, int] = {}
    done = 0

    def fail_task(name: str, at: float, reason: str, start: float | None) -> None:
        stack: list[tuple[str, float, str, float | None]] = [(name, at, reason, start)]
        while stack:
            task_name, at_ms, why, started = stack.pop()
            if task_name in failed or task_name in spans:
                continue
            failed.add(task_name)
            failures.append(
                TaskFailure(
                    task_name,
                    by_name[task_name].resource,
                    at_ms,
                    why,
                    started,
                    attempt_no.get(task_name, 1),
                )
            )
            for child in dependants[task_name]:
                stack.append((child, at_ms, "dep-failed", None))

    while ready:
        ready_time, _, name = heapq.heappop(ready)
        if name in failed:
            continue
        task = by_name[name]
        res = task.resource.name
        res_free = free.get(res, 0.0)
        start = max(ready_time, res_free)
        duration = task.duration_ms * slowdowns.get(res, 1.0)

        involved = (res, *task.requires_alive)
        dead_already = [
            (deaths[r], r) for r in involved if r in deaths and deaths[r] <= start + TIME_EPS
        ]
        if dead_already:
            at_ms, _victim = min(dead_already)
            fail_task(name, at_ms, "resource-dead", None)
            continue
        kill_at = min((deaths[r] for r in involved if r in deaths), default=float("inf"))
        end = start + duration

        hit: TransferError | None = None
        queue = pending_errors.get(res)
        if queue:
            for event in queue:
                if event.at_ms >= end - TIME_EPS:
                    break
                if event.at_ms >= start - TIME_EPS:
                    hit = event
                    break
        if hit is not None and hit.at_ms <= kill_at:
            queue.remove(hit)  # type: ignore[union-attr]
            k = attempt_no.get(name, 1)
            free[res] = hit.at_ms
            if hit.transient and k <= policy.max_retries:
                retry_at = hit.at_ms + policy.delay_ms(k)
                attempts.append(TaskAttempt(name, task.resource, start, hit.at_ms, k, retry_at))
                attempt_no[name] = k + 1
                heapq.heappush(ready, (retry_at, order[name], name))
            else:
                fail_task(name, hit.at_ms, "transfer-error", start)
            continue

        if kill_at < end - TIME_EPS:
            free[res] = kill_at
            fail_task(name, kill_at, "killed", start)
            continue

        free[res] = end
        ends[name] = end
        spans[name] = TaskSpan(name, task.resource, start, end, task.stage)
        done += 1

        for child in dependants[name]:
            remaining[child] -= 1
            if remaining[child] == 0 and child not in failed:
                child_ready = max(
                    max((ends[d] for d in by_name[child].deps), default=0.0),
                    by_name[child].not_before_ms,
                )
                heapq.heappush(ready, (child_ready, order[child], child))

    if done + len(failed) != len(task_list):
        stuck = sorted(n for n in remaining if n not in spans and n not in failed)
        raise ValueError(f"dependency cycle among tasks: {', '.join(stuck)}")

    total = max(
        (
            *(s.end_ms for s in spans.values()),
            *(f.at_ms for f in failures),
            *(a.end_ms for a in attempts),
        ),
        default=0.0,
    )
    return Timeline(task_list, spans, total, stages, tuple(failures), tuple(attempts))
