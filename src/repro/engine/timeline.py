"""Event-driven execution timeline: tasks, dependencies, resources.

One deterministic discrete-event simulator replaces the repo's previous
three ad-hoc timing models (serial phase sums, the private two-machine flow
shop in ``core.multi_msm``, and the Amdahl split in ``zksnark.pipeline``).
Producers *emit tasks* — a name, a :class:`~repro.engine.resources.Resource`,
a duration, dependency edges — and :func:`simulate` schedules them:

* a task becomes *ready* when all its dependencies have finished (and its
  ``not_before_ms`` release time has passed);
* each resource executes one task at a time, FIFO in readiness order
  (ties broken by submission order), like an in-order CUDA stream;
* the loop always dispatches the ready task with the smallest
  ``(ready_time, submission index)``, so results are fully deterministic.

The resulting :class:`Timeline` carries per-task spans, per-resource
utilization, and the critical path — the quantities Figs. 8/9 and the
§3.2.3 pipelining argument are really about.

Fault injection (:mod:`repro.engine.faults`): ``simulate`` optionally takes
a :class:`~repro.engine.faults.FaultPlan`.  Stragglers stretch task
durations on their resource; a dead resource kills its running task and
refuses everything after its failure time (tasks *requiring* a dead
resource — ``Task.requires_alive`` — die with it); transient transfer
errors fail the in-flight attempt and re-queue it under the
:class:`~repro.engine.faults.RetryPolicy`'s exponential backoff.  Failed
tasks cascade to their dependants, and every failure/retry is recorded on
the timeline (:class:`TaskFailure` / :class:`TaskAttempt`) so independent
checkers can audit the recovery — nothing is silently dropped.

The engine has one event loop, :class:`Simulation`'s; ``simulate`` runs it
in one go, fault-free or faulted.  It can also be resumed: tasks are
appended, a prefix of the dispatch order is committed, and a copy is
probed to completion — with every timeline equal to one-shot ``simulate``
of the same tasks as long as appends keep its commit contract.
"""

from __future__ import annotations

import copy
import heapq
import math
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

from repro.engine.faults import FaultPlan, RetryPolicy, TransferError
from repro.engine.resources import Resource

#: scheduling/verification tolerance for time comparisons (milliseconds)
TIME_EPS = 1e-9

#: what :func:`simulate` and :class:`Simulation` fall back on (both frozen)
_NO_FAULTS = FaultPlan()
_DEFAULT_RETRY = RetryPolicy()


@dataclass(frozen=True)
class Task:
    """One unit of work bound to a resource.

    Attributes
    ----------
    name:
        Unique identifier within its timeline.
    resource:
        Where the task runs (a serially-executing unit).
    duration_ms:
        Modelled execution time; zero-duration marker tasks are allowed.
    deps:
        Names of tasks that must finish before this one may start.
    stage:
        Optional grouping label (pipeline phase) for reporting.
    not_before_ms:
        Earliest permitted start (release time) — how recovery rounds are
        pinned after a failure's detection heartbeat.
    requires_alive:
        Resource names (beyond the executing resource) that must stay
        alive through the task — a device-to-host copy requires the source
        GPU's memory, so the copy dies with the GPU.
    """

    name: str
    resource: Resource
    duration_ms: float
    deps: tuple[str, ...] = ()
    stage: str = ""
    not_before_ms: float = 0.0
    requires_alive: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # chained comparisons are False for NaN, so one test per field
        # admits only finite durations and non-NaN release times
        if not 0 <= self.duration_ms < math.inf:
            kind = "negative" if self.duration_ms < 0 else "non-finite"
            raise ValueError(
                f"task {self.name!r}: {kind} duration {self.duration_ms}"
            )
        if not self.not_before_ms >= 0:
            kind = "negative" if self.not_before_ms < 0 else "NaN"
            raise ValueError(
                f"task {self.name!r}: {kind} release time {self.not_before_ms}"
            )


@dataclass(frozen=True)
class Stage:
    """A named group of tasks forming one pipeline phase (barrier group)."""

    name: str
    tasks: tuple[str, ...]


class TaskSpan(NamedTuple):
    """The scheduled interval of one task.

    A ``NamedTuple`` rather than a frozen dataclass: :func:`simulate`
    constructs one per completed task, and at 10^6-task scale tuple
    construction is about half the cost of a dataclass ``__init__``.
    Field access, equality, hashing, and repr are unchanged.
    """

    task: str
    resource: Resource
    start_ms: float
    end_ms: float
    stage: str = ""

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class TaskFailure:
    """One task that did not complete, and why.

    ``reason`` is one of ``"killed"`` (resource died mid-task),
    ``"resource-dead"`` (a needed resource was already dead at dispatch),
    ``"transfer-error"`` (permanent transfer fault, or retries exhausted),
    or ``"dep-failed"`` (a dependency failed, so this task can never run).
    ``start_ms`` is the aborted attempt's start, ``None`` if it never ran.
    """

    task: str
    resource: Resource
    at_ms: float
    reason: str
    start_ms: float | None = None
    attempt: int = 1


@dataclass(frozen=True)
class TaskAttempt:
    """A failed-but-retried occupation of a resource (transient fault).

    The attempt held ``resource`` over ``[start_ms, end_ms)`` before the
    fault bit; the retry was released at ``retry_at_ms`` (failure time plus
    the policy's exponential backoff).
    """

    task: str
    resource: Resource
    start_ms: float
    end_ms: float
    attempt: int
    retry_at_ms: float


@dataclass
class Timeline:
    """A fully scheduled task graph.

    ``spans`` maps task name to its interval; ``total_ms`` is the makespan
    (max end over all spans, *aborted work included* — failed attempts and
    failure times count, so a chaos run's accounting stays honest; 0 for an
    empty timeline).  The original tasks (with their dependency edges) are
    retained so independent checkers (:mod:`repro.verify.timelinecheck`,
    :mod:`repro.verify.faultcheck`) can audit the schedule without
    re-running the simulator.
    """

    tasks: tuple[Task, ...]
    spans: dict[str, TaskSpan]
    total_ms: float
    stages: tuple[Stage, ...] = ()
    #: tasks that never completed (fault injection only; empty otherwise)
    failures: tuple[TaskFailure, ...] = ()
    #: failed-but-retried attempts (transient transfer errors)
    attempts: tuple[TaskAttempt, ...] = ()
    #: lazy per-task lookup indexes; built once on first use so audits that
    #: query every task (faultcheck walks the whole graph) are O(total)
    #: instead of O(tasks x attempts)
    _failure_index: dict[str, TaskFailure] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _attempt_index: dict[str, tuple[TaskAttempt, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def span(self, task: str) -> TaskSpan:
        return self.spans[task]

    def failure_for(self, task: str) -> TaskFailure | None:
        """The terminal failure of ``task``, if it did not complete."""
        index = self._failure_index
        if index is None:
            index = {}
            for failure in self.failures:
                # first entry wins, matching the original linear scan
                index.setdefault(failure.task, failure)
            self._failure_index = index
        return index.get(task)

    def attempts_for(self, task: str) -> tuple[TaskAttempt, ...]:
        """The failed-but-retried attempts of ``task``, in attempt order."""
        index = self._attempt_index
        if index is None:
            grouped: dict[str, list[TaskAttempt]] = {}
            for attempt in self.attempts:
                grouped.setdefault(attempt.task, []).append(attempt)
            index = {
                name: tuple(sorted(group, key=lambda a: a.attempt))
                for name, group in grouped.items()
            }
            self._attempt_index = index
        return index.get(task, ())

    def busy_ms(self) -> dict[str, float]:
        """Total busy time per resource name."""
        busy: dict[str, float] = {}
        for span in self.spans.values():
            busy[span.resource.name] = busy.get(span.resource.name, 0.0) + span.duration_ms
        return busy

    def utilization(self) -> dict[str, float]:
        """Busy fraction of the makespan per resource name."""
        if self.total_ms <= 0:
            return {name: 0.0 for name in self.busy_ms()}
        return {name: b / self.total_ms for name, b in self.busy_ms().items()}

    def critical_path(self) -> list[str]:
        """Task names on the chain that sets the makespan, in time order.

        Walks back from the last-finishing task through each task's gate:
        its latest-ending dependency (the earlier submission on ties) if
        that ends no earlier than the previous span on the task's resource,
        else that previous span if it ends after the task was ready, else
        nothing.  ``spans`` holds the spans in dispatch order, so on a
        fault-free timeline the gate is exactly the predecessor that held
        the start back.  On a faulted timeline the chain follows completed
        spans only: an aborted attempt that held a resource is not a span.
        """
        spans = self.spans
        if not spans:
            return []
        tasks = {t.name: t for t in self.tasks}
        order = dict(zip(tasks, range(len(tasks))))
        queue_prev: dict[str, TaskSpan | None] = {}
        last_on: dict[str, TaskSpan] = {}
        for span in spans.values():
            queue_prev[span.task] = last_on.get(span.resource.name)
            last_on[span.resource.name] = span
        name: str | None = max(spans.values(), key=lambda s: (s.end_ms, s.task)).task
        path: list[str] = []
        while name is not None:
            path.append(name)
            task, prev = tasks[name], queue_prev[name]
            res_free = prev.end_ms if prev is not None else 0.0
            ready_ms = task.not_before_ms
            name = None
            if task.deps:
                latest = min(task.deps, key=lambda d: (-spans[d].end_ms, order[d]))
                latest_end = spans[latest].end_ms
                if latest_end >= res_free - TIME_EPS:
                    name = latest
                ready_ms = max(ready_ms, latest_end)
            if name is None and prev is not None and res_free > ready_ms - TIME_EPS:
                name = prev.task
        path.reverse()
        return path

    def stage_spans(self) -> dict[str, tuple[float, float]]:
        """Per-stage (start, end) envelopes, for phase-level reporting."""
        out: dict[str, tuple[float, float]] = {}
        for span in self.spans.values():
            if not span.stage:
                continue
            lo, hi = out.get(span.stage, (span.start_ms, span.end_ms))
            out[span.stage] = (min(lo, span.start_ms), max(hi, span.end_ms))
        return out


def simulate(
    tasks: list[Task] | tuple[Task, ...],
    stages: tuple[Stage, ...] = (),
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> Timeline:
    """Schedule ``tasks`` over their resources; deterministic event loop.

    With a :class:`~repro.engine.faults.FaultPlan`, the loop additionally
    kills tasks on dead resources, stretches straggler durations, and
    retries transient transfer errors under ``retry`` (defaults to
    ``RetryPolicy()``); the returned timeline then carries ``failures``
    and ``attempts`` alongside the completed spans.  The loop is
    :class:`Simulation`'s, run here in one go.  Tracing is a transcription
    of the finished timeline (:func:`repro.observe.record.record_timeline`),
    so the event loop never touches a tracing object.
    """
    simulation = Simulation(faults if faults is not None else _NO_FAULTS, retry)
    simulation.add(tasks)
    return simulation.timeline(stages)


def _dep_ids(
    task_list: tuple[Task, ...], index: Mapping[str, int]
) -> list[tuple[int, ...]]:
    """Each task's dependencies as ids (duplicates dropped, order kept)."""
    lookup = index.__getitem__
    try:
        return [
            ()
            if not deps
            else (
                (lookup(deps[0]),)
                if len(deps) == 1
                else tuple(map(lookup, dict.fromkeys(deps)))
            )
            for deps in [t.deps for t in task_list]
        ]
    except KeyError:
        for task in task_list:
            for dep in task.deps:
                if dep not in index:
                    raise ValueError(
                        f"task {task.name!r} depends on unknown {dep!r}"
                    ) from None
        raise


class AppendError(ValueError):
    """An append that would rewrite the committed part of a :class:`Simulation`.

    Raised when an appended task could become ready before the committed
    instant, or depends on a task that already failed there: a one-shot
    run of the whole task list would have dispatched that task (or
    recorded its failure) inside the committed prefix.  The simulation is
    left as it was; the caller starts again from an empty one.
    """


class Simulation:
    """The engine's event loop, resumable; :func:`simulate` runs it in one go.

    :meth:`add` appends tasks (submission order continues across calls;
    a dependency must name a task added before or in the same call),
    :meth:`commit` dispatches every ready task whose ready time is before
    an instant, :meth:`probe` runs a throwaway copy to completion, and
    :meth:`timeline` finishes the run and assembles its
    :class:`Timeline`.

    **The commit contract.**  The loop pops tasks in ``(ready_time,
    submission index)`` order and never pushes a ready time below the one
    it just popped, so after ``commit(t)`` every dispatch, failure and
    retry with ready time before ``t`` is final.  An appended task may
    join only if it cannot become ready before ``t`` and depends on no
    task that failed before it; then it could not have been dispatched,
    or cascaded into, inside the committed prefix, and every later
    timeline equals one-shot ``simulate`` over the same task list, byte
    for byte.  Any other append raises :class:`AppendError`.

    The loop works on integer task and resource ids with flat lists for
    every per-task quantity; string-keyed dictionaries appear only when
    tasks are added and when the finished :class:`Timeline` is assembled.
    The differential tier pins its schedules (spans, failures, attempts,
    makespan) byte for byte to
    :func:`repro.engine._reference.reference_simulate`.
    """

    def __init__(self, faults: FaultPlan, retry: RetryPolicy | None = None) -> None:
        self.policy = retry if retry is not None else _DEFAULT_RETRY
        #: every ready time before this instant has been dispatched
        self.committed_ms = -math.inf
        self._deaths = faults.death_times()
        self._slowdowns = faults.slowdowns()
        self._errors = faults.transfer_errors()
        # -- per task, fixed once added ----------------------------------
        self._tasks: list[Task] = []
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._res_of: list[int] = []
        #: durations, stretched by the executing resource's slowdown
        self._durations: list[float] = []
        self._release: list[float] = []
        self._deps_of: list[tuple[int, ...]] = []
        #: earliest death among the executing and the co-required
        #: resources (inf: the fault plan kills none of them)
        self._kill_at: list[float] = []
        self._dependants: list[list[int]] = []
        # -- per resource, fixed once seen -------------------------------
        self._res_ids: dict[str, int] = {}
        # -- loop state (what a probe copies) ----------------------------
        self._remaining: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._scheduled = bytearray()
        self._failed = bytearray()
        self._free: list[float] = []
        #: per-resource consumable queues of transfer-error events (time order)
        self._err_queues: list[list[TransferError] | None] = []
        #: (ready_time, submission index) — the dispatch priority
        self._ready: list[tuple[float, int]] = []
        self._done_order: list[int] = []
        self._failures: list[TaskFailure] = []
        self._failure_of: dict[int, TaskFailure] = {}
        self._attempts: list[TaskAttempt] = []
        self._attempt_no: dict[int, int] = {}

    def add(self, tasks: list[Task] | tuple[Task, ...]) -> None:
        """Append ``tasks`` after every task added so far.

        Raises ``ValueError`` for a duplicate name or an unknown
        dependency, and :class:`AppendError` when the commit contract
        forbids the append; either way nothing is added.
        """
        new = tuple(tasks)
        base = len(self._names)
        index = self._index
        names = [t.name for t in new]
        local = dict(zip(names, range(base, base + len(new))))
        if len(local) != len(new) or not index.keys().isdisjoint(local):
            seen = set(index)
            for name in names:
                if name in seen:
                    raise ValueError(f"duplicate task name {name!r}")
                seen.add(name)
        deps_of = _dep_ids(new, ChainMap(local, index) if index else local)
        release = [t.not_before_ms for t in new]

        if self.committed_ms == -math.inf:
            # nothing dispatched yet: every dependency is still to finish
            remaining = list(map(len, deps_of))
            roots = [
                (ready_ms, i)
                for i, ready_ms, deps in zip(range(base, base + len(new)), release, deps_of)
                if not deps
            ]
        else:
            failed, scheduled, ends = self._failed, self._scheduled, self._ends
            remaining = []
            roots = []
            for i, (task, deps) in enumerate(zip(new, deps_of), base):
                waiting = 0
                ready_ms = task.not_before_ms
                for d in deps:
                    if d >= base or not scheduled[d]:
                        if d < base and failed[d]:
                            raise AppendError(
                                f"task {task.name!r} depends on {self._names[d]!r}, "
                                "which failed before the committed instant "
                                f"{self.committed_ms} ms"
                            )
                        waiting += 1
                    elif ends[d] > ready_ms:
                        ready_ms = ends[d]
                if not waiting:
                    if ready_ms < self.committed_ms:
                        raise AppendError(
                            f"task {task.name!r} is ready at {ready_ms} ms, before "
                            f"the committed instant {self.committed_ms} ms"
                        )
                    roots.append((ready_ms, i))
                remaining.append(waiting)

        # -- validated: extend every table -------------------------------
        res_ids, errors = self._res_ids, self._errors
        res_names = [t.resource.name for t in new]
        fresh = [r for r in dict.fromkeys(res_names) if r not in res_ids]
        res_ids.update(zip(fresh, range(len(res_ids), len(res_ids) + len(fresh))))
        self._free.extend([0.0] * len(fresh))
        self._err_queues.extend([list(errors[r]) if r in errors else None for r in fresh])
        durations = [t.duration_ms for t in new]
        if self._slowdowns:
            slow = self._slowdowns.get
            durations = [d * slow(r, 1.0) for d, r in zip(durations, res_names)]
        if self._deaths:
            death = self._deaths.get
            kill_at = [
                min([death(r, math.inf) for r in (name, *t.requires_alive)])
                for t, name in zip(new, res_names)
            ]
        else:
            kill_at = [math.inf] * len(new)
        self._tasks.extend(new)
        self._names.extend(names)
        index.update(local)
        self._res_of.extend(map(res_ids.__getitem__, res_names))
        self._durations.extend(durations)
        self._release.extend(release)
        self._deps_of.extend(deps_of)
        self._kill_at.extend(kill_at)
        dependants = self._dependants
        dependants.extend([] for _ in new)
        for i, deps in enumerate(deps_of, base):
            for d in deps:
                dependants[d].append(i)
        self._remaining.extend(remaining)
        self._starts.extend([0.0] * len(new))
        self._ends.extend([0.0] * len(new))
        self._scheduled.extend(bytes(len(new)))
        self._failed.extend(bytes(len(new)))
        self._ready.extend(roots)
        heapq.heapify(self._ready)

    def commit(self, until_ms: float) -> None:
        """Dispatch every ready task whose ready time is before ``until_ms``.

        What has been dispatched stays dispatched: later appends must keep
        the commit contract.  ``commit(math.inf)`` runs to completion.
        """
        if until_ms > self.committed_ms:
            self._advance(until_ms)
            self.committed_ms = until_ms

    def probe(self) -> "Simulation":
        """A copy of this simulation, run to completion.

        The copy shares the task tables, so read it before the next
        :meth:`add` to this simulation.
        """
        other = copy.copy(self)
        other._remaining = self._remaining.copy()
        other._starts = self._starts.copy()
        other._ends = self._ends.copy()
        other._scheduled = self._scheduled.copy()
        other._failed = self._failed.copy()
        other._free = self._free.copy()
        other._err_queues = [q.copy() if q else q for q in self._err_queues]
        other._ready = self._ready.copy()
        other._done_order = self._done_order.copy()
        other._failures = self._failures.copy()
        other._failure_of = self._failure_of.copy()
        other._attempts = self._attempts.copy()
        other._attempt_no = self._attempt_no.copy()
        other.commit(math.inf)
        return other

    def span(self, name: str) -> TaskSpan | None:
        """``name``'s span if it has been dispatched to completion."""
        i = self._index[name]
        if not self._scheduled[i]:
            return None
        task = self._tasks[i]
        return TaskSpan(name, task.resource, self._starts[i], self._ends[i], task.stage)

    def failure(self, name: str) -> TaskFailure | None:
        """``name``'s terminal failure, if it has failed."""
        return self._failure_of.get(self._index[name])

    def timeline(self, stages: tuple[Stage, ...] = ()) -> Timeline:
        """Run to completion and assemble the :class:`Timeline`.

        Raises ``ValueError`` naming the stuck tasks when some task neither
        completed nor failed (it sits on or behind a dependency cycle).
        """
        self.commit(math.inf)
        names, done_order, ends = self._names, self._done_order, self._ends
        failures, attempts = self._failures, self._attempts
        n = len(names)
        if len(done_order) + len(failures) != n:
            scheduled, failed = self._scheduled, self._failed
            stuck = sorted(
                names[i] for i in range(n) if not scheduled[i] and not failed[i]
            )
            raise ValueError(f"dependency cycle among tasks: {', '.join(stuck)}")

        # the string-keyed views in dispatch order (busy_ms sums in this
        # order); map/zip keep this O(n) pass at C speed
        done_ends = [ends[i] for i in done_order]
        total = max(
            (
                *done_ends,
                *(f.at_ms for f in failures),
                *(a.end_ms for a in attempts),
            ),
            default=0.0,
        )
        task_list = tuple(self._tasks)
        done_names = [names[i] for i in done_order]
        resources = [t.resource for t in task_list]
        stage_of = [t.stage for t in task_list]
        # _make hands zip's ready-made tuples straight to tuple.__new__,
        # skipping the per-span keyword-processing layer of TaskSpan(...)
        spans: dict[str, TaskSpan] = dict(
            zip(
                done_names,
                map(
                    TaskSpan._make,
                    zip(
                        done_names,
                        [resources[i] for i in done_order],
                        [self._starts[i] for i in done_order],
                        done_ends,
                        [stage_of[i] for i in done_order],
                    ),
                ),
            )
        )
        return Timeline(
            task_list, spans, total, stages, tuple(failures), tuple(attempts)
        )

    def _fail(self, i: int, at_ms: float, reason: str, start: float | None) -> None:
        """Record a terminal failure of task ``i`` and cascade it to all
        its dependants."""
        failed, scheduled = self._failed, self._scheduled
        stack: list[tuple[int, float, str, float | None]] = [(i, at_ms, reason, start)]
        while stack:
            ti, at, why, started = stack.pop()
            if failed[ti] or scheduled[ti]:
                continue
            failed[ti] = 1
            victim = self._tasks[ti]
            failure = TaskFailure(
                victim.name, victim.resource, at, why, started,
                self._attempt_no.get(ti, 1),
            )
            self._failures.append(failure)
            self._failure_of[ti] = failure
            stack.extend((child, at, "dep-failed", None) for child in self._dependants[ti])

    def _advance(self, until_ms: float) -> None:
        """The event loop, over ready times before ``until_ms``.

        A task pushed here has every dependency complete, and a failure
        cascades only to tasks with a dependency that never completes, so
        no popped task has failed.
        """
        res_of, durations, release = self._res_of, self._durations, self._release
        deps_of, kill_of, dependants = self._deps_of, self._kill_at, self._dependants
        remaining, ends, starts = self._remaining, self._ends, self._starts
        scheduled, free, err_queues = self._scheduled, self._free, self._err_queues
        ready, done_append = self._ready, self._done_order.append
        end_of = ends.__getitem__
        heappop, heappush = heapq.heappop, heapq.heappush
        INF = math.inf
        eps = TIME_EPS

        while ready:
            ready_time, i = heappop(ready)
            if ready_time >= until_ms:
                heappush(ready, (ready_time, i))
                break
            rid = res_of[i]
            res_free = free[rid]
            start = ready_time if ready_time >= res_free else res_free
            end = start + durations[i]

            # the hazard tests, for a task the fault plan can reach
            kill_at = kill_of[i]
            if kill_at != INF or err_queues[rid]:
                if kill_at <= start + eps:  # a needed resource is already dead
                    self._fail(i, kill_at, "resource-dead", None)
                    continue
                # earliest transfer-error event landing inside this attempt
                hit: TransferError | None = None
                queue = err_queues[rid]
                if queue:
                    for event in queue:
                        if event.at_ms >= end - eps:
                            break
                        if event.at_ms >= start - eps:
                            hit = event
                            break
                if hit is not None and hit.at_ms <= kill_at:
                    queue.remove(hit)  # type: ignore[union-attr]
                    free[rid] = hit.at_ms
                    k = self._attempt_no.get(i, 1)
                    if hit.transient and k <= self.policy.max_retries:
                        retry_at = hit.at_ms + self.policy.delay_ms(k)
                        task = self._tasks[i]
                        self._attempts.append(
                            TaskAttempt(task.name, task.resource, start, hit.at_ms, k, retry_at)
                        )
                        self._attempt_no[i] = k + 1
                        heappush(ready, (retry_at, i))
                    else:
                        self._fail(i, hit.at_ms, "transfer-error", start)
                    continue
                if kill_at < end - eps:  # the resource dies mid-task
                    free[rid] = kill_at
                    self._fail(i, kill_at, "killed", start)
                    continue

            free[rid] = end
            ends[i] = end
            starts[i] = start
            scheduled[i] = 1
            done_append(i)

            for child in dependants[i]:
                left = remaining[child] - 1
                remaining[child] = left
                if not left:
                    child_deps = deps_of[child]
                    # a sole dependency is the task that just finished
                    child_ready = (
                        end if len(child_deps) == 1 else max(map(end_of, child_deps))
                    )
                    rel = release[child]
                    heappush(ready, (rel if rel > child_ready else child_ready, child))


class TimelineBuilder:
    """Incremental task-graph construction with barrier stages.

    ``barrier_stage`` opens a named stage; every task ``add`` registers in
    it depends on *every* task of the previous non-empty stage — the
    phase-serial structure of the legacy timing model.  ``build`` runs the
    simulator, which rejects a duplicate task name (``ValueError``).
    """

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._stages: list[Stage] = []
        self._stage_tasks: list[str] = []
        self._prev_stage_tasks: tuple[str, ...] = ()
        self._stage_name: str | None = None

    def add(self, name: str, resource: Resource, duration_ms: float) -> None:
        """Register a task in the open stage, after the previous stage."""
        self._tasks.append(
            Task(name, resource, duration_ms, self._prev_stage_tasks, self._stage_name or "")
        )
        self._stage_tasks.append(name)

    def barrier_stage(self, name: str) -> None:
        """Close the current barrier stage and open a new one."""
        self._close_stage()
        self._stage_name = name

    def _close_stage(self) -> None:
        if self._stage_name is not None:
            self._stages.append(Stage(self._stage_name, tuple(self._stage_tasks)))
            if self._stage_tasks:
                self._prev_stage_tasks = tuple(self._stage_tasks)
        self._stage_tasks = []

    @property
    def tasks(self) -> list[Task]:
        """The tasks registered so far (submission order), a copy."""
        return list(self._tasks)

    def build(self) -> Timeline:
        self._close_stage()
        self._stage_name = None
        return simulate(self._tasks, tuple(self._stages))
