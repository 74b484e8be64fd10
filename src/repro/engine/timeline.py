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

The faulted loop is :class:`Simulation`, which can also be resumed: tasks
are appended, a prefix of the dispatch order is committed, and a copy is
probed to completion — with every timeline equal to one-shot ``simulate``
of the same tasks as long as appends keep its commit contract.
"""

from __future__ import annotations

import copy
import heapq
import math
from collections import ChainMap
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple

from repro.engine.faults import FaultPlan, RetryPolicy, TransferError
from repro.engine.resources import Resource

if TYPE_CHECKING:
    from repro.observe.tracer import Tracer

#: scheduling/verification tolerance for time comparisons (milliseconds)
TIME_EPS = 1e-9


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
    #: task name -> the predecessor (dependency or resource queue) that
    #: determined its start time; roots map to None
    binding: dict[str, str | None] = field(default_factory=dict)
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

    @property
    def ok(self) -> bool:
        """True when every task completed (no fault losses)."""
        return not self.failures

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

        Follows each task's *binding* predecessor — the dependency or
        resource-queue neighbour whose completion gated its start — from
        the last-finishing task back to a root.
        """
        if not self.spans:
            return []
        last = max(self.spans.values(), key=lambda s: (s.end_ms, s.task)).task
        path = [last]
        seen = {last}
        while True:
            prev = self.binding.get(path[-1])
            # a retried task can bind to a successor that bound to its own
            # failed attempt, closing a loop; stop at the first revisit
            if prev is None or prev in seen:
                break
            path.append(prev)
            seen.add(prev)
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

    def render(self, width: int = 60) -> str:
        """ASCII Gantt chart, one row per resource."""
        if not self.spans:
            return "(empty timeline)"
        end = self.total_ms or 1.0
        by_resource: dict[str, list[TaskSpan]] = {}
        for span in sorted(self.spans.values(), key=lambda s: (s.start_ms, s.task)):
            by_resource.setdefault(span.resource.name, []).append(span)
        label_w = max(len(name) for name in by_resource)
        lines = [f"timeline makespan {self.total_ms:.3f} ms"]
        for name in sorted(by_resource):
            row = [" "] * width
            for i, span in enumerate(by_resource[name]):
                lo = round(span.start_ms / end * width)
                hi = max(lo + 1, round(span.end_ms / end * width))
                mark = "#~=+*"[i % 5]
                for c in range(lo, min(hi, width)):
                    row[c] = mark
            lines.append(f"{name:>{label_w}} |{''.join(row)}")
        lines.append(" " * label_w + " +" + "-" * width)
        return "\n".join(lines)


def simulate(
    tasks: list[Task] | tuple[Task, ...],
    stages: tuple[Stage, ...] = (),
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    tracer: "Tracer | None" = None,
) -> Timeline:
    """Schedule ``tasks`` over their resources; deterministic event loop.

    With a :class:`~repro.engine.faults.FaultPlan`, the loop additionally
    kills tasks on dead resources, stretches straggler durations, and
    retries transient transfer errors under ``retry`` (defaults to
    ``RetryPolicy()``); the returned timeline then carries ``failures``
    and ``attempts`` alongside the completed spans.  That loop is the
    resumable :class:`Simulation`, run here in one go.

    With a :class:`~repro.observe.tracer.Tracer`, the finished timeline is
    transcribed onto it (one span per task, retries, fault instants) —
    after the event loop, so the scheduling path itself never pays for
    tracing; with ``tracer=None`` (the default) no tracing object of any
    kind is touched.

    The event loop works on integer task/resource ids with flat lists for
    every per-task quantity — string-keyed dictionaries appear only during
    validation and when the finished :class:`Timeline` is assembled.  The
    schedule it produces (spans, bindings, failures, attempts, makespan)
    is byte-for-byte the one the original dict-keyed loop computed; the
    differential tier pins this against
    :func:`repro.engine._reference.reference_simulate`.
    """
    if faults is not None:
        simulation = Simulation(faults, retry)
        simulation.add(tasks)
        return simulation.timeline(stages, tracer)

    task_list = tuple(tasks)
    n = len(task_list)
    names = [t.name for t in task_list]
    index: dict[str, int] = dict(zip(names, range(n)))
    if len(index) != n:
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise ValueError(f"duplicate task name {name!r}")
            seen.add(name)

    # -- int-indexed task tables (the hot loop never touches a Task) ------
    res_ids: dict[str, int] = {}
    # setdefault evaluates len() before the lookup, which is harmless: the
    # value is only stored (as the next fresh id) when the key is new
    res_of = [res_ids.setdefault(t.resource.name, len(res_ids)) for t in task_list]
    durations = [t.duration_ms for t in task_list]
    release = [t.not_before_ms for t in task_list]
    deps_of = _dep_ids(task_list, index)
    remaining = [len(deps) for deps in deps_of]
    dependants: list[list[int]] = [[] for _ in range(n)]
    for i, deps in enumerate(deps_of):
        for d in deps:
            dependants[d].append(i)

    #: (ready_time, submission index) — the dispatch priority
    ready: list[tuple[float, int]] = [
        (release[i], i) for i in range(n) if remaining[i] == 0
    ]
    heapq.heapify(ready)

    num_res = len(res_ids)
    free = [0.0] * num_res
    queue_tail = [-1] * num_res  # last task dispatched per resource (-1: none)
    ends = [0.0] * n
    starts = [0.0] * n
    done_order: list[int] = []  # dispatch order, for ordered Timeline assembly
    gate_of: list[int] = []  # parallel to done_order; -1 encodes None
    heappop, heappush = heapq.heappop, heapq.heappush
    done_append, gate_append = done_order.append, gate_of.append
    eps = TIME_EPS

    # fault-free fast loop: no task can fail, so the failure machinery
    # (failed bits, death/error scans) drops out of the per-dispatch cost.
    # Dependency ends are final by the time a task is pushed, so its
    # dependency-gate candidate (latest end, smallest index on ties) is
    # computed once at push time instead of rescanned at dispatch.
    gate_cand = [-1] * n
    gate_end = [0.0] * n
    while ready:
        ready_time, i = heappop(ready)
        rid = res_of[i]
        res_free = free[rid]
        start = ready_time if ready_time >= res_free else res_free
        end = start + durations[i]

        if gate_cand[i] >= 0 and gate_end[i] >= res_free - eps:
            gate = gate_cand[i]
        elif queue_tail[rid] >= 0 and res_free > ready_time - eps:
            gate = queue_tail[rid]
        else:
            gate = -1

        free[rid] = end
        queue_tail[rid] = i
        ends[i] = end
        starts[i] = start
        done_append(i)
        gate_append(gate)

        for child in dependants[i]:
            left = remaining[child] - 1
            remaining[child] = left
            if not left:
                child_deps = deps_of[child]
                if len(child_deps) == 1:
                    # the sole dependency is the task that just finished
                    latest, child_ready = i, end
                else:
                    latest = child_deps[0]
                    child_ready = ends[latest]
                    for d in child_deps[1:]:
                        d_end = ends[d]
                        if d_end > child_ready or (
                            d_end == child_ready and d < latest
                        ):
                            latest, child_ready = d, d_end
                gate_cand[child] = latest
                gate_end[child] = child_ready
                rel = release[child]
                if rel > child_ready:
                    child_ready = rel
                heappush(ready, (child_ready, child))

    return _assemble(
        task_list, names, stages, done_order, gate_of, starts, ends, bytearray(n),
        [], [], tracer,
    )


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


def _assemble(
    task_list: tuple[Task, ...],
    names: list[str],
    stages: tuple[Stage, ...],
    done_order: list[int],
    gate_of: list[int],
    starts: list[float],
    ends: list[float],
    failed: bytearray,
    failures: list[TaskFailure],
    attempts: list[TaskAttempt],
    tracer: "Tracer | None",
) -> Timeline:
    """The :class:`Timeline` of a finished event loop.

    Raises ``ValueError`` naming the stuck tasks when some task neither
    completed nor failed (it sits on or behind a dependency cycle).
    """
    n = len(task_list)
    if len(done_order) + len(failures) != n:
        done_set = set(done_order)
        stuck = sorted(
            names[i] for i in range(n) if i not in done_set and not failed[i]
        )
        raise ValueError(f"dependency cycle among tasks: {', '.join(stuck)}")

    total = max(
        (
            *(ends[i] for i in done_order),
            *(f.at_ms for f in failures),
            *(a.end_ms for a in attempts),
        ),
        default=0.0,
    )

    # assemble the string-keyed views in dispatch order, matching the
    # insertion order of the original loop (busy_ms sums in this order);
    # map/zip keep this O(n) pass at C speed
    done_names = [names[i] for i in done_order]
    binding: dict[str, str | None] = dict(
        zip(done_names, [names[g] if g >= 0 else None for g in gate_of])
    )
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
                    [starts[i] for i in done_order],
                    [ends[i] for i in done_order],
                    [stage_of[i] for i in done_order],
                ),
            ),
        )
    )

    timeline = Timeline(
        task_list, spans, total, stages, binding, tuple(failures), tuple(attempts)
    )
    if tracer is not None and tracer.enabled:
        from repro.observe.record import record_timeline

        record_timeline(tracer, timeline)
    return timeline


class AppendError(ValueError):
    """An append that would rewrite the committed part of a :class:`Simulation`.

    Raised when an appended task could become ready before the committed
    instant, or depends on a task that already failed there: a one-shot
    run of the whole task list would have dispatched that task (or
    recorded its failure) inside the committed prefix.  The simulation is
    left as it was; the caller starts again from an empty one.
    """


class Simulation:
    """The faulted event loop of :func:`simulate`, resumable.

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
    """

    def __init__(self, faults: FaultPlan, retry: RetryPolicy | None = None) -> None:
        self.policy = retry if retry is not None else RetryPolicy()
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
        self._durations: list[float] = []
        self._release: list[float] = []
        self._deps_of: list[tuple[int, ...]] = []
        #: resources (beyond the executing one) that must stay alive
        self._req_of: list[tuple[int, ...]] = []
        self._dependants: list[list[int]] = []
        # -- per resource, fixed once seen -------------------------------
        self._res_ids: dict[str, int] = {}
        self._death_at: list[float] = []
        self._slow: list[float] = []
        # -- loop state (what a probe copies) ----------------------------
        self._remaining: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._scheduled = bytearray()
        self._failed = bytearray()
        self._free: list[float] = []
        #: last task dispatched per resource (-1: none)
        self._queue_tail: list[int] = []
        #: per-resource consumable queues of transfer-error events (time order)
        self._err_queues: list[list[TransferError] | None] = []
        #: (ready_time, submission index) — the dispatch priority
        self._ready: list[tuple[float, int]] = []
        self._done_order: list[int] = []
        self._gate_of: list[int] = []  # parallel to done_order; -1 encodes None
        self._failures: list[TaskFailure] = []
        self._failure_of: dict[int, TaskFailure] = {}
        self._attempts: list[TaskAttempt] = []
        self._attempt_no: dict[int, int] = {}

    def _resource_id(self, name: str) -> int:
        rid = self._res_ids.get(name)
        if rid is None:
            rid = self._res_ids[name] = len(self._res_ids)
            self._death_at.append(self._deaths.get(name, math.inf))
            self._slow.append(self._slowdowns.get(name, 1.0))
            errors = self._errors.get(name)
            self._err_queues.append(list(errors) if errors else None)
            self._free.append(0.0)
            self._queue_tail.append(-1)
        return rid

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

        failed, scheduled, ends = self._failed, self._scheduled, self._ends
        remaining: list[int] = []
        roots: list[tuple[float, int]] = []
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
        self._tasks.extend(new)
        self._names.extend(names)
        index.update(local)
        self._res_of.extend([self._resource_id(t.resource.name) for t in new])
        self._req_of.extend(
            tuple(self._resource_id(r) for r in t.requires_alive)
            if t.requires_alive
            else ()
            for t in new
        )
        self._durations.extend(t.duration_ms for t in new)
        self._release.extend(t.not_before_ms for t in new)
        self._deps_of.extend(deps_of)
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
        other._queue_tail = self._queue_tail.copy()
        other._err_queues = [q.copy() if q else q for q in self._err_queues]
        other._ready = self._ready.copy()
        other._done_order = self._done_order.copy()
        other._gate_of = self._gate_of.copy()
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

    def timeline(
        self, stages: tuple[Stage, ...] = (), tracer: "Tracer | None" = None
    ) -> Timeline:
        """Run to completion and assemble the :class:`Timeline`."""
        self.commit(math.inf)
        return _assemble(
            tuple(self._tasks), self._names, stages, self._done_order,
            self._gate_of, self._starts, self._ends, self._failed,
            self._failures, self._attempts, tracer,
        )

    def _advance(self, until_ms: float) -> None:
        """The faulted event loop, over ready times before ``until_ms``."""
        task_list = self._tasks
        res_of, durations, release = self._res_of, self._durations, self._release
        deps_of, req_of, dependants = self._deps_of, self._req_of, self._dependants
        death_at, slow, err_queues = self._death_at, self._slow, self._err_queues
        remaining, ends, starts = self._remaining, self._ends, self._starts
        scheduled, failed = self._scheduled, self._failed
        free, queue_tail, ready = self._free, self._queue_tail, self._ready
        done_order, gate_of = self._done_order, self._gate_of
        failures, failure_of = self._failures, self._failure_of
        attempts, attempt_no = self._attempts, self._attempt_no
        policy = self.policy
        heappop, heappush = heapq.heappop, heapq.heappush
        INF = math.inf
        eps = TIME_EPS

        def fail_task(idx: int, at: float, reason: str, start: float | None) -> None:
            """Record a terminal failure and cascade it to all dependants."""
            stack: list[tuple[int, float, str, float | None]] = [(idx, at, reason, start)]
            while stack:
                ti, at_ms, why, started = stack.pop()
                if failed[ti] or scheduled[ti]:
                    continue
                failed[ti] = 1
                victim = task_list[ti]
                failure = TaskFailure(
                    victim.name,
                    victim.resource,
                    at_ms,
                    why,
                    started,
                    attempt_no.get(ti, 1),
                )
                failures.append(failure)
                failure_of[ti] = failure
                for child in dependants[ti]:
                    stack.append((child, at_ms, "dep-failed", None))

        while ready and ready[0][0] < until_ms:
            ready_time, i = heappop(ready)
            if failed[i]:
                continue
            rid = res_of[i]
            res_free = free[rid]
            start = ready_time if ready_time >= res_free else res_free
            task = task_list[i]
            duration = durations[i] * slow[rid]

            # fail-stop hazards: the executing resource plus co-required ones
            dead_at = INF
            if death_at[rid] <= start + eps:
                dead_at = death_at[rid]
            for r in req_of[i]:
                when = death_at[r]
                if when <= start + eps and when < dead_at:
                    dead_at = when
            if dead_at != INF:
                fail_task(i, dead_at, "resource-dead", None)
                continue
            kill_at = death_at[rid]
            for r in req_of[i]:
                if death_at[r] < kill_at:
                    kill_at = death_at[r]
            end = start + duration

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
                k = attempt_no.get(i, 1)
                free[rid] = hit.at_ms
                queue_tail[rid] = i
                if hit.transient and k <= policy.max_retries:
                    retry_at = hit.at_ms + policy.delay_ms(k)
                    attempts.append(
                        TaskAttempt(task.name, task.resource, start, hit.at_ms, k, retry_at)
                    )
                    attempt_no[i] = k + 1
                    heappush(ready, (retry_at, i))
                else:
                    fail_task(i, hit.at_ms, "transfer-error", start)
                continue

            if kill_at < end - eps:  # the resource dies mid-task
                free[rid] = kill_at
                queue_tail[rid] = i
                fail_task(i, kill_at, "killed", start)
                continue

            # what gated the start: the resource queue, or the latest dependency
            gate = -1
            deps = deps_of[i]
            if deps:
                latest = deps[0]
                latest_end = ends[latest]
                for d in deps[1:]:
                    d_end = ends[d]
                    if d_end > latest_end or (d_end == latest_end and d < latest):
                        latest, latest_end = d, d_end
                if latest_end >= res_free - eps:
                    gate = latest
            if gate < 0 and queue_tail[rid] >= 0 and res_free > ready_time - eps:
                gate = queue_tail[rid]

            free[rid] = end
            queue_tail[rid] = i
            ends[i] = end
            starts[i] = start
            scheduled[i] = 1
            done_order.append(i)
            gate_of.append(gate)

            for child in dependants[i]:
                remaining[child] -= 1
                if remaining[child] == 0 and not failed[child]:
                    child_deps = deps_of[child]
                    child_ready = ends[child_deps[0]]
                    for d in child_deps[1:]:
                        d_end = ends[d]
                        if d_end > child_ready:
                            child_ready = d_end
                    if release[child] > child_ready:
                        child_ready = release[child]
                    heappush(ready, (child_ready, child))


class TimelineBuilder:
    """Incremental task-graph construction with barrier-stage support.

    ``add`` registers one task; ``barrier_stage`` opens a named stage whose
    tasks all depend on *every* task of the previous barrier stage — the
    phase-serial structure of the legacy timing model.  ``build`` runs the
    simulator.
    """

    def __init__(self) -> None:
        self._tasks: list[Task] = []
        self._stages: list[Stage] = []
        self._stage_tasks: list[str] = []
        self._prev_stage_tasks: tuple[str, ...] = ()
        self._stage_name: str | None = None

    def add(
        self,
        name: str,
        resource: Resource,
        duration_ms: float,
        deps: tuple[str, ...] = (),
        stage: str | None = None,
        not_before_ms: float = 0.0,
        requires_alive: tuple[str, ...] = (),
    ) -> str:
        """Register a task; inside a barrier stage, barrier deps are added."""
        label = stage if stage is not None else (self._stage_name or "")
        all_deps = deps
        if self._stage_name is not None and stage is None:
            all_deps = tuple(dict.fromkeys(deps + self._prev_stage_tasks))
        self._tasks.append(
            Task(name, resource, duration_ms, all_deps, label, not_before_ms, requires_alive)
        )
        if self._stage_name is not None and stage is None:
            self._stage_tasks.append(name)
        return name

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

    def build(
        self,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        tracer: "Tracer | None" = None,
    ) -> Timeline:
        self._close_stage()
        self._stage_name = None
        # pre-flight model check (repro.analyze): reject cycles, unknown
        # deps, and in-order-stream deadlocks before any partial scheduling
        from repro.analyze.modelcheck import check_plan

        check_plan(self._tasks, label="<timeline-builder plan>")
        return simulate(self._tasks, tuple(self._stages), faults, retry, tracer)
