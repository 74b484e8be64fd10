"""Differential: the int-indexed ``simulate`` loop vs the frozen reference.

``repro.engine.timeline.simulate`` was rewritten around a ready-heap over
integer task ids; ``repro.engine._reference.reference_simulate`` preserves
the original dict-keyed loop verbatim.  These tests pin the rewrite to the
reference across seeded random DAGs — fault-free and under fault plans
with retry backoff — over the *whole* observable Timeline surface: span
insertion order, makespan, bindings, failures, attempts, per-resource
busy time, critical path, stage envelopes, rendering, and the audit
lookups.  A Chrome-trace export of both timelines must serialize to the
same bytes.

The resumable :class:`~repro.engine.timeline.Simulation` is held to the
same oracle: the seeded DAGs are replayed through it in random-sized
appends with commits in between, and every append that breaks the commit
contract must raise :class:`~repro.engine.timeline.AppendError` and leave
the simulation as it was.
"""

from __future__ import annotations

import dataclasses
import math
import random

from hypothesis import given, settings, strategies as st

import pytest

from repro.engine._reference import reference_simulate
from repro.engine.faults import (
    FaultPlan,
    GpuFailure,
    RetryPolicy,
    Straggler,
    TransferError,
)
from repro.engine.resources import GPU_COMPUTE, HOST_CPU, TRANSFER, Resource
from repro.engine.timeline import AppendError, Simulation, Stage, Task, simulate
from repro.observe import Tracer, record_timeline, to_chrome_json

NUM_GPUS = 4


def _resources() -> list[Resource]:
    gpus = [Resource(f"gpu{i}", GPU_COMPUTE, i) for i in range(NUM_GPUS)]
    links = [Resource(f"node{n}-link", TRANSFER, n) for n in range(2)]
    return gpus + links + [Resource("cpu", HOST_CPU, 0)]


def _random_tasks(n: int, seed: int) -> tuple[list[Task], tuple[Stage, ...]]:
    """A random DAG exercising stages, release times and liveness deps."""
    rng = random.Random(seed)
    resources = _resources()
    tasks = []
    for i in range(n):
        lo = max(0, i - 20)
        deps = (
            tuple({f"t{rng.randrange(lo, i)}" for _ in range(rng.randrange(0, 3))})
            if i
            else ()
        )
        duration = rng.choice([0.0, rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0)])
        requires = (
            (f"gpu{rng.randrange(NUM_GPUS)}",) if rng.random() < 0.15 else ()
        )
        tasks.append(
            Task(
                f"t{i}",
                resources[rng.randrange(len(resources))],
                duration,
                deps,
                stage=f"s{i * 3 // max(n, 1)}",
                not_before_ms=rng.choice([0.0, 0.0, rng.uniform(0.0, 5.0)]),
                requires_alive=requires,
            )
        )
    stages = tuple(
        Stage(f"s{k}", tuple(t.name for t in tasks if t.stage == f"s{k}"))
        for k in range(3)
    )
    return tasks, stages


def _random_faults(seed: int) -> tuple[FaultPlan, RetryPolicy]:
    """A fault plan with deduped GPU events plus transfer errors."""
    rng = random.Random(f"faults-{seed}")
    events: list = []
    dead, slow = set(), set()
    for _ in range(rng.randrange(1, 4)):
        kind = rng.randrange(3)
        gpu = rng.randrange(NUM_GPUS)
        if kind == 0 and gpu not in dead:
            dead.add(gpu)
            events.append(GpuFailure(at_ms=rng.uniform(0.0, 20.0), gpu_id=gpu))
        elif kind == 1 and gpu not in slow:
            slow.add(gpu)
            events.append(Straggler(gpu_id=gpu, slowdown=rng.uniform(1.1, 4.0)))
        else:
            events.append(
                TransferError(
                    node=rng.randrange(2),
                    at_ms=rng.uniform(0.0, 30.0),
                    transient=rng.random() < 0.7,
                )
            )
    retry = RetryPolicy(
        max_retries=rng.randrange(0, 4), backoff_base_ms=rng.choice([0.25, 0.5, 2.0])
    )
    return FaultPlan(tuple(events)), retry


def _assert_identical(got, want) -> None:
    """Every observable of the two timelines, including iteration order."""
    assert list(got.spans.items()) == list(want.spans.items())
    assert got.total_ms == want.total_ms
    assert got.binding == want.binding
    assert got.failures == want.failures
    assert got.attempts == want.attempts
    assert got.ok == want.ok
    assert got.busy_ms() == want.busy_ms()
    assert got.critical_path() == want.critical_path()
    assert got.stage_spans() == want.stage_spans()
    assert got.render() == want.render()
    for task in want.tasks:
        assert got.failure_for(task.name) == want.failure_for(task.name)
        assert got.attempts_for(task.name) == want.attempts_for(task.name)


@pytest.mark.parametrize("seed", range(10))
def test_fault_free_random_dags(seed):
    tasks, stages = _random_tasks(120, seed)
    _assert_identical(simulate(tasks, stages), reference_simulate(tasks, stages))


@pytest.mark.parametrize("seed", range(10))
def test_faulted_random_dags(seed):
    tasks, stages = _random_tasks(120, seed)
    plan, retry = _random_faults(seed)
    _assert_identical(
        simulate(tasks, stages, faults=plan, retry=retry),
        reference_simulate(tasks, stages, faults=plan, retry=retry),
    )


def test_retry_backoff_chain():
    """A serial transfer chain hammered by transient errors retries the
    same way through both loops (attempt numbering and backoff release)."""
    link = Resource("node0-link", TRANSFER, 0)
    tasks = [Task(f"t{i}", link, 1.0, (f"t{i - 1}",) if i else ()) for i in range(40)]
    rng = random.Random(3)
    plan = FaultPlan(
        tuple(TransferError(node=0, at_ms=rng.uniform(0, 40.0)) for _ in range(10))
    )
    retry = RetryPolicy(max_retries=2, backoff_base_ms=0.5)
    got = simulate(tasks, faults=plan, retry=retry)
    want = reference_simulate(tasks, faults=plan, retry=retry)
    assert got.attempts, "fault plan failed to trigger any retries"
    _assert_identical(got, want)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    faulted=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_random_dags(seed, n, faulted):
    tasks, stages = _random_tasks(n, seed)
    if faulted:
        plan, retry = _random_faults(seed)
    else:
        plan, retry = None, None
    _assert_identical(
        simulate(tasks, stages, faults=plan, retry=retry),
        reference_simulate(tasks, stages, faults=plan, retry=retry),
    )


def test_tracer_matches_reference_chrome_trace():
    """The traces transcribed from both loops serialize identically."""
    tasks, stages = _random_tasks(80, seed=21)
    plan, retry = _random_faults(21)

    new_tracer = Tracer(label="simulate")
    record_timeline(new_tracer, simulate(tasks, stages, faults=plan, retry=retry))

    ref_tracer = Tracer(label="simulate")
    record_timeline(
        ref_tracer, reference_simulate(tasks, stages, faults=plan, retry=retry)
    )

    assert to_chrome_json(new_tracer, indent=2) == to_chrome_json(ref_tracer, indent=2)


def test_empty_and_single_task():
    _assert_identical(simulate([]), reference_simulate([]))
    one = [Task("only", Resource("gpu0", GPU_COMPUTE, 0), 1.5)]
    _assert_identical(simulate(one), reference_simulate(one))


# -- the resumable simulation -------------------------------------------------


def _streamed(tasks: list[Task], step_ms: float) -> list[Task]:
    """The same DAG with release times rising along submission order, the
    shape a serving loop appends: late tasks cannot start early."""
    return [
        dataclasses.replace(t, not_before_ms=t.not_before_ms + i * step_ms)
        for i, t in enumerate(tasks)
    ]


def _append_limits(tasks: list[Task], want) -> list[float]:
    """Per task, the latest instant a commit may reach before it is added.

    A task whose dependencies all complete in the one-shot run may join
    while the commit is at most its first ready time; one with a failed
    dependency, while the commit is at most the ready time of the dispatch
    that settled that dependency.
    """
    index = {t.name: i for i, t in enumerate(tasks)}
    settled: list[float] = []
    limits: list[float] = []
    for i, task in enumerate(tasks):
        deps = [index[d] for d in dict.fromkeys(task.deps)]
        lost = [d for d in deps if want.failure_for(tasks[d].name) is not None]
        ready = max(
            [task.not_before_ms]
            + [want.spans[tasks[d].name].end_ms for d in deps if d not in lost]
        )
        failure = want.failure_for(task.name)
        attempts = want.attempts_for(task.name)
        if failure is not None and failure.reason == "dep-failed":
            settled.append(min(settled[d] for d in lost))
        else:
            settled.append(attempts[-1].retry_at_ms if attempts else ready)
        limits.append(min(settled[d] for d in lost) if lost else ready)
    return limits


def _resume(tasks, stages, plan, retry, seed, reckless=False):
    """Replay ``tasks`` through :class:`Simulation` in random-sized appends.

    Between appends the simulation commits at a random instant.  By
    default the instant keeps the append contract for every later task;
    ``reckless`` draws it past that bound too, and then an append whose
    contract is broken must raise :class:`AppendError` — after which the
    replay starts again from an empty simulation, as the server does.
    Returns the final timeline and how many appends were refused.
    """
    want = simulate(tasks, stages, faults=plan, retry=retry)
    limits = _append_limits(tasks, want)
    rng = random.Random(f"resume-{seed}")
    sim = Simulation(plan, retry)
    refused = 0
    at = 0
    while at < len(tasks):
        chunk = tasks[at:at + rng.randint(1, 12)]
        breaks = min(limits[at:at + len(chunk)]) < sim.committed_ms
        try:
            sim.add(chunk)
        except AppendError:
            assert breaks, "a contract-keeping append was refused"
            refused += 1
            # the refused append left the simulation untouched
            _assert_identical(
                sim.probe().timeline(stages),
                simulate(tasks[:at], stages, faults=plan, retry=retry),
            )
            sim = Simulation(plan, retry)
            sim.add(tasks[:at + len(chunk)])
        else:
            assert not breaks, "an append that breaks the contract was accepted"
        at += len(chunk)
        _assert_identical(
            sim.probe().timeline(stages),
            simulate(tasks[:at], stages, faults=plan, retry=retry),
        )
        bound = min(limits[at:], default=math.inf)
        if bound == math.inf or reckless:
            bound = max(want.total_ms, sim.committed_ms) + 1.0
        if bound > sim.committed_ms:
            sim.commit(rng.choice([bound, rng.uniform(max(sim.committed_ms, 0.0), bound)]))
    return sim.timeline(stages), refused


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_resumed_random_dags(seed, streamed):
    tasks, stages = _random_tasks(120, seed)
    if streamed:
        tasks = _streamed(tasks, 0.2)
    plan, retry = _random_faults(seed)
    got, refused = _resume(tasks, stages, plan, retry, seed)
    assert refused == 0
    _assert_identical(got, simulate(tasks, stages, faults=plan, retry=retry))
    _assert_identical(got, reference_simulate(tasks, stages, faults=plan, retry=retry))


@pytest.mark.parametrize("seed", range(10))
def test_reckless_commits_restart_to_the_same_timeline(seed):
    tasks, stages = _random_tasks(120, seed)
    tasks = _streamed(tasks, 0.2)
    plan, retry = _random_faults(seed)
    got, _ = _resume(tasks, stages, plan, retry, seed, reckless=True)
    _assert_identical(got, reference_simulate(tasks, stages, faults=plan, retry=retry))


def test_reckless_commits_do_get_refused():
    refused = 0
    for seed in range(10):
        tasks, stages = _random_tasks(120, seed)
        plan, retry = _random_faults(seed)
        refused += _resume(_streamed(tasks, 0.2), stages, plan, retry, seed, reckless=True)[1]
    assert refused > 0


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=60),
    reckless=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_resumed_dags(seed, n, reckless):
    tasks, stages = _random_tasks(n, seed)
    tasks = _streamed(tasks, seed % 3 * 0.1)
    plan, retry = _random_faults(seed)
    got, refused = _resume(tasks, stages, plan, retry, seed, reckless=reckless)
    assert reckless or refused == 0
    _assert_identical(got, reference_simulate(tasks, stages, faults=plan, retry=retry))


def test_resumed_chrome_trace_matches_reference():
    tasks, stages = _random_tasks(80, seed=21)
    tasks = _streamed(tasks, 0.2)
    plan, retry = _random_faults(21)
    got, _ = _resume(tasks, stages, plan, retry, seed=21)

    resumed = Tracer(label="simulate")
    record_timeline(resumed, got)
    ref_tracer = Tracer(label="simulate")
    record_timeline(
        ref_tracer, reference_simulate(tasks, stages, faults=plan, retry=retry)
    )
    assert to_chrome_json(resumed, indent=2) == to_chrome_json(ref_tracer, indent=2)


GPU0 = Resource("gpu0", GPU_COMPUTE, 0)
GPU1 = Resource("gpu1", GPU_COMPUTE, 1)
CPU = Resource("cpu", HOST_CPU, 0)


def test_append_released_before_the_commit_is_refused():
    plan = FaultPlan.of(Straggler(1, 2.0))
    head = [Task("a", GPU0, 2.0), Task("b", CPU, 1.0, deps=("a",))]
    sim = Simulation(plan)
    sim.add(head)
    sim.commit(2.5)
    early = Task("early", GPU1, 1.0, not_before_ms=1.0)
    with pytest.raises(AppendError, match="'early' is ready at 1.0 ms"):
        sim.add([early])
    # ready through a dependency that finished before the commit
    with pytest.raises(AppendError, match="'after-a'"):
        sim.add([Task("after-a", GPU1, 1.0, deps=("a",))])
    late = [Task("late", GPU1, 1.0, deps=("a",), not_before_ms=2.5)]
    sim.add(late)
    _assert_identical(sim.timeline(), reference_simulate(head + late, faults=plan))
    restarted = Simulation(plan)
    restarted.add(head + [early] + late)
    _assert_identical(
        restarted.timeline(), reference_simulate(head + [early] + late, faults=plan)
    )


def test_append_depending_on_a_committed_failure_is_refused():
    plan = FaultPlan.of(GpuFailure(at_ms=1.0, gpu_id=0))
    head = [Task("doomed", GPU0, 3.0), Task("other", GPU1, 1.0)]
    sim = Simulation(plan)
    sim.add(head)
    sim.commit(5.0)
    assert sim.failure("doomed").reason == "killed"
    child = Task("child", CPU, 1.0, deps=("doomed",), not_before_ms=6.0)
    with pytest.raises(AppendError, match="'doomed', which failed"):
        sim.add([child])
    _assert_identical(sim.timeline(), reference_simulate(head, faults=plan))
    restarted = Simulation(plan)
    restarted.add(head + [child])
    got = restarted.timeline()
    assert got.failure_for("child").reason == "dep-failed"
    _assert_identical(got, reference_simulate(head + [child], faults=plan))


def test_append_rejects_duplicates_and_unknown_deps_atomically():
    sim = Simulation(FaultPlan())
    sim.add([Task("a", GPU0, 1.0)])
    with pytest.raises(ValueError, match="duplicate task name 'a'"):
        sim.add([Task("b", GPU0, 1.0), Task("a", GPU1, 1.0)])
    with pytest.raises(ValueError, match="'c' depends on unknown 'ghost'"):
        sim.add([Task("c", GPU0, 1.0, deps=("ghost",))])
    # a dependency may name a task later in the same append
    tail = [Task("d", CPU, 1.0, deps=("e",)), Task("e", GPU1, 1.0, deps=("a",))]
    sim.add(tail)
    _assert_identical(
        sim.timeline(), reference_simulate([Task("a", GPU0, 1.0)] + tail, faults=FaultPlan())
    )


def test_probe_leaves_the_simulation_resumable():
    tasks, stages = _random_tasks(60, seed=5)
    tasks = _streamed(tasks, 0.3)
    plan, retry = _random_faults(5)
    sim = Simulation(plan, retry)
    sim.add(tasks[:30])
    first = sim.probe().timeline(stages)
    again = sim.probe().timeline(stages)
    _assert_identical(first, again)
    sim.add(tasks[30:])
    _assert_identical(
        sim.timeline(stages), reference_simulate(tasks, stages, faults=plan, retry=retry)
    )
