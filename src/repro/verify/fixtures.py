"""Injected-fault fixtures: artifacts each checker must reject.

A verifier that has never seen a violation is itself unverified.  Each
fixture here manufactures one specific, realistic fault — the kind a
regression in the producing layer would introduce — and the test suite
(and ``python -m repro.verify --inject-fault``) asserts the matching
checker rejects it with a diagnostic naming the offending op or address.

* ``register-peak`` — a schedule whose producer under-reports its register
  peak (a broken scheduler DP would do exactly this);
* ``use-before-reload`` — a spill plan missing one reload, so an op
  consumes a value that is still in shared memory (a broken Belady victim
  policy or an off-by-one in the reload placement);
* ``scatter-race`` — the naive scatter with its bucket-counter atomic
  replaced by a plain read-modify-write (a missed ``atomicAdd`` in a new
  scatter variant);
* ``timeline-overlap`` — an engine schedule whose CPU resource runs two
  bucket-reduces at once and whose makespan claim hides the second one (a
  broken resource queue in a new timeline mode would produce exactly this);
* ``post-mortem-schedule`` — a recovered timeline that keeps scheduling a
  task on a GPU after its fail-stop time (a re-planner that forgot to
  remove the dead GPU from the survivor set);
* ``backoff-violation`` — a retried transfer whose retry fires before the
  exponential backoff allows (a broken retry queue or an attempt counter
  stuck at 1);
* ``serve-before-arrival`` — a serving run whose timeline starts a
  request's GPU stage before the request arrived AND executes a request
  the admission controller shed (a batcher reading the trace instead of
  the queue would produce exactly this);
* ``trace-drift`` — a trace whose recorder stretched one span past its
  scheduled interval, so busy time and makespan no longer reconcile with
  the engine timeline (a recorder applying a unit conversion twice would
  produce exactly this);
* ``determinism-lint`` — source with an unseeded RNG, a wall-clock read,
  and a hash-ordered set comprehension feeding an exported list (the
  exact hygiene regressions a hurried new exporter would introduce);
* ``unit-mixing`` — source adding a ``_ms`` quantity to a ``_bytes``
  quantity (a cost model summing a latency and a payload size);
* ``interval-overflow`` — the PADD DAG abstractly interpreted with a
  modulus wider than its claimed limb allocation, so the Montgomery
  reduction sum escapes ``2pR`` (a curve registered with the wrong limb
  count would do exactly this);
* ``plan-deadlock`` — a task emission whose cross-stream dependencies
  deadlock under strict in-order CUDA streams even though the
  readiness-FIFO simulator would happily reorder around them (a batcher
  submitting out of topological order).
* ``cluster-double-serve`` — a cluster run whose fleet served one request
  on two nodes at once: a real 2-node run with one node's record replayed
  into the other node's result (a router retrying a dispatch it wrongly
  believed lost — or a failover that forgot the original node survived —
  would produce exactly this);
* ``forged-result`` — a Byzantine execution whose audit trail was doctored
  to launder the cheater's chunk: the rejected verdict rewritten to
  ``accepted`` and the consumed-slot map pointed at the forged delivery
  (an orchestrator consuming results before their response checks — or a
  cheating dispatcher — would produce exactly this).
"""

from __future__ import annotations

from repro.analyze.finding import Finding
from repro.engine.faults import FaultPlan, GpuFailure, RetryPolicy, TransferError
from repro.engine.resources import GPU_COMPUTE, HOST_CPU, TRANSFER, Resource
from repro.engine.timeline import Task, TaskAttempt, TaskSpan, Timeline, simulate
from repro.kernels.dag import build_pacc_dag
from repro.kernels.scheduler import find_optimal_schedule
from repro.kernels.spill import SpillPlan, plan_spills
from repro.verify.faultcheck import FaultCheckResult, verify_fault_timeline
from repro.verify.races import RaceCheckResult, detect_races, trace_naive_scatter
from repro.verify.report import VerificationReport
from repro.verify.schedule import ScheduleCheckResult, verify_schedule
from repro.verify.spillcheck import SpillCheckResult, verify_spill_plan
from repro.verify.timelinecheck import TimelineCheckResult, verify_timeline


def broken_schedule_check() -> ScheduleCheckResult:
    """A schedule claiming a register peak below what it actually reaches.

    The PACC written order peaks at 9 live big integers; a producer
    claiming the optimal order's 7 for it must be caught.
    """
    dag = build_pacc_dag()
    return verify_schedule(
        dag,
        order=None,  # the written order, which peaks at 9
        claimed_peak=7,
        subject="PACC (written order, claimed peak 7)",
    )


def broken_spill_check() -> SpillCheckResult:
    """A spill plan with one reload deleted: use before reload.

    Plans PACC at the paper's budget of 5, then drops the first reload so
    a later op consumes the still-spilled value.
    """
    dag = build_pacc_dag()
    order = list(find_optimal_schedule(dag).order)
    plan = plan_spills(dag, order, register_budget=5)
    moves = list(plan.moves)
    victim = next(i for i, (_, kind, _v) in enumerate(moves) if kind == "reload")
    del moves[victim]
    broken = SpillPlan(
        register_budget=plan.register_budget,
        transfers=plan.transfers - 1,
        peak_shm_bigints=plan.peak_shm_bigints,
        peak_registers=plan.peak_registers,
        moves=moves,
    )
    return verify_spill_plan(
        dag, order, broken, subject="PACC spill@5 (reload deleted)"
    )


def broken_scatter_check() -> RaceCheckResult:
    """The naive scatter with plain RMWs on the shared bucket counters."""
    digits = [1 + (i % 3) for i in range(96)]
    trace = trace_naive_scatter(digits, num_buckets=4, use_atomics=False)
    return detect_races(trace, subject="naive scatter without atomics")


def broken_timeline_check() -> TimelineCheckResult:
    """An engine schedule with a double-booked CPU and a stale makespan.

    Two MSMs' bucket-reduces run concurrently on the one host CPU —
    impossible on a serial resource — and the reduce of the second MSM
    starts before its own GPU stage has finished; the claimed makespan
    also ignores the late finisher.
    """
    gpu = Resource("gpu", GPU_COMPUTE)
    cpu = Resource("cpu", HOST_CPU)
    tasks = (
        Task("msm0:gpu", gpu, 4.0),
        Task("msm1:gpu", gpu, 4.0),
        Task("msm0:reduce", cpu, 3.0, deps=("msm0:gpu",)),
        Task("msm1:reduce", cpu, 3.0, deps=("msm1:gpu",)),
    )
    spans = {
        "msm0:gpu": TaskSpan("msm0:gpu", gpu, 0.0, 4.0),
        "msm1:gpu": TaskSpan("msm1:gpu", gpu, 4.0, 8.0),
        "msm0:reduce": TaskSpan("msm0:reduce", cpu, 4.0, 7.0),
        # overlaps msm0:reduce on the CPU and precedes its own dependency
        "msm1:reduce": TaskSpan("msm1:reduce", cpu, 5.0, 8.0),
    }
    broken = Timeline(tasks=tasks, spans=spans, total_ms=7.0)
    return verify_timeline(broken, subject="batch of 2 MSMs (double-booked CPU)")


def broken_recovery_check() -> FaultCheckResult:
    """A recovered schedule that still uses a GPU after it died.

    GPU 0 fail-stops at t=5 but the "recovered" timeline schedules its
    round-1 bucket-sum on it at t=6 — the survivor set was never pruned.
    """
    gpu0 = Resource("gpu0", GPU_COMPUTE, 0)
    gpu1 = Resource("gpu1", GPU_COMPUTE, 1)
    tasks = (
        Task("msm:r0:sum:g0", gpu0, 3.0),
        Task("msm:r0:sum:g1", gpu1, 3.0),
        Task("msm:r1:sum:g0", gpu0, 3.0),
    )
    spans = {
        "msm:r0:sum:g0": TaskSpan("msm:r0:sum:g0", gpu0, 0.0, 3.0),
        "msm:r0:sum:g1": TaskSpan("msm:r0:sum:g1", gpu1, 0.0, 3.0),
        # scheduled on gpu0 a full millisecond after its death at t=5
        "msm:r1:sum:g0": TaskSpan("msm:r1:sum:g0", gpu0, 6.0, 9.0),
    }
    broken = Timeline(tasks=tasks, spans=spans, total_ms=9.0)
    return verify_fault_timeline(
        broken,
        FaultPlan.of(GpuFailure(5.0, 0)),
        subject="recovery onto a dead GPU",
    )


def broken_backoff_check() -> FaultCheckResult:
    """A retried transfer that restarts before its backoff window closes.

    The transfer fails at t=2 under a 1 ms base backoff, so the retry may
    start no earlier than t=3 — but the broken queue re-issues it at 2.1.
    """
    link = Resource("node0-link", TRANSFER, 0)
    tasks = (Task("msm:r0:transfer:g0", link, 1.0),)
    spans = {
        "msm:r0:transfer:g0": TaskSpan("msm:r0:transfer:g0", link, 2.1, 3.1),
    }
    attempts = (
        TaskAttempt("msm:r0:transfer:g0", link, 1.0, 2.0, attempt=1, retry_at_ms=2.1),
    )
    broken = Timeline(tasks=tasks, spans=spans, total_ms=3.1, attempts=attempts)
    return verify_fault_timeline(
        broken,
        FaultPlan.of(TransferError(0, 2.0)),
        retry=RetryPolicy(max_retries=3, backoff_base_ms=1.0),
        subject="retry before backoff",
    )


def broken_serving_check() -> "ServeCheckResult":
    """A serving run that executes early and executes the shed.

    Request 0 arrives at t=5 but its GPU stage is scheduled at t=3 — the
    batcher consumed the trace instead of waiting for the arrival — and
    request 1, shed as queue-full, still got its tasks onto the timeline.
    """
    from repro.curves.params import curve_by_name
    from repro.serve.admission import SHED_QUEUE_FULL, ShedEvent
    from repro.serve.metrics import RequestRecord
    from repro.serve.queue import ProofRequest
    from repro.verify.servecheck import ServeCheckResult, verify_serving

    curve = curve_by_name("BLS12-381")
    requests = [
        ProofRequest(0, curve, 1 << 12, arrival_ms=5.0),
        ProofRequest(1, curve, 1 << 12, arrival_ms=5.5),
    ]
    gpu = Resource("gpu0", GPU_COMPUTE, 0)
    cpu = Resource("cpu", HOST_CPU)
    tasks = (
        Task("req0.a0:gpu0", gpu, 2.0),
        Task("req0.a0:reduce", cpu, 1.0, deps=("req0.a0:gpu0",)),
        Task("req1.a0:gpu0", gpu, 2.0),
        Task("req1.a0:reduce", cpu, 1.0, deps=("req1.a0:gpu0",)),
    )
    spans = {
        # starts two milliseconds before the request arrives
        "req0.a0:gpu0": TaskSpan("req0.a0:gpu0", gpu, 3.0, 5.0),
        "req0.a0:reduce": TaskSpan("req0.a0:reduce", cpu, 5.0, 6.0),
        # the shed request executes anyway
        "req1.a0:gpu0": TaskSpan("req1.a0:gpu0", gpu, 6.0, 8.0),
        "req1.a0:reduce": TaskSpan("req1.a0:reduce", cpu, 8.0, 9.0),
    }
    timeline = Timeline(tasks=tasks, spans=spans, total_ms=9.0)
    records = [
        RequestRecord(
            req_id=0, label="req", n=1 << 12, arrival_ms=5.0, formed_ms=5.0,
            admit_ms=5.0, start_ms=3.0, complete_ms=6.0, batch_id=0, group=0,
        )
    ]
    shed = [ShedEvent(requests[1], 5.5, SHED_QUEUE_FULL)]
    return verify_serving(
        requests, records, shed, timeline,
        subject="serving run (pre-arrival start, shed executed)",
    )


def broken_trace_check() -> "ObserveCheckResult":
    """A transcription that drifted: one span stretched past its schedule.

    The trace of a two-GPU timeline has gpu1's bucket-sum span silently
    lengthened by half a millisecond, so its interval, the resource's
    busy time, and the trace makespan all disagree with the engine.
    """
    from repro.observe import Span, Tracer, record_timeline
    from repro.verify.observecheck import ObserveCheckResult, verify_trace_against_timeline

    gpu0 = Resource("gpu0", GPU_COMPUTE, 0)
    gpu1 = Resource("gpu1", GPU_COMPUTE, 1)
    timeline = simulate(
        (
            Task("msm:scatter:g0", gpu0, 2.0),
            Task("msm:scatter:g1", gpu1, 2.0),
            Task("msm:sum:g1", gpu1, 3.0, deps=("msm:scatter:g1",)),
        )
    )
    trace = Tracer("drifted")
    record_timeline(trace, timeline)
    victim = next(i for i, s in enumerate(trace.spans) if s.name == "msm:sum:g1")
    s = trace.spans[victim]
    # the drift: +0.5 ms appended to the recorded end
    trace.spans[victim] = Span(s.name, s.track, s.start_ms, s.end_ms + 0.5, s.cat, dict(s.args))
    return verify_trace_against_timeline(
        trace, timeline, subject="trace with a stretched span"
    )


def broken_determinism_check() -> list[Finding]:
    """Source with the three classic determinism regressions.

    An unseeded ``random.random()``, a ``time.time()`` timestamp, and a
    set comprehension iterated into an exported list without ``sorted``
    — each must surface as its own finding.
    """
    import textwrap

    from repro.analyze import analyze_source

    source = textwrap.dedent(
        """
        import random
        import time

        def export_rows(tags):
            noise = random.random()
            stamp = time.time()
            seen = {t.strip() for t in tags}
            return [(t, noise, stamp) for t in seen]
        """
    )
    return analyze_source(
        source, path="<unseeded-exporter>", families=("determinism",)
    )


def broken_units_check() -> list[Finding]:
    """Source that adds a millisecond quantity to a byte count."""
    import textwrap

    from repro.analyze import analyze_source

    source = textwrap.dedent(
        """
        def transfer_budget(latency_ms, payload_bytes):
            total_ms = latency_ms + payload_bytes
            return total_ms
        """
    )
    return analyze_source(source, path="<mixed-cost-model>", families=("units",))


def broken_interval_check() -> list[Finding]:
    """The PADD DAG interpreted with a modulus wider than its limbs.

    BLS12-381's 381-bit ``p`` squeezed into an 8-limb (256-bit)
    Montgomery pipeline: ``R = 2^256 < p``, so the reduction sum
    ``t = c + m*n`` escapes ``2pR`` and one conditional subtraction can
    no longer bound ``u = t/R`` — the interpreter must refuse the claim.
    """
    from types import SimpleNamespace

    from repro.analyze.intervals import interpret_dag
    from repro.curves.params import curve_by_name
    from repro.kernels.dag import build_padd_dag

    real = curve_by_name("BLS12-381")
    truncated = SimpleNamespace(
        name="BLS12-381/8-limb", p=real.p, num_limbs=8
    )
    return interpret_dag(build_padd_dag(), truncated, label="<PADD @ truncated R>")


def broken_plan_check() -> list[Finding]:
    """A cross-stream emission that only in-order streams deadlock on.

    Each GPU stream's first-submitted task depends on the *other*
    stream's second-submitted task: the dependency graph is acyclic, so
    the readiness-FIFO simulator resolves it — but strict in-order CUDA
    streams cannot start either second task before their stuck first
    one, and the pre-flight model checker must reject the emission.
    """
    from repro.analyze.modelcheck import PlanError, check_plan

    gpu0 = Resource("gpu0", GPU_COMPUTE, 0)
    gpu1 = Resource("gpu1", GPU_COMPUTE, 1)
    tasks = [
        Task("a0", gpu0, 1.0, deps=("b1",)),
        Task("a1", gpu0, 1.0),
        Task("b0", gpu1, 1.0, deps=("a1",)),
        Task("b1", gpu1, 1.0),
    ]
    try:
        return list(check_plan(tasks, label="<cross-stream emission>").findings)
    except PlanError as exc:
        return list(exc.findings)


def broken_integrity_check() -> "IntegrityCheckResult":
    """A Byzantine execution whose audit trail launders the forgery.

    Runs a real toy-curve execution with one wrong-result cheater — the
    response check rejects the forged chunk and quarantines the GPU —
    then doctors the attached report the way a broken (or dishonest)
    orchestrator would: the rejected verdict becomes ``accepted`` and the
    consumed-slot map is rewritten to consume the cheater's delivery.
    The integrity checker must refuse the laundered trail.
    """
    from dataclasses import replace

    from repro.core.config import DistMsmConfig
    from repro.core.distmsm import DistMsm
    from repro.curves.sampling import msm_instance
    from repro.curves.toy import toy_curve
    from repro.engine.faults import ByzantineWorker
    from repro.faults.byzantine import VERDICT_ACCEPTED, VERDICT_REJECTED
    from repro.gpu.cluster import MultiGpuSystem
    from repro.verify.integritycheck import IntegrityCheckResult, verify_msm_integrity

    toy = toy_curve()
    scalars, points = msm_instance(toy, 32, seed=41)
    engine = DistMsm(
        MultiGpuSystem(4),
        DistMsmConfig(window_size=4, threads_per_block=32, points_per_thread=4),
    )
    honest = engine.execute(scalars, points, toy,
                            faults=FaultPlan.of(ByzantineWorker(1, seed=5)))
    report = honest.byzantine_report
    assert report is not None and report.caught
    forged = next(c for c in report.chunks if c.verdict == VERDICT_REJECTED)
    # the laundering: accept the forgery, consume it, forget the quarantine
    doctored = replace(
        report,
        chunks=tuple(
            replace(c, verdict=VERDICT_ACCEPTED, verified_at_ms=0.0)
            if c is forged else c
            for c in report.chunks
        ),
        consumed=tuple(
            (slot, forged.round, forged.gpu) if slot in forged.slots
            else (slot, rnd, gpu)
            for slot, rnd, gpu in report.consumed
        ),
        quarantined=(),
        rejected=0,
    )
    laundered = replace(honest, byzantine_report=doctored)
    return verify_msm_integrity(
        laundered, subject="Byzantine run (laundered audit trail)"
    )


def broken_cluster_check() -> "ClusterCheckResult":
    """A cluster run where one request was served by two nodes at once.

    Runs a real 2-node cluster over a small workload, then replays one of
    node 0's request records into node 1's result — the distributed
    exactly-once claim is now false and the cluster auditor must say so.
    """
    from dataclasses import replace

    from repro.cluster import ProofCluster
    from repro.core.config import DistMsmConfig
    from repro.curves.params import curve_by_name
    from repro.serve.queue import ProofRequest
    from repro.verify.clustercheck import verify_cluster

    curve = curve_by_name("BLS12-381")
    requests = [
        ProofRequest(
            i, curve, 1 << 14, arrival_ms=0.5 * i,
            tenant="acme" if i % 2 else "zkmart",
        )
        for i in range(4)
    ]
    cluster = ProofCluster(2, gpus_per_node=1, config=DistMsmConfig(window_size=10))
    result = cluster.serve(requests)
    victim = result.node_results[0].records[0]
    # the double-serve: the same request "also" completed on node 1
    result.node_results[1].records.append(replace(victim))
    return verify_cluster(result, subject="2-node cluster (double-served request)")


#: fixture name -> callable returning a checker result that must FAIL, or
#: (for the analyzer fixtures) the findings the analyzer reported
FIXTURES = {
    "register-peak": broken_schedule_check,
    "use-before-reload": broken_spill_check,
    "scatter-race": broken_scatter_check,
    "timeline-overlap": broken_timeline_check,
    "post-mortem-schedule": broken_recovery_check,
    "backoff-violation": broken_backoff_check,
    "serve-before-arrival": broken_serving_check,
    "trace-drift": broken_trace_check,
    "determinism-lint": broken_determinism_check,
    "unit-mixing": broken_units_check,
    "interval-overflow": broken_interval_check,
    "plan-deadlock": broken_plan_check,
    "cluster-double-serve": broken_cluster_check,
    "forged-result": broken_integrity_check,
}


def run_fixture(name: str) -> VerificationReport:
    """Run one injected-fault fixture as a report (violations expected)."""
    if name not in FIXTURES:
        raise KeyError(
            f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}"
        )
    checked = FIXTURES[name]()
    report = VerificationReport()
    report.add_check(f"fixture {name}: ran its checker")
    report.extend(checked if isinstance(checked, list) else checked.violations)
    return report
