"""The verification driver: every registered kernel and baseline, checked.

``verify_all`` is what CI runs (via ``python -m repro.verify``) and what
the test suite imports.  It re-derives nothing from the code under test
beyond the *artifacts* the producing layers hand it — DAGs, schedules,
claimed peaks, spill plans, memory traces — and cross-examines each with
the independent checkers in this package:

* every kernel DAG's written and optimal schedules (claims from
  :mod:`repro.kernels.scheduler`), including modmul budgets;
* every explicit-spill plan at the paper's budgets, for every supported
  curve's limb count against the GPU shared-memory limits;
* every scatter strategy named by a registered baseline (plus DistMSM's
  own hierarchical default), race-checked on a deterministic workload;
* the parallel bucket-sum's trace;
* the execution engine's schedules — every timeline mode of a DistMSM
  estimate, the cross-MSM flow shop, and a batched-MSM schedule — audited
  against the dependency / resource-exclusivity / makespan invariants;
* a chaos-tested DistMSM run — GPU death + straggler + transient transfer
  error injected into an 8-GPU estimate, the recovered timeline audited by
  both the schedule checker and the fault checker, and a functional
  toy-curve kill verified bit-exact against the fault-free result.
"""

from __future__ import annotations

from repro.baselines.registry import all_baselines
from repro.core.config import DistMsmConfig
from repro.curves.params import curve_by_name
from repro.curves.point import PACC_MODMULS, PADD_MODMULS, PDBL_MODMULS
from repro.curves.sampling import sample_points
from repro.curves.toy import toy_curve
from repro.kernels.dag import (
    OpDag,
    build_pacc_dag,
    build_padd_dag,
    build_pdbl_dag,
    entry_live,
)
from repro.kernels.padd_kernel import SPILL_REDUCTION
from repro.kernels.scheduler import find_optimal_schedule, written_order_peak
from repro.kernels.spill import plan_spills
from repro.verify.races import (
    detect_races,
    trace_bucket_sum,
    trace_hierarchical_scatter,
    trace_naive_scatter,
)
from repro.verify.report import VerificationReport
from repro.verify.schedule import verify_schedule
from repro.verify.spillcheck import verify_spill_plan
from repro.verify.timelinecheck import verify_timeline

#: kernel name -> (DAG builder, modular-multiplication budget)
KERNEL_BUDGETS = {
    "PADD": (build_padd_dag, PADD_MODMULS),
    "PACC": (build_pacc_dag, PACC_MODMULS),
    "PDBL": (build_pdbl_dag, PDBL_MODMULS),
}

#: the deterministic scatter workload the race checks replay
_SCATTER_POINTS = 192
_SCATTER_BUCKETS = 8


def _scatter_digits() -> list[int]:
    """A fixed pseudo-random digit stream covering every bucket."""
    state, digits = 0x9E3779B9, []
    for _ in range(_SCATTER_POINTS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        digits.append(state % _SCATTER_BUCKETS)
    return digits


def verify_kernel_schedules(report: VerificationReport | None = None) -> VerificationReport:
    """Check written and optimal schedules of every kernel DAG."""
    report = report or VerificationReport()
    for name, (builder, budget) in KERNEL_BUDGETS.items():
        dag: OpDag = builder()
        written = verify_schedule(
            dag,
            claimed_peak=written_order_peak(dag),
            max_modmuls=budget,
            subject=f"{name} (written order)",
        )
        report.extend(written.violations)
        report.add_check(
            f"{name} written order: peak {written.peak}, "
            f"{written.modmuls} modmuls"
        )
        optimal = find_optimal_schedule(dag)
        checked = verify_schedule(
            dag,
            order=list(optimal.order),
            claimed_peak=optimal.peak,
            max_modmuls=budget,
            subject=f"{name} (optimal order)",
        )
        report.extend(checked.violations)
        report.add_check(
            f"{name} optimal order: peak {checked.peak} "
            f"(scheduler claims {optimal.peak})"
        )
    return report


def verify_spill_plans(
    curves: tuple[str, ...],
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Replay the explicit-spill plans at the paper's budgets per curve."""
    report = report or VerificationReport()
    for name, (builder, _) in KERNEL_BUDGETS.items():
        dag = builder()
        optimal = find_optimal_schedule(dag)
        budget = max(optimal.peak - SPILL_REDUCTION, entry_live(dag))
        if budget >= optimal.peak:
            report.add_check(f"{name}: no spilling possible below entry set")
            continue
        order = list(optimal.order)
        plan = plan_spills(dag, order, budget)
        for curve_name in curves:
            curve = curve_by_name(curve_name)
            checked = verify_spill_plan(
                dag,
                order,
                plan,
                num_limbs=curve.num_limbs,
                subject=f"{name} spill@{budget} on {curve_name}",
            )
            report.extend(checked.violations)
            report.add_check(
                f"{name} spill@{budget} on {curve_name}: "
                f"{checked.transfers} transfers, "
                f"{checked.peak_shm_bigints} in shared memory"
            )
    return report


def verify_scatter_config(
    subject: str,
    config: DistMsmConfig,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Race-check the scatter strategy one configuration actually runs."""
    report = report or VerificationReport()
    digits = _scatter_digits()
    if config.scatter == "naive":
        trace = trace_naive_scatter(digits, _SCATTER_BUCKETS)
    else:
        # keep the traced workload multi-block: small blocks, few points each
        small = DistMsmConfig(
            scatter="hierarchical", threads_per_block=32, points_per_thread=2
        )
        trace = trace_hierarchical_scatter(digits, _SCATTER_BUCKETS, small)
    checked = detect_races(trace, subject=f"{subject} ({config.scatter} scatter)")
    report.extend(checked.violations)
    report.add_check(
        f"{subject}: {config.scatter} scatter race-free "
        f"({checked.events} accesses, {checked.locations} locations)"
    )
    return report


def verify_bucket_sum(report: VerificationReport | None = None) -> VerificationReport:
    """Race-check the parallel bucket-sum with its tree reduction."""
    report = report or VerificationReport()
    curve = toy_curve()
    points = sample_points(curve, 16, seed=11)
    buckets = [[0, 1, 2, 3, 4, 5], [6, 7], [], [8, 9, 10, 11, 12, 13, 14, 15]]
    for n_threads in (2, 4, 8):
        trace = trace_bucket_sum(buckets, points, curve, n_threads)
        checked = detect_races(trace, subject=f"bucket-sum x{n_threads}")
        report.extend(checked.violations)
        report.add_check(
            f"bucket-sum with {n_threads} threads/bucket race-free "
            f"({checked.events} accesses)"
        )
    return report


def verify_timelines(report: VerificationReport | None = None) -> VerificationReport:
    """Audit the engine's schedules across its producing layers.

    Uses a fixed window size so no auto-tune sweep runs inside the gate;
    the timelines audited are real artifacts of the same code paths the
    benchmarks and figures use.
    """
    from repro.core.distmsm import DistMsm
    from repro.core.msm_timeline import TIMELINE_MODES, build_msm_timeline
    from repro.core.multi_msm import MsmJob, schedule_pipeline
    from repro.curves.params import curve_by_name
    from repro.engine.batch import BatchMsmScheduler, MsmRequest
    from repro.gpu.cluster import MultiGpuSystem

    report = report or VerificationReport()
    curve = curve_by_name("BLS12-381")
    config = DistMsmConfig(window_size=10)
    engine = DistMsm(MultiGpuSystem(8), config)
    est = engine.estimate(curve, 1 << 18)

    for mode in TIMELINE_MODES:
        timeline = (
            est.timeline
            if mode == "legacy"
            else build_msm_timeline(est.breakdown, engine.system.resources(), mode=mode)
        )
        checked = verify_timeline(timeline, subject=f"DistMSM estimate ({mode} mode)")
        report.extend(checked.violations)
        report.add_check(
            f"DistMSM {mode} timeline valid "
            f"({checked.tasks} tasks on {checked.resources} resources)"
        )

    flow = schedule_pipeline(
        [MsmJob("A", 4.0, 3.0), MsmJob("B", 5.0, 2.0), MsmJob("C", 2.0, 6.0)]
    )
    assert flow.engine_timeline is not None
    checked = verify_timeline(flow.engine_timeline, subject="cross-MSM flow shop")
    report.extend(checked.violations)
    report.add_check(
        f"flow-shop timeline valid ({checked.tasks} tasks, "
        f"makespan {flow.pipelined_ms:.2f} ms)"
    )

    batch = BatchMsmScheduler(MultiGpuSystem(8), config, gpu_groups=2).schedule(
        [MsmRequest(f"req{i}", curve, 1 << 18) for i in range(4)]
    )
    checked = verify_timeline(batch.timeline, subject="batched-MSM schedule")
    report.extend(checked.violations)
    report.add_check(
        f"batch timeline valid ({checked.tasks} tasks, "
        f"{batch.speedup:.2f}x over serial)"
    )
    return report


def verify_fault_recovery(report: VerificationReport | None = None) -> VerificationReport:
    """Chaos-test the orchestrator and audit the recovered artifacts.

    One analytic 8-GPU run under a mixed fault plan (GPU death mid-run,
    a straggler, a transient transfer error) is checked against both the
    generic schedule invariants and the fault rules; one functional
    toy-curve run with a GPU killed at t=0 is checked bit-exact.
    """
    from repro.core.distmsm import DistMsm
    from repro.curves.params import curve_by_name
    from repro.curves.sampling import msm_instance
    from repro.engine.faults import FaultPlan, GpuFailure, RetryPolicy, Straggler, TransferError
    from repro.gpu.cluster import MultiGpuSystem
    from repro.verify.faultcheck import verify_fault_timeline

    report = report or VerificationReport()
    curve = curve_by_name("BLS12-381")
    config = DistMsmConfig(window_size=10)
    engine = DistMsm(MultiGpuSystem(8), config)
    horizon = engine.estimate(curve, 1 << 18).time_ms
    # 20% in lands mid bucket-sum (the chunk is genuinely lost); 30% in
    # lands inside the serialized host transfers (a retry actually fires)
    plan = FaultPlan.of(
        GpuFailure(horizon * 0.2, 3),
        Straggler(5, 1.5),
        TransferError(0, horizon * 0.3),
    )
    recovered = engine.estimate(curve, 1 << 18, faults=plan)
    assert recovered.timeline is not None and recovered.fault_report is not None
    retry = RetryPolicy(config.max_retries, config.backoff_base_ms)
    checked = verify_timeline(
        recovered.timeline, subject="DistMSM recovered (chaos)", faults=plan
    )
    report.extend(checked.violations)
    fchecked = verify_fault_timeline(
        recovered.timeline, plan, retry, subject="DistMSM recovered (chaos)"
    )
    report.extend(fchecked.violations)
    report.add_check(
        f"chaos estimate recovered: {fchecked.failures} task failures, "
        f"{fchecked.attempts} retries, overhead "
        f"{recovered.fault_report.recovery_overhead_ms:.3f} ms"
    )

    toy = toy_curve()
    scalars, points = msm_instance(toy, 24, seed=23)
    func_cfg = DistMsmConfig(window_size=4, threads_per_block=32, points_per_thread=4)
    func = DistMsm(MultiGpuSystem(4), func_cfg)
    expected = func.execute(scalars, points, toy).point
    killed = func.execute(
        scalars, points, toy, faults=FaultPlan.of(GpuFailure(0.0, 1))
    )
    assert killed.timeline is not None
    if killed.point != expected:
        report.fail(
            "faults", "functional recovery",
            "recovered MSM result differs from the fault-free result",
        )
    fchecked = verify_fault_timeline(
        killed.timeline,
        FaultPlan.of(GpuFailure(0.0, 1)),
        RetryPolicy(func_cfg.max_retries, func_cfg.backoff_base_ms),
        subject="functional recovery (gpu1 killed at t=0)",
    )
    report.extend(fchecked.violations)
    report.add_check("functional kill-recovery bit-exact and audit-clean")
    return report


def verify_byzantine(report: VerificationReport | None = None) -> VerificationReport:
    """Chaos-test the Byzantine machinery and audit the integrity trail.

    One analytic 8-GPU run under a seeded chaos plan with Byzantine
    workers (plus a death and a straggler) has its recovered timeline
    schedule-checked and its audit trail integrity-checked; one
    functional toy-curve run with a wrong-result cheater is checked
    bit-exact against the fault-free point, with the forgery caught,
    the cheater quarantined, and the consumed-slot map proven to carry
    only verified mass.
    """
    from repro.core.distmsm import DistMsm
    from repro.curves.sampling import msm_instance
    from repro.engine.faults import ByzantineWorker, FaultPlan
    from repro.faults.chaos import random_fault_plan
    from repro.gpu.cluster import MultiGpuSystem
    from repro.verify.integritycheck import verify_msm_integrity

    report = report or VerificationReport()
    curve = curve_by_name("BLS12-381")
    config = DistMsmConfig(window_size=10)
    engine = DistMsm(MultiGpuSystem(8), config)
    horizon = engine.estimate(curve, 1 << 18).time_ms
    plan = random_fault_plan(
        seed=17, num_gpus=8, horizon_ms=horizon, max_gpu_failures=1,
        byzantine_probability=0.4,
    )
    recovered = engine.estimate(curve, 1 << 18, faults=plan)
    assert recovered.timeline is not None
    checked = verify_timeline(
        recovered.timeline, subject="DistMSM recovered (byzantine chaos)",
        faults=plan,
    )
    report.extend(checked.violations)
    ichecked = verify_msm_integrity(
        recovered, subject="DistMSM recovered (byzantine chaos)"
    )
    report.extend(ichecked.violations)
    assert recovered.byzantine_report is not None
    report.add_check(
        f"byzantine chaos estimate audited: "
        f"{recovered.byzantine_report.summary()}"
    )

    toy = toy_curve()
    scalars, points = msm_instance(toy, 32, seed=41)
    func_cfg = DistMsmConfig(window_size=4, threads_per_block=32, points_per_thread=4)
    func = DistMsm(MultiGpuSystem(4), func_cfg)
    expected = func.execute(scalars, points, toy).point
    cheated = func.execute(
        scalars, points, toy,
        faults=FaultPlan.of(ByzantineWorker(1, mode="wrong-result", seed=5)),
    )
    byz = cheated.byzantine_report
    assert byz is not None
    if cheated.point != expected:
        report.fail(
            "integrity", "functional byzantine recovery",
            "MSM point under a cheating worker differs from the honest result",
        )
    if not byz.caught or 1 not in byz.quarantined_gpus:
        report.fail(
            "integrity", "functional byzantine recovery",
            "the forged chunk was not rejected and quarantined",
        )
    ichecked = verify_msm_integrity(cheated, subject="functional byzantine recovery")
    report.extend(ichecked.violations)
    report.add_check(
        f"functional cheater caught, bit-exact, integrity-clean "
        f"({ichecked.consumed} slots consumed, {ichecked.rejected} rejected, "
        f"{byz.soundness_bits}-bit soundness)"
    )
    return report


def verify_serving(report: VerificationReport | None = None) -> VerificationReport:
    """Serve a small seeded workload (with a mid-run GPU death) and audit it.

    The serving run's artifacts — request records, shed events, the shared
    engine timeline — are checked against both the generic schedule
    invariants and the serving-specific rules (no pre-arrival execution,
    shed requests never execute, conservation, honest completions).
    """
    from repro.engine.faults import FaultPlan, GpuFailure
    from repro.gpu.cluster import MultiGpuSystem
    from repro.serve import MsmProofServer, ServeConfig, poisson_trace
    from repro.verify.servecheck import verify_serving as check_serving

    report = report or VerificationReport()
    curve = curve_by_name("BLS12-381")
    config = DistMsmConfig(window_size=10)
    trace = poisson_trace(curve, count=12, rate_rps=300.0, seed=41, sizes=1 << 16)
    server = MsmProofServer(
        MultiGpuSystem(4),
        config,
        ServeConfig(gpu_groups=2, max_batch_size=4, max_queue=8),
    )
    served = server.serve(trace, faults=FaultPlan.of(GpuFailure(6.0, 1)))
    checked = verify_timeline(
        served.timeline, subject="serving timeline (gpu1 dies at 6 ms)",
        faults=served.faults,
    )
    report.extend(checked.violations)
    schecked = check_serving(
        served.requests,
        served.records,
        served.shed,
        served.timeline,
        subject="serving run (gpu1 dies at 6 ms)",
    )
    report.extend(schecked.violations)
    report.add_check(
        f"serving audit clean: {schecked.served} served, {schecked.shed} shed, "
        f"{served.metrics.retried_requests} retried, "
        f"p95 {served.metrics.p95_ms:.3f} ms"
    )
    return report


def verify_cluster(report: VerificationReport | None = None) -> VerificationReport:
    """Serve a 2-tenant workload on a 3-node cluster, kill a node, audit it.

    Node 1 of a 3-node, 2-GPU-per-node cluster loses both GPUs at the
    same event boundary mid-run; the heartbeat detects it, the swallowed
    requests fail over to the survivors, and the cluster auditor replays
    the distribution invariants — single-serve, conservation (cluster and
    per tenant), shed-never-executes fleet-wide, dispatch causality,
    at-most-once failover, and dead-node truncation.
    """
    from dataclasses import replace as dc_replace

    from repro.cluster import ProofCluster, TenantSpec
    from repro.engine.faults import FaultPlan, GpuFailure
    from repro.serve import poisson_trace
    from repro.verify.clustercheck import verify_cluster as check_cluster

    report = report or VerificationReport()
    curve = curve_by_name("BLS12-381")
    config = DistMsmConfig(window_size=10)
    workload = [
        dc_replace(r, tenant="acme" if r.req_id % 3 else "zkmart")
        for r in poisson_trace(
            curve, count=12, rate_rps=400.0, seed=3, sizes=1 << 16
        )
    ]
    cluster = ProofCluster(
        3,
        gpus_per_node=2,
        config=config,
        tenants=(TenantSpec("acme", weight=2.0), TenantSpec("zkmart")),
    )
    # global GPU ids 2 and 3 are node 1's: both die at the same boundary
    result = cluster.serve(
        workload, faults=FaultPlan.of(GpuFailure(8.0, 2), GpuFailure(8.0, 3))
    )
    checked = check_cluster(result, subject="3-node cluster (node 1 dies at 8 ms)")
    report.extend(checked.all_violations())
    report.add_check(
        f"cluster audit clean: {checked.served} served across "
        f"{len(result.node_results)} nodes, {len(result.deaths)} node death, "
        f"{len(result.failovers)} failovers, {checked.shed} shed"
    )
    return report


def verify_observability(report: VerificationReport | None = None) -> VerificationReport:
    """Trace a 2-GPU MSM and a small serve run, then audit the traces.

    The MSM trace is checked against its timeline with the phase-serial
    tiling rule (stage-envelope durations sum to the makespan within
    1e-9); the serve trace carries request life-cycle lanes on top of the
    engine tasks; both must round-trip through the Chrome export.
    """
    import json

    from repro.core.distmsm import DistMsm
    from repro.gpu.cluster import MultiGpuSystem
    from repro.observe import Tracer, to_chrome_trace
    from repro.serve import MsmProofServer, ServeConfig, poisson_trace
    from repro.verify.observecheck import verify_trace_against_timeline

    report = report or VerificationReport()
    curve = curve_by_name("BLS12-381")
    config = DistMsmConfig(window_size=10)

    trace = Tracer("msm-2gpu")
    est = DistMsm(MultiGpuSystem(2), config).estimate(curve, 1 << 16, trace=trace)
    assert est.timeline is not None
    checked = verify_trace_against_timeline(
        trace, est.timeline, subject="traced 2-GPU estimate", phase_serial=True
    )
    report.extend(checked.violations)
    report.add_check(
        f"2-GPU MSM trace faithful ({checked.spans} spans on "
        f"{checked.tracks} tracks, makespan {trace.makespan_ms():.3f} ms)"
    )

    serve_trace = Tracer("serve-smoke")
    workload = poisson_trace(curve, count=3, rate_rps=200.0, seed=7, sizes=1 << 14)
    server = MsmProofServer(
        MultiGpuSystem(2), config, ServeConfig(max_batch_size=2)
    )
    served = server.serve(workload, trace=serve_trace)
    checked = verify_trace_against_timeline(
        serve_trace, served.timeline, subject="traced serve run"
    )
    report.extend(checked.violations)
    report.add_check(
        f"serve trace faithful ({checked.spans} spans, "
        f"{served.metrics.served} requests on lanes)"
    )

    for label, t in (("msm", trace), ("serve", serve_trace)):
        exported = json.loads(t.to_chrome_json())
        if exported != to_chrome_trace(t):
            report.fail(
                "observe", f"{label} chrome export",
                "JSON export does not round-trip to the trace dict",
            )
        x_events = sum(1 for e in exported["traceEvents"] if e["ph"] == "X")
        if x_events != len(t.spans):
            report.fail(
                "observe", f"{label} chrome export",
                f"{x_events} duration events for {len(t.spans)} spans",
            )
    report.add_check("chrome exports round-trip with one duration event per span")
    return report


def verify_static_analysis(
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Run the whole-program static analyzer and fold in its findings.

    ``repro.analyze`` covers what the runtime checkers cannot: source
    hygiene (unseeded RNG, wall-clock reads, hash-ordered set iteration,
    unit-suffix mixing), the interval abstract interpretation of the
    kernel DAGs (Montgomery bounds for every registered curve plus an
    independent re-derivation of the §4.2 register peaks), and pre-flight
    model checking of the production task emissions.  Every active
    finding is a violation as it stands; the discharged obligations become
    checks, so ``-v`` shows the proof surface alongside the runtime one.
    """
    from repro.analyze import analyze_paths

    report = report or VerificationReport()
    analysis = analyze_paths()
    report.extend(analysis.sorted_findings())
    for check in analysis.checks:
        report.add_check(f"analyze: {check}")
    report.add_check(
        f"static analysis over {analysis.files} files — "
        f"{len(analysis.findings)} active findings "
        f"({len(analysis.suppressed)} suppressed by baseline)"
    )
    return report


def verify_all() -> VerificationReport:
    """Verify every registered kernel and baseline configuration."""
    report = VerificationReport()
    verify_kernel_schedules(report)

    distmsm_curves = ("BN254", "BLS12-377", "BLS12-381", "MNT4753")
    verify_spill_plans(distmsm_curves, report)

    verify_scatter_config("DistMSM", DistMsmConfig(), report)
    for baseline in all_baselines():
        verify_scatter_config(baseline.name, baseline.config, report)
        if baseline.config.kernel_opts.explicit_spill:
            verify_spill_plans(baseline.curves, report)

    verify_bucket_sum(report)
    verify_timelines(report)
    verify_fault_recovery(report)
    verify_byzantine(report)
    verify_serving(report)
    verify_cluster(report)
    verify_observability(report)
    verify_static_analysis(report)
    return report
