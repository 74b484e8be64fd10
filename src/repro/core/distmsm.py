"""The DistMSM engine: plan -> orchestrate(backend) -> (result, timeline).

Two entry points, ONE orchestration body:

* :meth:`DistMsm.execute` — the *functional* path.  Runs
  :meth:`DistMsm._orchestrate` with a
  :class:`~repro.core.backends.FunctionalBackend`: the full pipeline
  (scatter, bucket-sum, reduce) executes against the simulated GPUs,
  producing a bit-exact MSM result and measured event counts.
* :meth:`DistMsm.estimate` — the *analytic* path.  Same orchestration with
  an :class:`~repro.core.backends.AnalyticBackend`: event counts come from
  closed-form expectation formulas, so paper-scale inputs (N = 2^28)
  evaluate instantly.

The shared body also emits the work onto the event-driven execution engine
(:mod:`repro.engine`): every result carries a
:class:`~repro.engine.timeline.Timeline`, built from the
:class:`~repro.core.msm_timeline.MsmTimingBreakdown`, whose phase-barrier
makespan equals ``PhaseTimes.total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.analyze.modelcheck import check_plan
from repro.core.backends import AnalyticBackend, Backend, FunctionalBackend
from repro.core.bucket_reduce import gpu_bucket_reduce_counts
from repro.core.bucket_sum import bucket_sum_counts, threads_per_bucket
from repro.core.config import DistMsmConfig
from repro.core.msm_timeline import (
    GpuPhaseMs,
    MsmTimingBreakdown,
    PhaseTimes,
    build_msm_timeline,
)
from repro.core.planner import Plan, make_plan
from repro.core.scatter import (
    hierarchical_scatter_counts,
    naive_scatter_counts,
    scatter_time_ms,
)
from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint, XyzzPoint
from repro.curves.scalar import num_windows as window_count
from repro.engine.faults import FaultPlan, RetryPolicy
from repro.engine.timeline import TIME_EPS, Stage, Task, Timeline, simulate
from repro.faults.byzantine import (
    VERDICT_ACCEPTED,
    VERDICT_LOST,
    VERDICT_REJECTED,
    VERDICT_UNVERIFIED,
    ByzantineReport,
    ChunkOutcome,
    corrupt_partials,
)
from repro.faults.recovery import (
    GPU_HEARTBEAT_MS,
    FaultRecoveryError,
    FaultReport,
    RecoveryRound,
    detection_time_ms,
    redistribute_assignments,
    validate_fault_plan,
)
from repro.msm.outsource import (
    ChunkClaim,
    Session,
    batch_verify,
    chunk_value,
    make_response,
    response_padds,
    sample_challenge,
    soundness_bits,
    verify_chunk,
    verify_padds,
)
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.counters import EventCounters
from repro.gpu.timing import (
    cpu_ec_time_ms,
    ec_ops_time_ms,
    host_transfer_time_ms,
    launch_overhead_ms,
    pipelined_cpu_visible_ms,
)
from repro.kernels.padd_kernel import KernelDescriptor

if TYPE_CHECKING:
    from repro.observe.tracer import Tracer

__all__ = [
    "DistMsm",
    "DistMsmResult",
    "PhaseTimes",  # re-exported; canonical home is repro.core.msm_timeline
]


@dataclass
class DistMsmResult:
    """Outcome of one MSM execution or estimate."""

    point: AffinePoint | None
    time_ms: float
    times: PhaseTimes
    counters: EventCounters
    window_size: int
    plan: Plan
    per_gpu_counters: list = field(default_factory=list)
    #: the event-driven schedule of this MSM (phase barriers: its makespan
    #: equals ``times.total``)
    timeline: Timeline | None = None
    #: recovery audit of a faulted run (``None`` on fault-free executions);
    #: when set, ``time_ms`` is the *recovered* makespan and ``timeline``
    #: is the chunk-granular fault schedule, so ``time_ms != times.total``
    fault_report: FaultReport | None = None
    #: verification audit (``None`` unless chunk verification ran or the
    #: plan contained a ByzantineWorker): per-chunk verdicts, quarantine
    #: decisions and the consumed-slot map the integrity checker replays
    byzantine_report: ByzantineReport | None = None


@dataclass
class _GpuWork:
    """Analytic per-GPU work summary driving the timing model."""

    scatter: EventCounters = field(default_factory=EventCounters)
    sums: EventCounters = field(default_factory=EventCounters)
    reduce: EventCounters = field(default_factory=EventCounters)
    buckets_touched: float = 0.0
    active_sum_threads: int = 0
    reduce_threads: int = 0  # all windows' reduces run in one launch
    transfer_points: float = 0.0


@dataclass
class _Chunk:
    """One (round, gpu) unit of recoverable work in a faulted execution.

    A chunk bundles the assignments one GPU executes in one planning round;
    it is lost iff its host transfer did not complete (GPU memory dies with
    the GPU), and re-planned as a whole onto a survivor.  ``slots`` are the
    indices of the original plan's assignments this chunk covers, so a
    re-execution replaces exactly the lost cells — no double-accumulation.
    """

    round: int
    gpu: int
    slots: tuple[int, ...]
    work: _GpuWork
    phase: GpuPhaseMs
    not_before_ms: float
    partials: list  # per-slot backend partials (None on the analytic path)
    #: the worker's commitment claim (None when verification is off)
    claim: ChunkClaim | None = None
    #: ground truth: a forgery was applied and changed the chunk value
    corrupted: bool = False
    #: worker-side blinded-pass + response time (0 when verification is off)
    commit_ms: float = 0.0
    #: dispatcher-side response-check time (0 when verification is off)
    verify_ms: float = 0.0

    @property
    def transfer_task(self) -> str:
        return f"msm:r{self.round}:transfer:g{self.gpu}"

    @property
    def commit_task(self) -> str:
        return f"msm:r{self.round}:commit:g{self.gpu}"

    @property
    def verify_task(self) -> str:
        return f"msm:r{self.round}:verify:g{self.gpu}"


#: window-size auto-tune results, keyed by (curve, n, gpus, spec, config)
_WINDOW_CACHE: dict = {}

#: per-node host coordination overhead added to every MSM (one sync per
#: DGX node boundary)
NODE_SYNC_MS = 0.2

#: seed of the per-MSM verification challenge (repro.msm.outsource derives
#: the challenge scalar, every mask and every RLC coefficient from it, so a
#: verification transcript replays from this integer)
CHALLENGE_SEED = 2024


class DistMsm:
    """Multi-GPU MSM engine (paper §3), parameterised by a config.

    With the default config this is DistMSM; baseline systems instantiate it
    with their own policies (see :mod:`repro.baselines`).
    """

    def __init__(self, system: MultiGpuSystem, config: DistMsmConfig | None = None):
        self.system = system
        self.config = config or DistMsmConfig()

    # -- policy -------------------------------------------------------------

    def window_size_for(self, curve: CurveParams, n: int) -> int:
        """The engine's window size: configured, or the model-optimal one.

        Auto-tuning minimises the engine's own modelled total time over the
        feasible window range (the hierarchical scatter caps at s = 14 per
        Fig. 11); this captures every §3 trade-off at once — per-thread
        bucket-sum work, scatter atomics, *and* the CPU bucket-reduce cost
        §3.2.3 bounds.
        """
        if self.config.window_size is not None:
            return self.config.window_size
        key = (curve.name, n, self.system.num_gpus, self.system.spec.name, self.config)
        cached = _WINDOW_CACHE.get(key)
        if cached is not None:
            return cached
        hi = 14 if self.config.scatter == "hierarchical" else 22
        best_s, best_t = None, float("inf")
        for s in range(5, hi + 1):
            probe = DistMsm(self.system, replace(self.config, window_size=s))
            t = probe.estimate(curve, max(2, n)).time_ms
            if t < best_t:
                best_s, best_t = s, t
        _WINDOW_CACHE[key] = best_s
        return best_s

    def num_buckets(self, window_size: int) -> int:
        if self.config.signed_digits:
            return (1 << (window_size - 1)) + 1
        return 1 << window_size

    def _plan(self, n_win: int) -> Plan:
        return make_plan(n_win, self.system.num_gpus, self.config.multi_gpu)

    # -- entry points -------------------------------------------------------

    def execute(
        self,
        scalars: list[int],
        points: list[AffinePoint],
        curve: CurveParams,
        faults: FaultPlan | None = None,
        trace: "Tracer | None" = None,
    ) -> DistMsmResult:
        """Run the full pipeline functionally; returns the exact MSM result.

        With a ``faults`` plan the run is chaos-tested: the engine injects
        the scheduled failures, the orchestrator detects and re-plans
        around them, and the result is still bit-exact (plus a
        :class:`~repro.faults.recovery.FaultReport`).

        With a ``trace`` (:class:`~repro.observe.tracer.Tracer`), the
        run's schedule is transcribed onto it: one span per phase task on
        its GPU/link/CPU track, window-size and chunk metadata in the span
        args, run parameters in the trace metadata.
        """
        if len(scalars) != len(points):
            raise ValueError(
                f"length mismatch: {len(scalars)} scalars, {len(points)} points"
            )
        n = len(scalars)
        if n == 0:
            if trace is not None:
                trace.annotate(curve=curve.name, n=0, gpus=self.system.num_gpus)
            return DistMsmResult(
                AffinePoint.identity(), 0.0, PhaseTimes(), EventCounters(), 0,
                make_plan(1, self.system.num_gpus, self.config.multi_gpu),
                timeline=simulate([]),
            )
        s = self.window_size_for(curve, n)
        backend = FunctionalBackend(self, scalars, points, curve)
        if (faults is not None and not faults.empty) or self.config.verify_chunks is True:
            return self._orchestrate_faulty(
                backend, curve, n, s, faults or FaultPlan(), trace
            )
        return self._orchestrate(backend, curve, n, s, trace)

    def estimate(
        self,
        curve: CurveParams,
        n: int,
        faults: FaultPlan | None = None,
        trace: "Tracer | None" = None,
    ) -> DistMsmResult:
        """Model the execution time for an ``n``-point MSM on this system.

        With a ``faults`` plan, models the recovered execution instead and
        attaches a :class:`~repro.faults.recovery.FaultReport`.  ``trace``
        records the modelled schedule exactly as :meth:`execute` does —
        the task DAGs are identical, so estimate-mode traces are faithful
        stand-ins.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        s = self.window_size_for(curve, n)
        backend = AnalyticBackend(self, curve, n)
        if (faults is not None and not faults.empty) or self.config.verify_chunks is True:
            return self._orchestrate_faulty(
                backend, curve, n, s, faults or FaultPlan(), trace
            )
        return self._orchestrate(backend, curve, n, s, trace)

    # -- the one orchestration body -----------------------------------------

    def _orchestrate(
        self,
        backend: Backend,
        curve: CurveParams,
        n: int,
        s: int,
        trace: "Tracer | None" = None,
    ) -> DistMsmResult:
        """Plan, scatter/sum per assignment, reduce per window, fold.

        Every step delegates its *work* to the backend (functional: real
        points and measured counters; analytic: closed-form counts) while
        this body owns the *structure*: the plan, the per-window combine
        and reduce placement, the timing model, and the timeline emission.
        """
        config = self.config
        plan, buckets_total, precompute = self._prepare(backend, curve, s)

        per_gpu_work = [_GpuWork() for _ in range(self.system.num_gpus)]
        window_partials: dict = {w: [] for w in range(plan.num_windows)}
        for assignment in plan.assignments:
            work = per_gpu_work[assignment.gpu]
            partial = backend.run_assignment(work, assignment, buckets_total)
            window_partials[assignment.window].append((assignment, partial))

        # combine per-window partials and reduce (precompute always reduces
        # on the host: its single collapsed window has no pipeline to hide in)
        cpu_counters = EventCounters()
        use_cpu_reduce = config.bucket_reduce_on_cpu or precompute
        window_results = []
        for w in range(plan.num_windows):
            partials = window_partials[w]
            combined, merge_padds = backend.combine_window(w, partials, buckets_total)
            cpu_counters.cpu_padd += merge_padds
            if use_cpu_reduce:
                counts, reduced = backend.cpu_reduce_window(combined, buckets_total)
                cpu_counters.merge(counts)
            else:
                reduced = backend.reduce_value(combined)
                # charge the reduce to the GPUs owning the window
                owners = {a.gpu for a, _ in partials} or {0}
                counts = gpu_bucket_reduce_counts(
                    buckets_total, s, self.system.concurrent_threads_per_gpu,
                    config.gpu_reduce,
                )
                if config.multi_gpu == "ndim":
                    # every GPU reduces its own full bucket array
                    share = counts
                else:
                    share = counts.scaled(1.0 / len(owners))
                for g in owners:
                    per_gpu_work[g].reduce.merge(share)
                    per_gpu_work[g].reduce_threads += min(
                        buckets_total, self.system.concurrent_threads_per_gpu
                    )
            window_results.append(reduced)

        if precompute:
            wr_counts, point = backend.finalize_precompute(window_results)
        else:
            wr_counts, point = backend.window_reduce(window_results)
        cpu_counters.merge(wr_counts)

        for work in per_gpu_work:
            work.transfer_points = work.buckets_touched

        breakdown = self._timing_breakdown(
            curve, s, buckets_total, plan, per_gpu_work, cpu_counters
        )
        times = breakdown.phase_times()
        timeline = build_msm_timeline(breakdown, self.system.resources())

        total_counters = EventCounters()
        for work in per_gpu_work:
            total_counters.merge(work.scatter)
            total_counters.merge(work.sums)
            total_counters.merge(work.reduce)
        total_counters.merge(cpu_counters)
        if trace is not None:
            self._record_trace(trace, backend, curve, n, s, plan, timeline)
        return DistMsmResult(
            point=point,
            time_ms=times.total,
            times=times,
            counters=total_counters,
            window_size=s,
            plan=plan,
            per_gpu_counters=[w.scatter for w in per_gpu_work],
            timeline=timeline,
        )

    def _record_trace(
        self,
        trace: "Tracer",
        backend: Backend,
        curve: CurveParams,
        n: int,
        s: int,
        plan: Plan,
        timeline: Timeline,
        chunks: "list[_Chunk] | None" = None,
    ) -> None:
        """Transcribe a finished MSM schedule onto ``trace``.

        Every task span carries the run's window size; per-GPU tasks carry
        their GPU index; a faulted run's chunk tasks additionally carry
        their recovery round and the plan slots the chunk covers.
        """
        from repro.observe.record import record_timeline

        trace.annotate(
            curve=curve.name,
            n=n,
            window_size=s,
            gpus=self.system.num_gpus,
            num_windows=plan.num_windows,
            strategy=self.config.multi_gpu,
            mode="execute" if backend.functional else "estimate",
        )
        task_args: dict[str, dict] = {}
        for name in timeline.spans:
            extra: dict = {"window_size": s}
            if ":g" in name:
                tail = name.rsplit(":g", 1)[1]
                if tail.isdigit():
                    extra["gpu"] = int(tail)
            task_args[name] = extra
        if chunks is not None:
            for c in chunks:
                meta = {"round": c.round, "slots": list(c.slots)}
                prefix = f"msm:r{c.round}"
                for task in (
                    f"{prefix}:scatter:g{c.gpu}",
                    f"{prefix}:sum:g{c.gpu}",
                    f"{prefix}:reduce:g{c.gpu}",
                    c.commit_task,
                    c.transfer_task,
                    c.verify_task,
                ):
                    if task in task_args:
                        task_args[task].update(meta)
        record_timeline(trace, timeline, task_args)

    def _prepare(
        self, backend: Backend, curve: CurveParams, s: int
    ) -> tuple[Plan, int, bool]:
        """Digit-stream setup + work plan shared by all orchestration paths."""
        config = self.config
        n_win = window_count(curve.scalar_bits, s)
        total_windows = n_win + (1 if config.signed_digits else 0)
        buckets_total = self.num_buckets(s)
        precompute = bool(getattr(config, "precompute", False))
        if precompute:
            # all windows collapse into one flattened (digit, point) stream
            backend.prepare_precompute(s, n_win, total_windows)
            plan = make_plan(
                1,
                self.system.num_gpus,
                "ndim" if config.multi_gpu == "ndim" else "bucket-split",
            )
        else:
            backend.prepare(s, n_win, total_windows)
            plan = self._plan(total_windows)
        if backend.functional:
            self.system.reset_counters()
        return plan, buckets_total, precompute

    def _accumulate_analytic(self, work, n_eff, bucket_share, buckets_total):
        """Add one assignment's expected counts to a GPU's work summary."""
        inserts = n_eff * bucket_share
        if self.config.scatter == "hierarchical":
            counts = hierarchical_scatter_counts(
                int(round(n_eff)), buckets_total, self.config
            )
        else:
            counts = naive_scatter_counts(int(round(n_eff)), buckets_total)
        if bucket_share < 1.0:  # only a slice of buckets is kept
            counts.global_atomics = int(round(counts.global_atomics * bucket_share))
            counts.shared_atomics = int(round(counts.shared_atomics * bucket_share))
        work.scatter.merge(counts)

        assigned = max(1, int(round(buckets_total * bucket_share)))
        n_threads = threads_per_bucket(
            assigned,
            self.system.concurrent_threads_per_gpu,
            self.config.threads_per_bucket_min,
        )
        work.sums.merge(bucket_sum_counts(int(round(inserts)), buckets_total, n_threads))
        work.active_sum_threads = max(work.active_sum_threads, assigned * n_threads)
        work.buckets_touched += assigned
        work.transfer_points += assigned

    # -- shared timing -------------------------------------------------------

    def _gpu_phase(
        self, curve: CurveParams, buckets_total: int, work: _GpuWork
    ) -> GpuPhaseMs:
        """Model one GPU's (or one chunk's) per-phase milliseconds."""
        spec = self.system.spec
        desc = KernelDescriptor(curve, self.config.kernel_opts)
        eff = self.config.efficiency
        api = self.config.api
        g_scatter = scatter_time_ms(
            spec,
            work.scatter,
            buckets_total,
            min(spec.concurrent_threads, max(1, work.active_sum_threads or 1)),
            self.config.threads_per_block,
        ) / eff
        g_sum = (
            ec_ops_time_ms(desc, "pacc", work.sums.pacc, spec, work.active_sum_threads or None, api)
            + ec_ops_time_ms(desc, "padd", work.sums.padd, spec, work.active_sum_threads or None, api)
        ) / eff
        reduce_threads = min(
            spec.concurrent_threads, work.reduce_threads or buckets_total
        )
        g_reduce = (
            ec_ops_time_ms(desc, "padd", work.reduce.padd, spec, reduce_threads, api)
            + ec_ops_time_ms(desc, "padd", work.reduce.pdbl, spec, reduce_threads, api)
        ) / eff
        point_bytes = 4 * curve.num_limbs * 4  # XYZZ coordinates
        g_transfer = host_transfer_time_ms(work.transfer_points * point_bytes, spec)
        g_launch = launch_overhead_ms(
            work.scatter.kernel_launches + work.sums.kernel_launches + work.reduce.kernel_launches,
            spec,
        )
        return GpuPhaseMs(g_scatter, g_sum, g_reduce, g_transfer, g_launch)

    def _timing_breakdown(
        self,
        curve: CurveParams,
        s: int,
        buckets_total: int,
        plan: Plan,
        per_gpu_work: list,
        cpu_counters: EventCounters,
    ) -> MsmTimingBreakdown:
        per_gpu = [
            self._gpu_phase(curve, buckets_total, work) for work in per_gpu_work
        ]

        cpu_rate = self.system.cpu_padd_rate()
        cpu_reduce_ms = cpu_ec_time_ms(cpu_counters.cpu_padd, 0, cpu_rate)
        window_reduce_ms = cpu_ec_time_ms(0, cpu_counters.cpu_pdbl, cpu_rate)
        if self.config.bucket_reduce_on_cpu and plan.num_windows > 1:
            gpu_busy = max((g.total for g in per_gpu), default=0.0)
            visible_cpu = pipelined_cpu_visible_ms(
                cpu_reduce_ms, gpu_busy, plan.num_windows
            )
        else:
            visible_cpu = cpu_reduce_ms

        # inter-node coordination: one sync per DGX node boundary
        coordination_ms = NODE_SYNC_MS * self.system.nodes

        return MsmTimingBreakdown(
            per_gpu=per_gpu,
            visible_cpu_ms=visible_cpu,
            window_reduce_ms=window_reduce_ms,
            coordination_ms=coordination_ms,
        )

    # -- fault injection and recovery (DESIGN.md §9) -------------------------

    def _charge_chunk_reduce(
        self, work: _GpuWork, assignments: list, buckets_total: int, s: int
    ) -> None:
        """GPU bucket-reduce cost of one chunk (bucket_reduce_on_cpu=False).

        Charged chunk-locally by bucket share — each GPU reduces the bucket
        slice it owns — which matches the owner-split charging of the
        fault-free path for even bucket splits.
        """
        counts = gpu_bucket_reduce_counts(
            buckets_total, s, self.system.concurrent_threads_per_gpu,
            self.config.gpu_reduce,
        )
        for a in assignments:
            share = counts if self.config.multi_gpu == "ndim" else counts.scaled(a.bucket_share)
            work.reduce.merge(share)
            work.reduce_threads += min(
                buckets_total, self.system.concurrent_threads_per_gpu
            )

    def _chunk_tasks(self, chunks: list[_Chunk], resources) -> list[Task]:
        """The recoverable task graph: scatter -> sum [-> reduce] [-> commit]
        -> transfer [-> verify] per chunk, with the transfer requiring the
        producing GPU alive.  The commit task is the worker's blinded
        commitment pass (on the GPU); the verify task is the dispatcher's
        response check (on the host CPU) — both exist only when chunk
        verification is on."""
        tasks: list[Task] = []
        for c in chunks:
            gpu_res = resources.gpu(c.gpu)
            prefix = f"msm:r{c.round}"
            stage = f"round{c.round}"
            scatter = f"{prefix}:scatter:g{c.gpu}"
            tasks.append(
                Task(scatter, gpu_res, c.phase.scatter + c.phase.launch,
                     (), stage, c.not_before_ms)
            )
            last = f"{prefix}:sum:g{c.gpu}"
            tasks.append(
                Task(last, gpu_res, c.phase.bucket_sum, (scatter,), stage,
                     c.not_before_ms)
            )
            if c.phase.reduce > 0:
                reduce_name = f"{prefix}:reduce:g{c.gpu}"
                tasks.append(
                    Task(reduce_name, gpu_res, c.phase.reduce, (last,), stage,
                         c.not_before_ms)
                )
                last = reduce_name
            if c.commit_ms > 0:
                tasks.append(
                    Task(c.commit_task, gpu_res, c.commit_ms, (last,), stage,
                         c.not_before_ms)
                )
                last = c.commit_task
            tasks.append(
                Task(c.transfer_task, resources.channel_for_gpu(c.gpu),
                     c.phase.transfer, (last,), stage, c.not_before_ms,
                     (gpu_res.name,))
            )
            if c.verify_ms > 0:
                tasks.append(
                    Task(c.verify_task, resources.cpu, c.verify_ms,
                         (c.transfer_task,), stage, c.not_before_ms)
                )
        return tasks

    @staticmethod
    def _fault_stages(chunks: list[_Chunk], extra: tuple[str, ...] = ()) -> tuple[Stage, ...]:
        by_round: dict[int, list[str]] = {}
        for c in chunks:
            names = by_round.setdefault(c.round, [])
            prefix = f"msm:r{c.round}"
            names.append(f"{prefix}:scatter:g{c.gpu}")
            names.append(f"{prefix}:sum:g{c.gpu}")
            if c.phase.reduce > 0:
                names.append(f"{prefix}:reduce:g{c.gpu}")
            if c.commit_ms > 0:
                names.append(c.commit_task)
            names.append(c.transfer_task)
            if c.verify_ms > 0:
                names.append(c.verify_task)
        stages = [
            Stage(f"round{r}", tuple(by_round[r])) for r in sorted(by_round)
        ]
        if extra:
            stages.append(Stage("host", extra))
        return tuple(stages)

    def _orchestrate_faulty(
        self, backend: Backend, curve: CurveParams, n: int, s: int,
        faults: FaultPlan, trace: "Tracer | None" = None,
    ) -> DistMsmResult:
        """Plan, inject the fault schedule, detect, re-plan, stay bit-exact.

        Work is tracked in chunks (one per round and GPU).  A chunk is lost
        iff its host transfer never completed — GPU memory dies with the
        GPU — and its assignment *slots* are then redistributed over the
        surviving GPUs at the same window size ``s`` (partial bucket sums
        are ``s``-bound).  The loop re-simulates until every slot is
        covered by exactly one delivered execution; duplicate deliveries
        (a presumed-lost transfer that still lands) are discarded by slot,
        so the combine consumes each (window, bucket-range) cell once and
        the functional result stays bit-exact.

        With chunk verification on (``verify_chunks=True``, or ``"auto"``
        and the plan contains a :class:`ByzantineWorker`), every delivered
        chunk passes the 2G2T response check (:mod:`repro.msm.outsource`)
        before it may cover a slot: a rejected chunk counts as lost, its
        GPU is quarantined (no further dispatch — the same bookkeeping that
        blacklists dead GPUs), and the work is re-planned onto *trusted*
        survivors.  Detection of a rejection is host-side (the verify task's
        completion), not heartbeat-gated.  Verified-accepted results are
        kept even from GPUs later quarantined — trust comes from the math,
        not the worker.
        """
        config = self.config
        validate_fault_plan(faults, self.system)
        plan, buckets_total, precompute = self._prepare(backend, curve, s)
        use_cpu_reduce = config.bucket_reduce_on_cpu or precompute
        retry = RetryPolicy()
        resources = self.system.resources()
        gpu_deaths = faults.gpu_death_times()
        num_slots = len(plan.assignments)
        cpu_rate = self.system.cpu_padd_rate()

        byz = faults.byzantine_workers()
        verify_on = config.verify_chunks is True or (
            config.verify_chunks == "auto" and bool(byz)
        )
        # one session per call: every mask and fold below is computed once
        # per side, and nothing of it outlives the call
        session = (
            Session(sample_challenge(curve, CHALLENGE_SEED), curve) if verify_on else None
        )
        desc = KernelDescriptor(curve, config.kernel_opts)

        chunks: list[_Chunk] = []

        def run_chunk(
            rnd: int, gpu: int, slot_ids: list[int], assignments: list,
            not_before: float,
        ) -> None:
            work = _GpuWork()
            partials = [
                backend.run_assignment(work, a, buckets_total) for a in assignments
            ]
            if not use_cpu_reduce:
                self._charge_chunk_reduce(work, assignments, buckets_total, s)
            work.transfer_points = work.buckets_touched
            phase = self._gpu_phase(curve, buckets_total, work)
            ev = byz.get(gpu)
            cheats = ev is not None and ev.cheats_in_round(rnd)
            corrupted = False
            claim: ChunkClaim | None = None
            if backend.functional:
                windows = [a.window for a in assignments]
                if verify_on:
                    # the blinded pass runs over the honest work, *before*
                    # the forgery: a cheater cannot recompute a consistent
                    # response without the challenge scalar and the mask
                    value = chunk_value(partials, windows, s, curve)
                    claim = ChunkClaim(
                        rnd, gpu, response=make_response(session, value, rnd, gpu)
                    )
                if cheats:
                    partials, corrupted = corrupt_partials(
                        ev.mode, ev.seed, rnd, gpu, partials, windows, s, curve
                    )
            else:
                corrupted = cheats  # modelled forgery always changes the value
                if verify_on:
                    claim = ChunkClaim(rnd, gpu, modelled_corrupt=corrupted)
            commit_ms = verify_ms = 0.0
            if verify_on:
                # the blinded pass re-runs scatter + bucket-sum + reduce
                # over masked digits, then builds the response
                commit_ms = (
                    phase.scatter + phase.bucket_sum + phase.reduce
                    + ec_ops_time_ms(
                        desc, "padd", response_padds(curve.scalar_bits),
                        self.system.spec, 1, config.api,
                    )
                )
                verify_ms = cpu_ec_time_ms(
                    verify_padds(
                        max(1, int(round(work.buckets_touched))),
                        curve.scalar_bits, batched=True,
                    ),
                    0, cpu_rate,
                )
            chunks.append(
                _Chunk(
                    rnd, gpu, tuple(slot_ids), work, phase, not_before, partials,
                    claim=claim, corrupted=corrupted,
                    commit_ms=commit_ms, verify_ms=verify_ms,
                )
            )

        verdict_cache: dict[tuple[int, int], bool] = {}
        delivered_values: dict[tuple[int, int], XyzzPoint | None] = {}

        def delivered_value(c: _Chunk) -> XyzzPoint | None:
            """The dispatcher's fold of a delivered chunk's partials, once."""
            key = (c.round, c.gpu)
            if key not in delivered_values:
                delivered_values[key] = chunk_value(
                    c.partials, [plan.assignments[i].window for i in c.slots], s, curve
                )
            return delivered_values[key]

        def accepts(c: _Chunk) -> bool:
            """The (deterministic) response check of one delivered chunk."""
            if not verify_on:
                return True
            key = (c.round, c.gpu)
            if key not in verdict_cache:
                if backend.functional:
                    verdict_cache[key] = verify_chunk(
                        session, delivered_value(c), c.claim.response, c.round, c.gpu
                    )
                else:
                    verdict_cache[key] = not c.claim.modelled_corrupt
            return verdict_cache[key]

        def verify_end(tl: Timeline, c: _Chunk) -> float:
            if c.verify_task in tl.spans:
                return tl.spans[c.verify_task].end_ms
            return tl.spans[c.transfer_task].end_ms

        by_gpu: dict[int, list[int]] = {}
        for i, a in enumerate(plan.assignments):
            by_gpu.setdefault(a.gpu, []).append(i)
        for g in sorted(by_gpu):
            run_chunk(0, g, by_gpu[g], [plan.assignments[i] for i in by_gpu[g]], 0.0)

        rounds: list[RecoveryRound] = [
            RecoveryRound(0, tuple(sorted(by_gpu)), (), (), 0.0, 0.0)
        ]
        transfer_victims: set[int] = set()
        quarantine_at: dict[int, float] = {}

        def latest_copy(slot: int) -> _Chunk:
            return next(c for c in reversed(chunks) if slot in c.slots)

        timeline: Timeline | None = None
        max_rounds = len(faults.events) + self.system.num_gpus + 2
        for _ in range(max_rounds):
            timeline = simulate(self._chunk_tasks(chunks, resources), (), faults, retry)
            covered: set[int] = set()
            for c in chunks:
                if c.transfer_task in timeline.spans and accepts(c):
                    covered.update(c.slots)
            uncovered = set(range(num_slots)) - covered
            if not uncovered:
                break
            for f in timeline.failures:
                if f.reason == "transfer-error":
                    transfer_victims.add(int(f.task.rsplit(":g", 1)[1]))
            # quarantine every GPU whose delivered chunk failed verification
            # (at the rejecting check's completion — no heartbeat involved)
            for c in chunks:
                if c.transfer_task in timeline.spans and not accepts(c):
                    quarantine_at.setdefault(c.gpu, verify_end(timeline, c))
            lost = {(c.round, c.gpu): c for c in map(latest_copy, uncovered)}
            fail_ts: list[float] = []
            reject_ts: list[float] = []
            for c in lost.values():
                if c.transfer_task in timeline.spans:
                    reject_ts.append(verify_end(timeline, c))
                else:
                    fail_ts.append(
                        timeline.failure_for(c.transfer_task).at_ms  # type: ignore[union-attr]
                    )
            detect = 0.0
            if fail_ts:
                detect = detection_time_ms(max(fail_ts), GPU_HEARTBEAT_MS)
            if reject_ts:
                detect = max(detect, max(reject_ts))
            dead_known = {
                g for g, t in gpu_deaths.items()
                if detection_time_ms(t, GPU_HEARTBEAT_MS) <= detect + TIME_EPS
            }
            survivors = [
                g for g in range(self.system.num_gpus)
                if g not in dead_known and g not in transfer_victims
                and g not in quarantine_at
            ]
            if not survivors:
                survivors = [
                    g for g in range(self.system.num_gpus)
                    if g not in dead_known and g not in quarantine_at
                ]
            if not survivors:
                raise FaultRecoveryError(
                    "no trusted survivor: every GPU is dead or quarantined"
                )
            slot_ids = sorted(uncovered)
            moved = redistribute_assignments(
                [plan.assignments[i] for i in slot_ids], survivors
            )
            rnd = rounds[-1].round + 1
            regroup: dict[int, tuple[list[int], list]] = {}
            for slot, a in zip(slot_ids, moved):
                slots_g, assigns_g = regroup.setdefault(a.gpu, ([], []))
                slots_g.append(slot)
                assigns_g.append(a)
            for g in sorted(regroup):
                run_chunk(rnd, g, regroup[g][0], regroup[g][1], detect)
            rounds.append(
                RecoveryRound(
                    rnd,
                    tuple(sorted(regroup)),
                    tuple(sorted({c.gpu for c in lost.values()})),
                    tuple(sorted(lost)),
                    detect,
                    detect,
                )
            )
        else:
            raise FaultRecoveryError(
                f"recovery did not converge within {max_rounds} re-plans"
            )
        assert timeline is not None

        # exactly one delivered-and-accepted execution per slot (earliest
        # round wins); rejected deliveries never reach the accumulation
        live: dict[int, tuple[_Chunk, object]] = {}
        for c in chunks:
            if c.transfer_task in timeline.spans and accepts(c):
                for slot, partial in zip(c.slots, c.partials):
                    live.setdefault(slot, (c, partial))

        cpu_counters = EventCounters()
        window_slots: dict[int, list[int]] = {w: [] for w in range(plan.num_windows)}
        for i, a in enumerate(plan.assignments):
            window_slots[a.window].append(i)
        window_results = []
        for w in range(plan.num_windows):
            partials = [(plan.assignments[i], live[i][1]) for i in window_slots[w]]
            combined, merge_padds = backend.combine_window(w, partials, buckets_total)
            cpu_counters.cpu_padd += merge_padds
            if use_cpu_reduce:
                counts, reduced = backend.cpu_reduce_window(combined, buckets_total)
                cpu_counters.merge(counts)
            else:
                reduced = backend.reduce_value(combined)
            window_results.append(reduced)
        if precompute:
            wr_counts, point = backend.finalize_precompute(window_results)
        else:
            wr_counts, point = backend.window_reduce(window_results)
        cpu_counters.merge(wr_counts)

        # the host tail (combine + reduce + coordination), honest, unpipelined
        cpu_rate = self.system.cpu_padd_rate()
        cpu_ms = (
            cpu_ec_time_ms(cpu_counters.cpu_padd, cpu_counters.cpu_pdbl, cpu_rate)
            + NODE_SYNC_MS * self.system.nodes
        )
        # with verification on, accumulation may only start once the live
        # chunks' response checks completed — the gate the auditor enforces
        live_deps = tuple(
            sorted(
                {
                    (c.verify_task if verify_on else c.transfer_task)
                    for c, _ in live.values()
                }
            )
        )
        cpu_task = Task("msm:host-reduce", resources.cpu, cpu_ms, live_deps, "host")
        final_tasks = self._chunk_tasks(chunks, resources) + [cpu_task]
        check_plan(final_tasks, label="<distmsm recovery plan>")
        timeline = simulate(
            final_tasks,
            self._fault_stages(chunks, ("msm:host-reduce",)),
            faults,
            retry,
        )

        # fault-free baseline on the same task-graph model (round 0 only,
        # verification costs included when on — so the recovery overhead
        # isolates the faults, not the protocol tax)
        round0 = [c for c in chunks if c.round == 0]
        base_cpu = Task(
            "msm:host-reduce", resources.cpu, cpu_ms,
            tuple(sorted(
                (c.verify_task if verify_on else c.transfer_task) for c in round0
            )),
            "host",
        )
        baseline = simulate(
            self._chunk_tasks(round0, resources) + [base_cpu],
            self._fault_stages(round0, ("msm:host-reduce",)),
        )

        recovered_ms = timeline.total_ms
        dead = tuple(
            sorted(g for g, t in gpu_deaths.items() if t <= recovered_ms + TIME_EPS)
        )
        surviving = tuple(
            g for g in range(self.system.num_gpus) if g not in dead
        )
        if dead and config.window_size is None:
            probe = DistMsm(
                MultiGpuSystem(
                    len(surviving), self.system.spec, self.system.cpu,
                    self.system.gpus_per_node,
                ),
                config,
            )
            replanned = probe.window_size_for(curve, n)
        else:
            replanned = s
        report = FaultReport(
            plan=faults,
            rounds=tuple(rounds),
            dead_gpus=dead,
            surviving_gpus=surviving,
            fault_free_ms=baseline.total_ms,
            recovered_ms=recovered_ms,
            window_size=s,
            replanned_window_size=replanned,
            retries=len(timeline.attempts),
        )

        # -- verification accounting and the Byzantine audit trail ----------
        chunk_checks = batch_checks = 0
        if verify_on:
            for r in sorted({c.round for c in chunks}):
                delivered = [
                    c for c in chunks
                    if c.round == r and c.transfer_task in timeline.spans
                ]
                if not delivered:
                    continue
                batch_checks += 1
                if backend.functional:
                    batch_ok = batch_verify(
                        session,
                        [
                            (c.round, c.gpu, delivered_value(c), c.claim.response)
                            for c in delivered
                        ],
                    )
                else:
                    batch_ok = all(accepts(c) for c in delivered)
                if not batch_ok:  # fall back per chunk to localise
                    chunk_checks += len(delivered)

        byz_report: ByzantineReport | None = None
        if verify_on or byz:
            outcomes = []
            for c in chunks:
                delivered = c.transfer_task in timeline.spans
                scatter = f"msm:r{c.round}:scatter:g{c.gpu}"
                dispatched = (
                    timeline.spans[scatter].start_ms
                    if scatter in timeline.spans
                    else c.not_before_ms
                )
                if not delivered:
                    verdict, vtime = VERDICT_LOST, -1.0
                elif not verify_on:
                    verdict, vtime = VERDICT_UNVERIFIED, -1.0
                elif accepts(c):
                    verdict, vtime = VERDICT_ACCEPTED, verify_end(timeline, c)
                else:
                    verdict, vtime = VERDICT_REJECTED, verify_end(timeline, c)
                outcomes.append(
                    ChunkOutcome(
                        c.round, c.gpu, c.slots, c.corrupted, delivered,
                        verdict, dispatched, vtime,
                    )
                )
            byz_report = ByzantineReport(
                challenge_seed=CHALLENGE_SEED,
                scheme="2g2t-rlc",
                soundness_bits=soundness_bits(curve),
                verified=verify_on,
                cheaters=tuple(sorted(byz)),
                quarantined=tuple(sorted(quarantine_at.items())),
                chunks=tuple(outcomes),
                consumed=tuple(
                    sorted((slot, c.round, c.gpu) for slot, (c, _) in live.items())
                ),
                chunk_checks=chunk_checks,
                batch_checks=batch_checks,
                rejected=sum(
                    1 for o in outcomes if o.verdict == VERDICT_REJECTED
                ),
            )

        per_gpu_work = [_GpuWork() for _ in range(self.system.num_gpus)]
        for c in chunks:
            agg = per_gpu_work[c.gpu]
            agg.scatter.merge(c.work.scatter)
            agg.sums.merge(c.work.sums)
            agg.reduce.merge(c.work.reduce)
            agg.buckets_touched += c.work.buckets_touched
            agg.active_sum_threads = max(
                agg.active_sum_threads, c.work.active_sum_threads
            )
            agg.reduce_threads += c.work.reduce_threads
            agg.transfer_points += c.work.transfer_points
        breakdown = self._timing_breakdown(
            curve, s, buckets_total, plan, per_gpu_work, cpu_counters
        )
        total_counters = EventCounters()
        for work in per_gpu_work:
            total_counters.merge(work.scatter)
            total_counters.merge(work.sums)
            total_counters.merge(work.reduce)
        total_counters.merge(cpu_counters)
        if trace is not None:
            self._record_trace(trace, backend, curve, n, s, plan, timeline, chunks)
            trace.annotate(
                faulted=True,
                recovery_rounds=len(rounds),
                dead_gpus=list(dead),
            )
            if byz_report is not None:
                trace.annotate(
                    verified=verify_on,
                    byzantine_gpus=list(byz_report.cheaters),
                    quarantined_gpus=list(byz_report.quarantined_gpus),
                )
        return DistMsmResult(
            point=point,
            time_ms=recovered_ms,
            times=breakdown.phase_times(),
            counters=total_counters,
            window_size=s,
            plan=plan,
            per_gpu_counters=[w.scatter for w in per_gpu_work],
            timeline=timeline,
            fault_report=report,
            byzantine_report=byz_report,
        )
