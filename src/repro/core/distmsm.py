"""The DistMSM engine: plan -> orchestrate(backend) -> (result, timeline).

Two entry points, ONE orchestration body, :meth:`DistMsm._orchestrate`:

* :meth:`DistMsm.execute` — the *functional* path, with a
  :class:`~repro.core.backends.FunctionalBackend`: the full pipeline
  (scatter, bucket-sum, reduce) executes against the simulated GPUs,
  producing a bit-exact MSM result and measured event counts.
* :meth:`DistMsm.estimate` — the *analytic* path, with an
  :class:`~repro.core.backends.AnalyticBackend`: event counts come from
  closed-form expectation formulas, so paper-scale inputs (N = 2^28)
  evaluate instantly.

The body runs the plan as chunks, one per GPU and planning round.  An
honest run is round 0 alone, timed by the paper's phase-barrier model:
its :class:`~repro.engine.timeline.Timeline` is built from the
:class:`~repro.core.msm_timeline.MsmTimingBreakdown`, and its makespan
equals ``PhaseTimes.total``.  Under a fault plan, or with chunk
verification on, the chunks become a task graph on the event-driven
engine (:mod:`repro.engine`), lost or rejected chunks are re-planned onto
survivors, and the gated ``msm:host-reduce`` task ends the recovered
makespan.  Either way the same code folds the windows, sums the per-GPU
work and totals the counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

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
from repro.engine.resources import Resource, SystemResources
from repro.engine.timeline import TIME_EPS, Task, Timeline, simulate
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
    max_recovery_rounds,
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

    def merge(self, other: "_GpuWork") -> None:
        """Add ``other``'s work (one chunk's) into this summary."""
        self.scatter.merge(other.scatter)
        self.sums.merge(other.sums)
        self.reduce.merge(other.reduce)
        self.buckets_touched += other.buckets_touched
        self.active_sum_threads = max(self.active_sum_threads, other.active_sum_threads)
        self.reduce_threads += other.reduce_threads
        self.transfer_points += other.transfer_points


@dataclass
class _Chunk:
    """One (round, gpu) unit of work: the assignments one GPU executes in
    one planning round.

    An honest run is round 0 alone, one chunk per GPU.  In a recovered run
    a chunk is lost iff its host transfer did not complete (GPU memory
    dies with the GPU), and re-planned as a whole onto a survivor.
    ``slots`` are the indices of the original plan's assignments this
    chunk covers, so a re-execution replaces exactly the lost cells — no
    double-accumulation.
    """

    round: int
    gpu: int
    slots: tuple[int, ...]
    work: _GpuWork
    not_before_ms: float
    partials: list  # per-slot backend partials (None on the analytic path)
    #: modelled per-phase time (recovered runs only: an honest run is
    #: timed per GPU by the phase-barrier model)
    phase: GpuPhaseMs | None = None
    #: the worker's commitment claim (None when verification is off)
    claim: ChunkClaim | None = None
    #: ground truth: a forgery was applied and changed the chunk value
    corrupted: bool = False
    #: worker-side blinded-pass + response time (0 when verification is off)
    commit_ms: float = 0.0
    #: dispatcher-side response-check time (0 when verification is off)
    verify_ms: float = 0.0

    def name(self, phase: str) -> str:
        """The timeline task that runs this chunk's ``phase``."""
        return f"msm:r{self.round}:{phase}:g{self.gpu}"

    def phases(self, resources: SystemResources) -> list[tuple[str, Resource, float]]:
        """``(phase, resource, ms)`` per task, in dependency order: scatter
        -> sum [-> reduce] [-> commit] -> transfer [-> verify].  The commit
        task is the worker's blinded commitment pass (on the GPU); the
        verify task is the dispatcher's response check (on the host CPU)
        — both exist only when chunk verification is on."""
        assert self.phase is not None
        gpu = resources.gpu(self.gpu)
        out = [
            ("scatter", gpu, self.phase.scatter + self.phase.launch),
            ("sum", gpu, self.phase.bucket_sum),
        ]
        if self.phase.reduce > 0:
            out.append(("reduce", gpu, self.phase.reduce))
        if self.commit_ms > 0:
            out.append(("commit", gpu, self.commit_ms))
        out.append(("transfer", resources.channel_for_gpu(self.gpu), self.phase.transfer))
        if self.verify_ms > 0:
            out.append(("verify", resources.cpu, self.verify_ms))
        return out


#: window-size auto-tune results, keyed by :meth:`DistMsm.plan_key`
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

    def plan_key(self, curve: CurveParams, n: int) -> tuple:
        """The key of a modelled plan for ``(curve, n)`` on this engine.

        Every input of the model, as frozen values: the curve, ``n``, the
        GPU count, the GPU and host CPU specs, the node size and the
        config.  The window-size cache and
        :meth:`repro.serve.plancache.PlanCache.key_for` both use it.
        """
        system = self.system
        return (
            curve, n, system.num_gpus, system.spec, system.cpu,
            system.gpus_per_node, self.config,
        )

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
        key = self.plan_key(curve, n)
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
        return self._orchestrate(backend, curve, n, s, faults or FaultPlan(), trace)

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
        return self._orchestrate(backend, curve, n, s, faults or FaultPlan(), trace)

    # -- run setup and trace transcription ----------------------------------

    def _record_trace(
        self,
        trace: "Tracer",
        backend: Backend,
        curve: CurveParams,
        n: int,
        s: int,
        plan: Plan,
        timeline: Timeline,
        resources: SystemResources,
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
        for c in chunks or ():
            meta = {"round": c.round, "slots": list(c.slots)}
            for phase, _, _ in c.phases(resources):
                if c.name(phase) in task_args:
                    task_args[c.name(phase)].update(meta)
        record_timeline(trace, timeline, task_args)

    def _prepare(
        self, backend: Backend, curve: CurveParams, s: int
    ) -> tuple[Plan, int, bool]:
        """Digit-stream setup + work plan shared by all orchestration paths."""
        config = self.config
        n_win = window_count(curve.scalar_bits, s)
        total_windows = n_win + (1 if config.signed_digits else 0)
        buckets_total = self.num_buckets(s)
        precompute = config.precompute
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
        buckets_total: int,
        plan: Plan,
        per_gpu_work: list,
        cpu_counters: EventCounters,
        cpu_rate: float,
    ) -> MsmTimingBreakdown:
        per_gpu = [
            self._gpu_phase(curve, buckets_total, work) for work in per_gpu_work
        ]

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

    # -- chunk charging and the recoverable task graph (DESIGN.md §9) ------

    def _charge_gpu_reduce(
        self, work: _GpuWork, share: float, buckets_total: int, s: int
    ) -> None:
        """Charge one GPU bucket-reduce launch over ``share`` of a window's
        buckets to ``work`` (bucket_reduce_on_cpu=False).  Under ndim every
        GPU reduces its own full bucket array, whatever the share."""
        counts = gpu_bucket_reduce_counts(
            buckets_total, s, self.system.concurrent_threads_per_gpu,
            self.config.gpu_reduce,
        )
        work.reduce.merge(counts if self.config.multi_gpu == "ndim" else counts.scaled(share))
        work.reduce_threads += min(buckets_total, self.system.concurrent_threads_per_gpu)

    def _chunk_tasks(self, chunks: list[_Chunk], resources: SystemResources) -> list[Task]:
        """The recoverable task graph: each chunk's phases chained in order,
        with the transfer requiring the producing GPU alive."""
        tasks: list[Task] = []
        for c in chunks:
            deps: tuple[str, ...] = ()
            alive = (resources.gpu(c.gpu).name,)
            for phase, resource, ms in c.phases(resources):
                tasks.append(
                    Task(c.name(phase), resource, ms, deps, f"round{c.round}",
                         c.not_before_ms, alive if phase == "transfer" else ())
                )
                deps = (c.name(phase),)
        return tasks

    # -- the one orchestration body -----------------------------------------

    def _orchestrate(
        self,
        backend: Backend,
        curve: CurveParams,
        n: int,
        s: int,
        faults: FaultPlan,
        trace: "Tracer | None" = None,
    ) -> DistMsmResult:
        """Plan, run the chunks, recover, fold the windows, account.

        Every step delegates its *work* to the backend (functional: real
        points and measured counters; analytic: closed-form counts) while
        this body owns the *structure*: the plan, the chunks, the
        per-window combine and reduce placement, the timing model and the
        timeline emission.

        Round 0 runs one chunk per GPU.  An honest run (empty fault plan,
        verification off) stops there: it is timed by the paper's
        phase-barrier model, and a GPU bucket reduce is charged per window
        to the window's owners.  Otherwise the run recovers, timed by the
        chunk task graph ending in the gated ``msm:host-reduce``, with a
        GPU bucket reduce charged per chunk by bucket share.

        Recovery (DESIGN.md §9): a chunk is lost iff its host transfer
        never completed — GPU memory dies with the GPU — and its
        assignment *slots* are then redistributed over the surviving GPUs
        at the same window size ``s`` (partial bucket sums are
        ``s``-bound).  The loop re-simulates until every slot is covered
        by exactly one delivered execution; duplicate deliveries (a
        presumed-lost transfer that still lands) are discarded by slot, so
        the combine consumes each (window, bucket-range) cell once and the
        functional result stays bit-exact.

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
        # precompute always reduces on the host: its single collapsed
        # window has no pipeline to hide in
        use_cpu_reduce = config.bucket_reduce_on_cpu or precompute
        retry = RetryPolicy()
        resources = self.system.resources()
        gpu_deaths = faults.gpu_death_times()
        num_slots = len(plan.assignments)
        cpu_rate = self.system.cpu_padd_rate()

        byz = faults.byzantine_workers()
        verify_on = config.verifies(faults)
        recover = verify_on or not faults.empty
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
            work.transfer_points = work.buckets_touched
            chunk = _Chunk(rnd, gpu, tuple(slot_ids), work, not_before, partials)
            chunks.append(chunk)
            if not recover:
                return
            if not use_cpu_reduce:
                for a in assignments:
                    self._charge_gpu_reduce(work, a.bucket_share, buckets_total, s)
            phase = chunk.phase = self._gpu_phase(curve, buckets_total, work)
            ev = byz.get(gpu)
            cheats = ev is not None and ev.cheats_in_round(rnd)
            if not backend.functional:
                chunk.corrupted = cheats  # modelled forgery always changes the value
                if verify_on:
                    chunk.claim = ChunkClaim(rnd, gpu, modelled_corrupt=cheats)
            elif verify_on or cheats:
                # the worker folds its honest work once; the blinded pass
                # runs over it *before* the forgery: a cheater cannot
                # recompute a consistent response without the challenge
                # scalar and the mask
                windows = [a.window for a in assignments]
                honest = chunk_value(partials, windows, s, curve)
                if verify_on:
                    chunk.claim = ChunkClaim(
                        rnd, gpu, response=make_response(session, honest, rnd, gpu)
                    )
                if cheats:
                    chunk.partials, chunk.corrupted = corrupt_partials(
                        ev.mode, ev.seed, rnd, gpu, partials, honest, windows, s, curve
                    )
            if verify_on:
                # the blinded pass re-runs scatter + bucket-sum + reduce
                # over masked digits, then builds the response
                chunk.commit_ms = (
                    phase.scatter + phase.bucket_sum + phase.reduce
                    + ec_ops_time_ms(
                        desc, "padd", response_padds(curve.scalar_bits),
                        self.system.spec, 1, config.api,
                    )
                )
                chunk.verify_ms = cpu_ec_time_ms(
                    verify_padds(
                        max(1, int(round(work.buckets_touched))),
                        curve.scalar_bits, batched=True,
                    ),
                    0, cpu_rate,
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

        def delivered(c: _Chunk) -> bool:
            return not recover or c.name("transfer") in timeline.spans

        def verify_end(c: _Chunk) -> float:
            spans = timeline.spans
            return spans.get(c.name("verify"), spans[c.name("transfer")]).end_ms

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

        if recover:
            max_rounds = max_recovery_rounds(faults, self.system)
            for _ in range(max_rounds):
                timeline = simulate(self._chunk_tasks(chunks, resources), (), faults, retry)
                covered: set[int] = set()
                for c in chunks:
                    if delivered(c) and accepts(c):
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
                    if delivered(c) and not accepts(c):
                        quarantine_at.setdefault(c.gpu, verify_end(c))
                lost = {(c.round, c.gpu): c for c in map(latest_copy, uncovered)}
                fail_ts: list[float] = []
                reject_ts: list[float] = []
                for c in lost.values():
                    if delivered(c):
                        reject_ts.append(verify_end(c))
                    else:
                        fail_ts.append(
                            timeline.failure_for(c.name("transfer")).at_ms  # type: ignore[union-attr]
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

        # exactly one delivered-and-accepted execution per slot (earliest
        # round wins); rejected deliveries never reach the accumulation
        live: dict[int, tuple[_Chunk, object]] = {}
        for c in chunks:
            if delivered(c) and accepts(c):
                for slot, partial in zip(c.slots, c.partials):
                    live.setdefault(slot, (c, partial))

        # an honest run is one chunk per GPU, whose work is the GPU's summary
        per_gpu_work = [_GpuWork() for _ in range(self.system.num_gpus)]
        for c in chunks:
            if recover:
                per_gpu_work[c.gpu].merge(c.work)
            else:
                per_gpu_work[c.gpu] = c.work

        cpu_counters = EventCounters()
        window_slots: dict[int, list[int]] = {w: [] for w in range(plan.num_windows)}
        for i, a in enumerate(plan.assignments):
            window_slots[a.window].append(i)
        window_results = []
        for w in range(plan.num_windows):
            partials = [(plan.assignments[i], live[i][1]) for i in window_slots[w]]
            combined, merge_padds = backend.combine_window(w, partials, buckets_total)
            cpu_counters.cpu_padd += merge_padds
            counts, reduced = backend.reduce_window(combined, buckets_total)
            if use_cpu_reduce:
                cpu_counters.merge(counts)
            elif not recover:
                # the window's owners share its reduce (recovered chunks
                # were charged by bucket share when they ran)
                owners = sorted({a.gpu for a, _ in partials})
                for g in owners:
                    self._charge_gpu_reduce(
                        per_gpu_work[g], 1.0 / len(owners), buckets_total, s
                    )
            window_results.append(reduced)
        wr_counts, point = backend.fold_windows(window_results)
        cpu_counters.merge(wr_counts)

        breakdown = self._timing_breakdown(
            curve, buckets_total, plan, per_gpu_work, cpu_counters, cpu_rate
        )
        times = breakdown.phase_times()
        total_counters = EventCounters()
        for work in per_gpu_work:
            total_counters.merge(work.scatter)
            total_counters.merge(work.sums)
            total_counters.merge(work.reduce)
        total_counters.merge(cpu_counters)
        result = DistMsmResult(
            point=point,
            time_ms=times.total,
            times=times,
            counters=total_counters,
            window_size=s,
            plan=plan,
            per_gpu_counters=[w.scatter for w in per_gpu_work],
        )
        if not recover:
            result.timeline = build_msm_timeline(breakdown, resources)
            if trace is not None:
                self._record_trace(
                    trace, backend, curve, n, s, plan, result.timeline, resources
                )
            return result

        # the host tail (combine + reduce + coordination), honest, unpipelined;
        # with verification on, accumulation may only start once the live
        # chunks' response checks completed — the gate the auditor enforces
        cpu_ms = (
            cpu_ec_time_ms(cpu_counters.cpu_padd, cpu_counters.cpu_pdbl, cpu_rate)
            + NODE_SYNC_MS * self.system.nodes
        )
        gate = "verify" if verify_on else "transfer"

        def host_reduce(deps: list[_Chunk]) -> Task:
            return Task(
                "msm:host-reduce", resources.cpu, cpu_ms,
                tuple(sorted({c.name(gate) for c in deps})), "host",
            )

        final_tasks = self._chunk_tasks(chunks, resources) + [
            host_reduce([c for c, _ in live.values()])
        ]
        timeline = result.timeline = simulate(final_tasks, (), faults, retry)
        # fault-free baseline on the same task-graph model (round 0 only,
        # verification costs included when on — so the recovery overhead
        # isolates the faults, not the protocol tax)
        round0 = [c for c in chunks if c.round == 0]
        baseline = simulate(self._chunk_tasks(round0, resources) + [host_reduce(round0)])

        recovered_ms = result.time_ms = timeline.total_ms
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
        result.fault_report = FaultReport(
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
        if verify_on or byz:
            chunk_checks = batch_checks = 0
            for r in sorted({c.round for c in chunks}):
                sent = [c for c in chunks if c.round == r and delivered(c)]
                if not (verify_on and sent):
                    continue
                batch_checks += 1
                if backend.functional:
                    batch_ok = batch_verify(
                        session,
                        [
                            (c.round, c.gpu, delivered_value(c), c.claim.response)
                            for c in sent
                        ],
                    )
                else:
                    batch_ok = all(accepts(c) for c in sent)
                if not batch_ok:  # fall back per chunk to localise
                    chunk_checks += len(sent)
            outcomes = []
            for c in chunks:
                scatter = timeline.spans.get(c.name("scatter"))
                if not delivered(c):
                    verdict, vtime = VERDICT_LOST, -1.0
                elif not verify_on:
                    verdict, vtime = VERDICT_UNVERIFIED, -1.0
                else:
                    verdict = VERDICT_ACCEPTED if accepts(c) else VERDICT_REJECTED
                    vtime = verify_end(c)
                outcomes.append(
                    ChunkOutcome(
                        c.round, c.gpu, c.slots, c.corrupted, delivered(c), verdict,
                        c.not_before_ms if scatter is None else scatter.start_ms,
                        vtime,
                    )
                )
            result.byzantine_report = ByzantineReport(
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
                rejected=sum(1 for o in outcomes if o.verdict == VERDICT_REJECTED),
            )
        if trace is not None:
            self._record_trace(
                trace, backend, curve, n, s, plan, timeline, resources, chunks
            )
            trace.annotate(
                faulted=True,
                recovery_rounds=len(rounds),
                dead_gpus=list(dead),
            )
            if result.byzantine_report is not None:
                trace.annotate(
                    verified=verify_on,
                    byzantine_gpus=list(result.byzantine_report.cheaters),
                    quarantined_gpus=list(result.byzantine_report.quarantined_gpus),
                )
        return result
