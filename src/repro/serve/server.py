"""The MSM proof server: queue -> admission -> batcher -> engine -> metrics.

:class:`MsmProofServer` serves an open-loop request trace on one
:class:`~repro.gpu.cluster.MultiGpuSystem` in simulated time.  The
cluster's GPUs are partitioned into ``gpu_groups`` groups; each batch is
bound to the least-loaded group, its per-request work is planned through
the persistent :class:`~repro.serve.plancache.PlanCache` (each miss pays
``PLAN_MS`` of modelled planning latency), and the tasks are admitted
onto ONE shared event-driven timeline
(:func:`repro.engine.timeline.simulate`) — so the GPU phases of
different requests, their node-link transfers, and their host
bucket-reduces all overlap, continuous-batching style.

Faults: a :class:`~repro.engine.faults.FaultPlan` makes the same run a
chaos test.  GPU deaths known to the heartbeat detector shrink group
capacity and degrade the effective batch size
(:func:`~repro.serve.admission.degraded_batch_size`); work lost to a
death before detection is re-emitted on the surviving GPUs after the
detection tick, re-planned at the survivors' capacity, and the request
completes late but correct — functional payloads stay bit-exact because
the MSM math never depends on which GPUs ran it.

Byzantine workers (:class:`~repro.engine.faults.ByzantineWorker` events)
extend the same machinery to fail-*lying* GPUs: with chunk verification
on (``DistMsmConfig.verify_chunks``), an attempt executed on a cheating
GPU is rejected at its reduce's completion (verify-on-receive — host
side, no heartbeat latency), the cheater is quarantined with the same
bookkeeping that blacklists dead GPUs (capacity degrade included), and
the attempt is re-emitted on trusted survivors.  When no GPU is both
alive and trusted, arrivals are shed with the typed
``untrusted-capacity`` reason instead of queueing unkeepable promises.
Verdicts are resolved after every batch close, and that resolve resumes
one :class:`~repro.engine.timeline.Simulation` per ``serve`` call: the
timeline before the close is final, so only new tasks are simulated and
only requests still in flight are re-examined.

``ServeConfig(overlap=False)`` is the honest one-request-at-a-time
baseline: one group, batch size one, and each request's GPU stage gated
on the previous request's host reduce — no cross-request overlap at all.
That baseline is what ``benchmarks/bench_serving.py`` beats on p95.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analyze.modelcheck import PlanChecker, check_plan
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.point import AffinePoint
from repro.engine.faults import ByzantineWorker, FaultPlan, RetryPolicy
from repro.engine.resources import SystemResources
from repro.engine.timeline import (
    TIME_EPS,
    AppendError,
    Simulation,
    Task,
    Timeline,
    simulate,
)
from repro.faults.recovery import (
    GPU_HEARTBEAT_MS,
    FaultRecoveryError,
    detection_time_ms,
    validate_fault_plan,
)
from repro.gpu.cluster import MultiGpuSystem
from repro.serve.admission import (
    SHED_UNTRUSTED,
    AdmissionController,
    ShedEvent,
    degraded_batch_size,
)
from repro.serve.batcher import (
    Batch,
    ContinuousBatcher,
    emit_request_tasks,
    request_task_names,
)
from repro.serve.metrics import RequestRecord, ServeMetrics
from repro.serve.plancache import CachedPlan, PlanCache, cache_report
from repro.serve.queue import ProofRequest, RequestQueue

if TYPE_CHECKING:
    from repro.observe.tracer import Tracer

#: modelled planner latency charged per plan-cache miss
PLAN_MS = 0.5


@dataclass(frozen=True)
class ServeConfig:
    """Policy of one serving deployment.

    ``gpu_groups`` partitions the cluster (a batch runs on one group);
    a batch closes when ``max_batch_size`` requests wait (degraded under
    faults), when the oldest has waited ``max_wait_ms``, or when a
    deadline would otherwise become infeasible; ``max_queue`` bounds the
    waiting room and ``reject_infeasible`` sheds requests whose deadline
    cannot be met; ``overlap=False`` selects the one-request-at-a-time
    baseline (forces one group, batch size one, and full serialisation).
    """

    gpu_groups: int = 1
    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    max_queue: int = 64
    reject_infeasible: bool = True
    overlap: bool = True

    def __post_init__(self) -> None:
        if self.gpu_groups < 1:
            raise ValueError(f"gpu_groups must be >= 1, got {self.gpu_groups}")
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if not 0 <= self.max_wait_ms < math.inf:
            raise ValueError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}"
            )
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if not self.overlap and (self.gpu_groups != 1 or self.max_batch_size != 1):
            raise ValueError(
                "overlap=False is the one-at-a-time baseline: it requires "
                "gpu_groups=1 and max_batch_size=1"
            )


@dataclass
class _Emission:
    """One execution attempt of one request on the shared timeline."""

    request: ProofRequest
    attempt: int
    group: int
    gpu_indices: list[int]
    names: dict
    batch_id: int
    formed_ms: float
    admit_ms: float


@dataclass
class _Resolution:
    """The incremental timeline of one faulted :meth:`MsmProofServer.serve`.

    ``simulation`` holds ``tasks[:fed]`` and ``checker`` has accepted the
    same tasks; ``open`` lists, in emission order, the requests whose last
    attempt has not completed in the simulation's committed part — the
    only requests whose verdict can still change.  ``cheaters`` are the
    Byzantine workers verification rejects (empty with verification off).
    """

    faults: FaultPlan
    retry: RetryPolicy
    cheaters: dict[int, ByzantineWorker]
    simulation: Simulation = field(init=False)
    checker: PlanChecker = field(default_factory=lambda: PlanChecker("<serve plan>"))
    fed: int = 0
    open: dict[int, None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.simulation = Simulation(self.faults, self.retry)

    def feed(self, tasks: list[Task], emissions: dict[int, list[_Emission]]) -> None:
        """Check and simulate the tasks emitted since the last feed.

        An append the simulation refuses (it would rewrite the committed
        part) starts again from an empty simulation of every task, with
        every request open.
        """
        new = tasks[self.fed:]
        self.checker.add(new)
        try:
            self.simulation.add(new)
        except AppendError:
            self.simulation = Simulation(self.faults, self.retry)
            self.simulation.add(tasks)
            self.open = dict.fromkeys(emissions)
        self.fed = len(tasks)


@dataclass
class ServeResult:
    """Everything one serving run produced, for metrics and audit."""

    requests: list[ProofRequest]
    records: list[RequestRecord]
    shed: list[ShedEvent]
    batches: list[Batch]
    timeline: Timeline
    metrics: ServeMetrics
    faults: FaultPlan | None = None
    #: task-emission audit trail: request id -> its attempts, in order
    emissions: dict = field(default_factory=dict)
    #: Byzantine quarantine decisions: gpu id -> time its first rejected
    #: attempt completed (empty when verification never rejected anything)
    quarantined: dict = field(default_factory=dict)


class MsmProofServer:
    """Continuous-batching MSM serving on one simulated multi-GPU system."""

    def __init__(
        self,
        system: MultiGpuSystem,
        config: DistMsmConfig | None = None,
        serve_config: ServeConfig | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.system = system
        self.config = config or DistMsmConfig()
        self.serve_config = serve_config or ServeConfig()
        if self.serve_config.gpu_groups > system.num_gpus:
            raise ValueError(
                f"{self.serve_config.gpu_groups} groups need at least as many "
                f"GPUs (system has {system.num_gpus})"
            )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.resources: SystemResources = system.resources()
        self.groups: list[tuple[int, ...]] = self._partition_gpus()
        self._engines: dict[int, DistMsm] = {}

    # -- static structure ----------------------------------------------------

    def _partition_gpus(self) -> list[tuple[int, ...]]:
        """Contiguous, near-even GPU groups (node-locality preserved)."""
        num, groups = self.system.num_gpus, self.serve_config.gpu_groups
        base, extra = divmod(num, groups)
        out, start = [], 0
        for g in range(groups):
            size = base + (1 if g < extra else 0)
            out.append(tuple(range(start, start + size)))
            start += size
        return out

    def _engine_for(self, gpu_count: int) -> DistMsm:
        """A planning engine for a ``gpu_count``-GPU slice of the cluster."""
        engine = self._engines.get(gpu_count)
        if engine is None:
            engine = DistMsm(
                MultiGpuSystem(
                    gpu_count,
                    spec=self.system.spec,
                    cpu=self.system.cpu,
                    gpus_per_node=self.system.gpus_per_node,
                ),
                self.config,
            )
            self._engines[gpu_count] = engine
        return engine

    # -- fault awareness -----------------------------------------------------

    def _known_dead(self, faults: FaultPlan | None, now_ms: float) -> set[int]:
        """GPUs whose death the heartbeat detector has reported by ``now``."""
        if faults is None:
            return set()
        return {
            g
            for g, at in faults.gpu_death_times().items()
            if detection_time_ms(at, GPU_HEARTBEAT_MS) <= now_ms + TIME_EPS
        }

    def _surviving_members(self, group: int, dead: set[int]) -> list[int]:
        return [g for g in self.groups[group] if g not in dead]

    def _live_groups(self, dead: set[int]) -> list[int]:
        return [
            g for g in range(len(self.groups)) if self._surviving_members(g, dead)
        ]

    # -- serving -------------------------------------------------------------

    def serve(
        self,
        workload: list[ProofRequest],
        faults: FaultPlan | None = None,
        trace: "Tracer | None" = None,
    ) -> ServeResult:
        """Serve a request trace (arrivals fixed up front); returns the
        full audited result.  Deterministic.

        With a ``trace`` (:class:`~repro.observe.tracer.Tracer`), the
        run is transcribed onto it: every engine task on its resource
        track, plus one lane per request with its life-cycle spans
        (queued → batched → executing → done) and shed instants on the
        admission track.
        """
        if faults is not None:
            validate_fault_plan(faults, self.system)
        byz = faults.byzantine_workers() if faults is not None else {}
        verify_on = self.config.verify_chunks is True or (
            self.config.verify_chunks == "auto" and bool(byz)
        )
        deaths = faults.gpu_death_times() if faults is not None else {}
        # verification on and every GPU dead or always-cheating: nothing the
        # cluster produces could ever be accepted, so arrivals are shed with
        # the typed untrusted-capacity reason rather than queued
        hopeless = verify_on and all(
            g in deaths or (g in byz and byz[g].round is None)
            for g in range(self.system.num_gpus)
        )
        quarantined: dict[int, float] = {}

        retry = RetryPolicy(self.config.max_retries, self.config.backoff_base_ms)
        resolution = (
            _Resolution(faults, retry, byz if verify_on else {})
            if faults is not None
            else None
        )
        queue = RequestQueue(self.serve_config.max_queue)
        admission = AdmissionController(self.serve_config)
        batcher = ContinuousBatcher(self.serve_config)

        arrivals: list[tuple[float, int, ProofRequest]] = []
        seen_ids: set[int] = set()
        for request in sorted(workload, key=lambda r: (r.arrival_ms, r.req_id)):
            if request.req_id in seen_ids:
                raise ValueError(f"duplicate request id {request.req_id}")
            seen_ids.add(request.req_id)
            heapq.heappush(arrivals, (request.arrival_ms, request.req_id, request))

        tasks: list[Task] = []
        submitted: list[ProofRequest] = []
        emissions: dict[int, list[_Emission]] = {}
        results: dict[int, AffinePoint] = {}
        group_free: dict[int, float] = {g: 0.0 for g in range(len(self.groups))}
        last_serial_reduce: str | None = None
        clock = 0.0

        def service_peek(request: ProofRequest) -> float | None:
            dead = self._known_dead(faults, clock)
            live = self._live_groups(dead)
            if not live:
                return None
            sizes = {len(self._surviving_members(g, dead)) for g in live}
            plans = [
                self.plan_cache.peek(self._engine_for(k), request.curve, request.n)
                for k in sorted(sizes)
            ]
            known = [p.service_ms for p in plans if p is not None]
            return max(known) if known else None

        def capacity(now_ms: float) -> tuple[set[int], list[int], int]:
            """Lost GPUs, live groups and effective batch size at ``now_ms``
            (quarantined GPUs count as lost capacity, like dead ones)."""
            dead = self._known_dead(faults, now_ms) | {
                g for g, t in quarantined.items() if t <= now_ms + TIME_EPS
            }
            live = self._live_groups(dead)
            if not live:
                # every group currently headless: wait for nothing — the
                # plan was validated to leave at least one survivor, and
                # deaths are permanent, so this cannot happen
                raise FaultRecoveryError("no live GPU group to serve on")
            surviving = sum(len(self._surviving_members(g, dead)) for g in live)
            return dead, live, degraded_batch_size(
                self.serve_config.max_batch_size, surviving, self.system.num_gpus
            )

        while arrivals or len(queue):
            # 1. pull every due arrival through admission
            while arrivals and arrivals[0][0] <= clock + TIME_EPS:
                _, _, request = heapq.heappop(arrivals)
                submitted.append(request)
                if hopeless:
                    admission.shed_untrusted(request, request.arrival_ms)
                    continue
                earliest_start = max(
                    request.arrival_ms, min(group_free.values(), default=0.0)
                )
                estimate = service_peek(request)
                decision = admission.decide(
                    request,
                    queue_len=len(queue),
                    earliest_start_ms=earliest_start,
                    service_estimate_ms=estimate if estimate is not None else 0.0,
                )
                if decision is None:
                    queue.push(request)

            if not len(queue):
                if not arrivals:
                    break
                clock = max(clock, arrivals[0][0])
                continue

            # 2. fault-degraded capacity at this instant
            dead, live, eff_batch = capacity(clock)

            # 3. when does the next batch close?  A death detected or a
            # quarantine taking effect before then shrinks what the batch
            # may bind, so capacity is read again at the close instant
            close_at = batcher.next_close_ms(queue, clock, eff_batch, service_peek)
            assert close_at is not None
            if arrivals and arrivals[0][0] <= close_at + TIME_EPS:
                clock = max(clock, arrivals[0][0])
                continue
            if close_at > clock:
                clock = close_at
                dead, live, eff_batch = capacity(clock)

            # 4. close the batch onto the least-loaded live group
            group = min(live, key=lambda g: (group_free[g], g))
            members = self._surviving_members(group, dead)
            engine = self._engine_for(len(members))
            plans: dict[int, CachedPlan] = {}
            window_sizes: dict[int, int] = {}
            misses = 0
            batch_requests = queue.snapshot()[:eff_batch]
            for request in batch_requests:
                plan, hit = self.plan_cache.lookup(engine, request.curve, request.n)
                plans[request.req_id] = plan
                window_sizes[request.req_id] = plan.window_size
                misses += 0 if hit else 1
            admit_ms = clock + PLAN_MS * misses
            batch = batcher.form(
                queue, group, clock, admit_ms, eff_batch, window_sizes, misses
            )
            last_serial_reduce = self._emit_batch(
                batch, plans, members, tasks, emissions, results, last_serial_reduce
            )
            group_free[group] = max(group_free[group], admit_ms) + sum(
                plans[r.req_id].gpu_ms for r in batch.requests
            )
            if resolution is not None:
                resolution.open.update(dict.fromkeys(r.req_id for r in batch.requests))

            # 5. resolve in-stream when verification could quarantine a
            # cheater: later batch closes must see the quarantine the
            # instant it happens, exactly like a detected death — no
            # dispatch after quarantine.  Every later batch and every
            # retry is released at or after this close, so the timeline
            # before it is final
            if resolution is not None and resolution.cheaters:
                self._resolve(tasks, emissions, resolution, group_free, quarantined, clock)

        if resolution is None:
            check_plan(tasks, label="<serve plan>")
            timeline = simulate(tasks)
        else:
            timeline = self._resolve(
                tasks, emissions, resolution, group_free, quarantined
            ).timeline()
        return self._finish(
            submitted, emissions, results, admission, batcher, timeline, faults,
            quarantined, trace,
        )

    # -- emission and fault recovery -----------------------------------------

    def _emit_batch(
        self,
        batch: Batch,
        plans: dict[int, CachedPlan],
        members: list[int],
        tasks: list[Task],
        emissions: dict[int, list[_Emission]],
        results: dict[int, AffinePoint],
        last_serial_reduce: str | None,
    ) -> str | None:
        """Emit every request of a formed batch onto the shared timeline."""
        group_gpus = [self.resources.gpu(i) for i in members]
        for request in batch.requests:
            extra = ()
            if not self.serve_config.overlap and last_serial_reduce is not None:
                extra = (last_serial_reduce,)
            names = request_task_names(request.req_id, 0, members)
            tasks.extend(
                emit_request_tasks(
                    request,
                    0,
                    plans[request.req_id],
                    group_gpus,
                    self.resources,
                    batch.admit_ms,
                    stage=f"b{batch.batch_id}",
                    extra_deps=extra,
                )
            )
            emissions[request.req_id] = [
                _Emission(
                    request,
                    0,
                    batch.group,
                    list(members),
                    names,
                    batch.batch_id,
                    batch.formed_ms,
                    batch.admit_ms,
                )
            ]
            last_serial_reduce = names["reduce"]
            if request.payload is not None:
                engine = self._engine_for(len(members))
                results[request.req_id] = engine.execute(
                    list(request.payload.scalars),
                    list(request.payload.points),
                    request.curve,
                ).point
        return last_serial_reduce

    def _resolve(
        self,
        tasks: list[Task],
        emissions: dict[int, list[_Emission]],
        resolution: _Resolution,
        group_free: dict[int, float],
        quarantined: dict[int, float],
        commit_ms: float | None = None,
    ) -> Simulation:
        """Re-plan until every emitted request's last attempt completes and
        passes verification; returns the finished simulation.

        A lost attempt (GPU death before its transfer landed, or a
        permanent transfer error) is re-emitted after the failure's
        detection tick on the request's group shrunk to its survivors —
        or, if the whole group died, on the least-loaded surviving group
        — re-planned at the survivors' capacity through the plan cache.

        With chunk verification on, an attempt that ran on a Byzantine
        GPU cheating in that attempt is *rejected* the moment its reduce
        completes (verify-on-receive: detection is host-side, no
        heartbeat tick), the cheater lands in ``quarantined``, and the
        attempt is re-emitted exactly like a lost one — but only onto
        GPUs that are both alive and trusted.  The verdict itself is
        modelled from the plan's ground truth (like the engine's analytic
        path); the chunk-level 2G2T algebra is exercised by
        :meth:`repro.core.distmsm.DistMsm.execute`.

        Each round adds only the newly emitted tasks to the resolution's
        simulation, commits at ``commit_ms`` (the batch-close instant of
        an in-stream resolve), probes a copy for the verdicts, and looks
        only at the open requests; afterwards requests whose last attempt
        completed in the committed part leave the open set.
        """
        cheaters = resolution.cheaters
        max_rounds = len(resolution.faults.events) + self.system.num_gpus + 2
        for _ in range(max_rounds):
            resolution.feed(tasks, emissions)
            simulation = resolution.simulation
            if commit_ms is not None:
                simulation.commit(commit_ms)
            probe = simulation.probe()
            #: (attempt to replace, release instant, tasks the retry waits on)
            pending: list[tuple[_Emission, float, tuple[str, ...]]] = []
            for req_id in resolution.open:
                last = emissions[req_id][-1]
                span = probe.span(last.names["reduce"])
                if span is None:
                    fail_at = max(
                        (
                            f.at_ms
                            for name in (
                                *last.names["gpu"],
                                last.names["xfer"],
                                last.names["reduce"],
                            )
                            for f in (probe.failure(name),)
                            if f is not None
                        ),
                        default=last.admit_ms,
                    )
                    # a dependency can fail before the request is even
                    # admitted (the one-at-a-time chain); the retry still
                    # waits for the admission
                    detect = detection_time_ms(fail_at, GPU_HEARTBEAT_MS)
                    pending.append((last, max(detect, last.admit_ms), ()))
                elif any(
                    g in cheaters and cheaters[g].cheats_in_round(last.attempt)
                    for g in last.gpu_indices
                ):
                    for g in last.gpu_indices:
                        if g in cheaters and cheaters[g].cheats_in_round(last.attempt):
                            quarantined.setdefault(g, span.end_ms)
                    # the verdict needs the result: should later work delay
                    # the rejected reduce, the retry waits for it to land
                    pending.append((last, span.end_ms, (last.names["reduce"],)))
            if not pending:
                if commit_ms is not None:
                    resolution.open = {
                        req_id: None
                        for req_id in resolution.open
                        if simulation.span(emissions[req_id][-1].names["reduce"])
                        is None
                    }
                return probe
            for emission, detect, receipt in sorted(
                pending, key=lambda p: p[0].request.req_id
            ):
                dead = self._known_dead(resolution.faults, detect) | set(quarantined)
                members = self._surviving_members(emission.group, dead)
                group = emission.group
                if not members:
                    live = self._live_groups(dead)
                    if not live:
                        raise FaultRecoveryError(
                            "no trusted GPU left to serve on: every GPU is "
                            "dead or quarantined"
                        )
                    group = min(live, key=lambda g: (group_free[g], g))
                    members = self._surviving_members(group, dead)
                engine = self._engine_for(len(members))
                plan, hit = self.plan_cache.lookup(
                    engine, emission.request.curve, emission.request.n
                )
                not_before = detect + (0.0 if hit else PLAN_MS)
                attempt = emission.attempt + 1
                names = request_task_names(
                    emission.request.req_id, attempt, members
                )
                tasks.extend(
                    emit_request_tasks(
                        emission.request,
                        attempt,
                        plan,
                        [self.resources.gpu(i) for i in members],
                        self.resources,
                        not_before,
                        stage=f"b{emission.batch_id}.retry{attempt}",
                        extra_deps=receipt,
                    )
                )
                emissions[emission.request.req_id].append(
                    _Emission(
                        emission.request,
                        attempt,
                        group,
                        list(members),
                        names,
                        emission.batch_id,
                        emission.formed_ms,
                        emission.admit_ms,
                    )
                )
                group_free[group] = max(group_free[group], not_before) + plan.gpu_ms
        raise FaultRecoveryError(
            f"serving recovery did not converge within {max_rounds} re-plans"
        )

    # -- result assembly -----------------------------------------------------

    def _finish(
        self,
        submitted: list[ProofRequest],
        emissions: dict[int, list[_Emission]],
        results: dict[int, AffinePoint],
        admission: AdmissionController,
        batcher: ContinuousBatcher,
        timeline: Timeline,
        faults: FaultPlan | None,
        quarantined: dict[int, float],
        trace: "Tracer | None" = None,
    ) -> ServeResult:
        records: list[RequestRecord] = []
        for req_id in sorted(emissions):
            ems = emissions[req_id]
            first, last = ems[0], ems[-1]
            # the first GPU work of any attempt: GPU tasks of a lost attempt
            # that survive it may run after the retry has completed
            start_ms = min(
                timeline.spans[name].start_ms
                for emission in ems
                for name in emission.names["gpu"]
                if name in timeline.spans
            )
            complete_ms = timeline.spans[last.names["reduce"]].end_ms
            records.append(
                RequestRecord(
                    req_id=req_id,
                    label=first.request.label,
                    n=first.request.n,
                    arrival_ms=first.request.arrival_ms,
                    formed_ms=first.formed_ms,
                    admit_ms=first.admit_ms,
                    start_ms=start_ms,
                    complete_ms=complete_ms,
                    batch_id=first.batch_id,
                    group=first.group,
                    deadline_ms=first.request.deadline_ms,
                    retries=len(ems) - 1,
                    result=results.get(req_id),
                )
            )
        metrics = ServeMetrics(
            records=records,
            shed=list(admission.shed),
            makespan_ms=timeline.total_ms,
            utilization=timeline.utilization(),
            caches=cache_report(self.plan_cache),
        )
        if trace is not None and trace.enabled:
            self._record_trace(trace, records, admission.shed, timeline)
            if quarantined:
                trace.annotate(quarantined_gpus=sorted(quarantined))
        return ServeResult(
            requests=submitted,
            records=records,
            shed=list(admission.shed),
            batches=batcher.batches,
            timeline=timeline,
            metrics=metrics,
            faults=faults,
            emissions=emissions,
            quarantined=dict(quarantined),
        )

    def _record_trace(
        self,
        trace: "Tracer",
        records: list[RequestRecord],
        shed: list[ShedEvent],
        timeline: Timeline,
    ) -> None:
        """Transcribe a finished serving run onto ``trace``.

        Engine tasks land on their resource tracks via
        :func:`~repro.observe.record.record_timeline`; each request gets
        its own ``req{id}`` lane with queued → batched → executing spans
        and a ``done`` instant; shed requests get instants on the
        ``admission`` track with their reason.
        """
        from repro.observe.record import record_timeline

        trace.annotate(
            gpus=self.system.num_gpus,
            gpu_groups=len(self.groups),
            served=len(records),
            shed=len(shed),
        )
        record_timeline(trace, timeline)
        for record in records:
            lane = f"req{record.req_id}"
            args = {"batch": record.batch_id, "group": record.group, "n": record.n}
            trace.add_span(
                "queued", lane, record.arrival_ms, record.formed_ms,
                cat="request", args=args,
            )
            trace.add_span(
                "batched", lane, record.formed_ms, record.admit_ms,
                cat="request", args=args,
            )
            trace.add_span(
                "executing", lane, record.admit_ms, record.complete_ms,
                cat="request", args={**args, "retries": record.retries},
            )
            trace.instant("done", lane, record.complete_ms, cat="request")
        for event in sorted(shed, key=lambda e: (e.at_ms, e.request.req_id)):
            trace.instant(
                f"req{event.request.req_id}:shed",
                "admission",
                event.at_ms,
                cat="shed",
                args={"reason": event.reason},
            )


def serve_one_at_a_time(
    system: MultiGpuSystem,
    requests: list[ProofRequest],
    config: DistMsmConfig | None = None,
    plan_cache: PlanCache | None = None,
    faults: FaultPlan | None = None,
    trace: "Tracer | None" = None,
) -> ServeResult:
    """The FCFS baseline: one request at a time, no overlap anywhere.

    All GPUs serve each request in turn, and the next request's GPU phase
    waits for the previous request's host reduce — the serving equivalent
    of disabling §3.2.3 pipelining.  Same admission control, same caches,
    so the benchmark comparison isolates continuous batching itself.
    """
    server = MsmProofServer(
        system,
        config,
        ServeConfig(
            gpu_groups=1,
            max_batch_size=1,
            max_wait_ms=0.0,
            overlap=False,
        ),
        plan_cache=plan_cache,
    )
    return server.serve(requests, faults=faults, trace=trace)
