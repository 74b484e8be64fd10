"""Persistent plan/precompute caches for the serving layer.

Planning an MSM is not free: the §3.1 window-size auto-tune sweeps the
feasible window range, and each probe runs the full analytic model.  A
serving workload repeats the same (curve, size, GPU-group) combinations
over and over, so the :class:`PlanCache` memoizes the planner's output —
window size, work :class:`~repro.core.planner.Plan`, and the per-request
stage times the batcher schedules with — keyed by
:meth:`~repro.core.distmsm.DistMsm.plan_key` (curve, n, GPU count, GPU
and host CPU specs, node size, config) with LRU eviction and hit/miss
statistics.  The server charges a modelled planning latency on
every miss (``repro.serve.server.PLAN_MS``), so cache behaviour shows up
honestly in request latency.

The sibling precompute-table cache (fixed point vectors, §2.2) lives in
:mod:`repro.msm.precompute` next to its producer; :func:`cache_report`
folds both caches' statistics into one serving-metrics snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.distmsm import DistMsm
from repro.core.planner import Plan
from repro.curves.params import CurveParams
from repro.gpu.timing import cpu_ec_time_ms
from repro.msm.precompute import CacheStats, precompute_cache


@dataclass(frozen=True)
class CachedPlan:
    """One memoized planning outcome for a (curve, n, group) combination.

    ``gpu_ms`` is the GPU-resident phase (scatter + bucket-sum + launch)
    of the group's makespan, ``transfer_ms`` the device-to-host copy on
    the node link, ``cpu_ms`` the *raw* (un-overlapped) host bucket-reduce
    — the serving timeline owns all overlap accounting, exactly like the
    cross-MSM flow shop (:func:`repro.core.multi_msm.msm_job_from_estimate`).
    """

    window_size: int
    plan: Plan
    gpu_ms: float
    transfer_ms: float
    cpu_ms: float
    total_ms: float

    @property
    def service_ms(self) -> float:
        """Un-overlapped single-request service time (admission estimate)."""
        return self.gpu_ms + self.transfer_ms + self.cpu_ms


class PlanCache:
    """LRU memo of planner output, keyed by ``DistMsm.plan_key``."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key_for(engine: DistMsm, curve: CurveParams, n: int) -> tuple:
        return engine.plan_key(curve, n)

    def peek(
        self, engine: DistMsm, curve: CurveParams, n: int
    ) -> CachedPlan | None:
        """Read-only probe: no planning, no stats, no LRU movement.

        Admission control and the batcher's deadline trigger use this —
        feasibility is judged from *known* service times; a shape the
        cache has never planned is admitted optimistically and planned
        when its batch forms.
        """
        return self._entries.get(self.key_for(engine, curve, n))

    def lookup(
        self, engine: DistMsm, curve: CurveParams, n: int
    ) -> tuple[CachedPlan, bool]:
        """The cached plan for ``(curve, n)`` on ``engine``; builds on miss.

        Returns ``(plan, hit)`` so callers can charge planning latency for
        misses.
        """
        key = self.key_for(engine, curve, n)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return cached, True
        self.stats.misses += 1
        built = self._build(engine, curve, n)
        self._entries[key] = built
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return built, False

    def install(
        self, engine: DistMsm, curve: CurveParams, n: int, plan: CachedPlan
    ) -> None:
        """Seed the cache with an externally built plan.

        This is the auto-tuner's write path (:mod:`repro.tune.seed`): the
        entry is stored under the key the *serving* engine will look it up
        with, so subsequent :meth:`lookup` calls hit the tuned plan
        instead of rebuilding the analytic default.  Counts as neither a
        hit nor a miss; evicts LRU entries if the cache is full.
        """
        key = self.key_for(engine, curve, n)
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def build_plan(engine: DistMsm, curve: CurveParams, n: int) -> CachedPlan:
        """Plan ``(curve, n)`` on ``engine`` without touching any cache.

        The same construction :meth:`lookup` memoizes on a miss, exposed
        for producers that build entries for :meth:`install` — the tuner
        plans with a *tuned* engine and installs under the serving
        engine's key.
        """
        return PlanCache._build(engine, curve, n)

    @staticmethod
    def _build(engine: DistMsm, curve: CurveParams, n: int) -> CachedPlan:
        est = engine.estimate(curve, n)
        cpu_raw_ms = cpu_ec_time_ms(
            est.counters.cpu_padd,
            est.counters.cpu_pdbl,
            engine.system.cpu_padd_rate(),
        )
        gpu_ms = est.times.scatter + est.times.bucket_sum + est.times.launch
        return CachedPlan(
            window_size=est.window_size,
            plan=est.plan,
            gpu_ms=gpu_ms,
            transfer_ms=est.times.transfer,
            cpu_ms=cpu_raw_ms,
            total_ms=est.time_ms,
        )


def cache_report(plan_cache: PlanCache) -> dict:
    """One JSON-ready snapshot of plan- and precompute-cache behaviour."""
    return {
        "plan": plan_cache.stats.as_dict(),
        "plan_entries": len(plan_cache),
        "precompute": precompute_cache().stats.as_dict(),
        "precompute_entries": len(precompute_cache()),
    }
