"""Plan and precompute caches: memoization, LRU, and stats honesty."""

import pytest

from repro.core.backends import FunctionalBackend
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.curves.sampling import msm_instance, sample_points
from repro.curves.toy import toy_curve
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.msm.precompute import (
    PrecomputeTableCache,
    precompute_cache,
    precompute_tables,
)
from repro.serve import PlanCache, cache_report

BLS = curve_by_name("BLS12-381")
CONFIG = DistMsmConfig(window_size=10)


def _engine(gpus=4):
    return DistMsm(MultiGpuSystem(gpus), CONFIG)


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache()
        engine = _engine()
        first, hit1 = cache.lookup(engine, BLS, 1 << 16)
        again, hit2 = cache.lookup(engine, BLS, 1 << 16)
        assert (hit1, hit2) == (False, True)
        assert again is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_cached_plan_matches_engine_estimate(self):
        cache = PlanCache()
        engine = _engine()
        plan, _ = cache.lookup(engine, BLS, 1 << 16)
        est = engine.estimate(BLS, 1 << 16)
        assert plan.window_size == est.window_size
        assert plan.total_ms == pytest.approx(est.time_ms)
        assert plan.gpu_ms == pytest.approx(
            est.times.scatter + est.times.bucket_sum + est.times.launch
        )
        assert plan.transfer_ms == pytest.approx(est.times.transfer)
        assert plan.service_ms == pytest.approx(
            plan.gpu_ms + plan.transfer_ms + plan.cpu_ms
        )

    def test_key_distinguishes_gpu_count_and_size(self):
        cache = PlanCache()
        cache.lookup(_engine(4), BLS, 1 << 16)
        _, hit_gpus = cache.lookup(_engine(2), BLS, 1 << 16)
        _, hit_size = cache.lookup(_engine(4), BLS, 1 << 14)
        assert not hit_gpus and not hit_size
        assert len(cache) == 3

    def test_peek_is_read_only(self):
        cache = PlanCache()
        engine = _engine()
        assert cache.peek(engine, BLS, 1 << 16) is None
        assert cache.stats.lookups == 0
        plan, _ = cache.lookup(engine, BLS, 1 << 16)
        assert cache.peek(engine, BLS, 1 << 16) is plan
        assert cache.stats.lookups == 1

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        engine = _engine()
        cache.lookup(engine, BLS, 1 << 10)
        cache.lookup(engine, BLS, 1 << 11)
        cache.lookup(engine, BLS, 1 << 10)  # refresh 2^10
        cache.lookup(engine, BLS, 1 << 12)  # evicts 2^11
        assert cache.stats.evictions == 1
        assert cache.peek(engine, BLS, 1 << 11) is None
        assert cache.peek(engine, BLS, 1 << 10) is not None

    def test_report_folds_both_caches(self):
        cache = PlanCache()
        cache.lookup(_engine(), BLS, 1 << 12)
        report = cache_report(cache)
        assert report["plan"]["misses"] == 1
        assert report["plan_entries"] == 1
        assert set(report["precompute"]) >= {"hits", "misses", "hit_rate"}


class TestPrecomputeTableCache:
    def test_hit_returns_identical_tables(self):
        toy = toy_curve()
        points = sample_points(toy, 8, seed=3)
        cache = PrecomputeTableCache()
        first = cache.tables_for(points, toy, 4, 3)
        second = cache.tables_for(points, toy, 4, 3)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        assert second == first
        assert first == precompute_tables(points, toy, 4, 3)

    def test_prefix_served_from_larger_entry(self):
        toy = toy_curve()
        points = sample_points(toy, 8, seed=3)
        cache = PrecomputeTableCache()
        full = cache.tables_for(points, toy, 4, 5)
        prefix = cache.tables_for(points, toy, 4, 2)
        assert cache.stats.hits == 1
        assert prefix == full[:2]

    def test_more_windows_recomputes(self):
        toy = toy_curve()
        points = sample_points(toy, 8, seed=3)
        cache = PrecomputeTableCache()
        cache.tables_for(points, toy, 4, 2)
        grown = cache.tables_for(points, toy, 4, 4)
        assert cache.stats.misses == 2
        assert len(grown) == 4
        assert len(cache) == 1  # replaced, not duplicated

    def test_distinct_point_vectors_do_not_collide(self):
        toy = toy_curve()
        cache = PrecomputeTableCache()
        cache.tables_for(sample_points(toy, 8, seed=3), toy, 4, 2)
        cache.tables_for(sample_points(toy, 8, seed=4), toy, 4, 2)
        assert cache.stats.misses == 2 and len(cache) == 2

    def test_lru_eviction(self):
        toy = toy_curve()
        cache = PrecomputeTableCache(capacity=1)
        cache.tables_for(sample_points(toy, 4, seed=1), toy, 4, 2)
        cache.tables_for(sample_points(toy, 4, seed=2), toy, 4, 2)
        assert cache.stats.evictions == 1
        assert len(cache) == 1


class TestBackendRoutesThroughCache:
    def test_functional_backend_hits_cache_on_repeat_msm(self):
        """The satellite claim: precompute callers go through the cache."""
        toy = toy_curve()
        cfg = DistMsmConfig(
            window_size=4, precompute=True, threads_per_block=32, points_per_thread=4
        )
        engine = DistMsm(MultiGpuSystem(2), cfg)
        scalars, points = msm_instance(toy, 12, seed=5)
        shared = precompute_cache()
        shared.clear()
        first = engine.execute(scalars, points, toy)
        after_first = (shared.stats.hits, shared.stats.misses)
        second = engine.execute(scalars, points, toy)
        assert shared.stats.misses == after_first[1]  # no new table build
        assert shared.stats.hits > after_first[0]  # served from cache
        expected = naive_msm(scalars, points, toy)
        assert first.point == expected and second.point == expected
        shared.clear()

    def test_prepare_precompute_uses_shared_cache(self):
        toy = toy_curve()
        cfg = DistMsmConfig(window_size=4, precompute=True)
        engine = DistMsm(MultiGpuSystem(2), cfg)
        scalars, points = msm_instance(toy, 8, seed=6)
        shared = precompute_cache()
        shared.clear()
        backend = FunctionalBackend(engine, scalars, points, toy)
        backend.prepare_precompute(4, 3, 3)
        assert shared.stats.misses == 1
        backend2 = FunctionalBackend(engine, scalars, points, toy)
        backend2.prepare_precompute(4, 3, 3)
        assert shared.stats.hits >= 1
        shared.clear()
