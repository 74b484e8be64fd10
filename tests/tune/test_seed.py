"""Plan-cache seeding: tuned plans must actually reach the serving path.

The whole point of :mod:`repro.tune.seed` is key discipline — a tuned
plan is built with a *tuned* engine but installed under the key the
*serving* engine looks up with.  These tests prove the handoff: after
seeding, server lookups are hits carrying tuned stage times, and a served
workload runs off the seeded entries without planning latency.
"""

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem
from repro.serve import MsmProofServer, PlanCache, ServeConfig, poisson_trace
from repro.tune import seed_server, tuned_cached_plan

BLS = curve_by_name("BLS12-381")
N = 1 << 18
BUDGET = 32


class TestInstall:
    def test_install_then_lookup_is_a_hit(self):
        system = MultiGpuSystem(4)
        engine = DistMsm(system)
        cache = PlanCache()
        _, cached = tuned_cached_plan(system, BLS, N, budget=BUDGET)
        cache.install(engine, BLS, N, cached)
        assert cache.stats.lookups == 0  # install is neither hit nor miss
        got, hit = cache.lookup(engine, BLS, N)
        assert hit and got is cached
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_seeded_entry_beats_the_default_build(self):
        system = MultiGpuSystem(4)
        _, cached = tuned_cached_plan(system, BLS, N, budget=BUDGET)
        default = PlanCache.build_plan(DistMsm(system), BLS, N)
        assert cached.total_ms < default.total_ms
        assert cached.total_ms <= default.total_ms / 1.1  # the tuner pays here

    def test_install_respects_capacity(self):
        system = MultiGpuSystem(2)
        engine = DistMsm(system)
        cache = PlanCache(capacity=1)
        _, a = tuned_cached_plan(system, BLS, 1 << 16, budget=8)
        _, b = tuned_cached_plan(system, BLS, 1 << 17, budget=8)
        cache.install(engine, BLS, 1 << 16, a)
        cache.install(engine, BLS, 1 << 17, b)
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        assert cache.peek(engine, BLS, 1 << 17) is b


class TestSeedServer:
    def test_server_lookups_hit_tuned_plans(self):
        server = MsmProofServer(MultiGpuSystem(4))
        report = seed_server(server, [(BLS, N)], budget=BUDGET)
        assert report.installed == 1
        assert report.best_speedup >= 1.1
        cached, hit = server.plan_cache.lookup(server._engine_for(4), BLS, N)
        assert hit
        assert cached.window_size == report.entries[0].plan.window_size

    def test_grouped_server_seeds_every_group_size(self):
        server = MsmProofServer(
            MultiGpuSystem(4), serve_config=ServeConfig(gpu_groups=2)
        )
        report = seed_server(server, [(BLS, N)], budget=BUDGET)
        # 4 GPUs in 2 groups -> one group size (2), one entry per workload
        assert {e.scope for e in report.entries} == {"server/group2"}
        _, hit = server.plan_cache.lookup(server._engine_for(2), BLS, N)
        assert hit

    def test_served_workload_runs_off_seeded_plans(self):
        config = DistMsmConfig()
        serve_config = ServeConfig()
        workload = poisson_trace(BLS, count=4, rate_rps=100.0, seed=3, sizes=N)

        cold = MsmProofServer(MultiGpuSystem(4), config, serve_config)
        cold_result = cold.serve(list(workload))

        seeded = MsmProofServer(MultiGpuSystem(4), config, serve_config)
        seed_server(seeded, [(BLS, N)], budget=BUDGET)
        seeded_result = seeded.serve(list(workload))

        assert seeded.plan_cache.stats.misses == 0  # every lookup hit
        assert cold.plan_cache.stats.misses > 0
        # tuned stage times + no planning latency: strictly better p95
        assert seeded_result.metrics.p95_ms < cold_result.metrics.p95_ms

    def test_unseeded_shapes_fall_back_to_analytic_default(self):
        server = MsmProofServer(MultiGpuSystem(4))
        seed_server(server, [(BLS, N)], budget=BUDGET)
        other = 1 << 16  # never tuned
        cached, hit = server.plan_cache.lookup(server._engine_for(4), BLS, other)
        assert not hit
        default = PlanCache.build_plan(server._engine_for(4), BLS, other)
        assert cached.window_size == default.window_size
        assert cached.total_ms == pytest.approx(default.total_ms)
