"""The kernel model's per-process memos, and the keys of the plan caches.

`repro.gpu.timing.MODEL_CACHES` memoizes the kernel model's figures
(explicit-spill plans, per-op costs, occupancy) once per process, and
`AnalyticBackend` counts each assignment shape once per call.  A cold
estimate must equal a warm one to the last digit, and the work must run
once per key.  The window-size cache and the serving plan cache are keyed
by `DistMsm.plan_key`, so a system differing only in its host CPU, GPU
spec or node size tunes and plans for itself.
"""

from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from repro.core import distmsm
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.engine.faults import ByzantineWorker, FaultPlan, GpuFailure, Straggler
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.specs import AMD_6900XT, NVIDIA_A100, RTX_4090, HostCpuSpec
from repro.gpu.timing import MODEL_CACHES
from repro.kernels import padd_kernel
from repro.kernels.padd_kernel import KernelOptimisations
from repro.serve.plancache import PlanCache

from tests.core.test_golden_distmsm import _timeline_digest

BLS = curve_by_name("BLS12-381")
CURVES = ("BN254", "BLS12-381", "BLS12-377", "MNT4753")
STAGES = dict(KernelOptimisations.cumulative_stages())
SPECS = {"A100": NVIDIA_A100, "4090": RTX_4090, "6900XT": AMD_6900XT}
#: a death, a cheater and a straggler on distinct GPUs of eight
RECOVERED = FaultPlan.of(GpuFailure(0.05, 5), ByzantineWorker(2, seed=1), Straggler(3, 2.0))

#: systems that tune a different window from the default 4 x A100 DGX
#: system at BLS12-381, 2^16 points, although the name-only key matched
SLOW_CPU = MultiGpuSystem(4, cpu=HostCpuSpec("2x AMD Rome 7742", 128, 128.0 * 64))
SMALL_GPU = MultiGpuSystem(4, spec=replace(NVIDIA_A100, sms=8, int32_tops=1.0))


def _clear_model_caches() -> None:
    for cache in MODEL_CACHES:
        cache.cache_clear()
    distmsm._WINDOW_CACHE.clear()


def _outputs(curve: str, stage: str, spec: str, recovered: bool) -> dict:
    engine = DistMsm(
        MultiGpuSystem(8 if recovered else 4, spec=SPECS[spec]),
        DistMsmConfig(kernel_opts=STAGES[stage]),
    )
    result = engine.estimate(
        curve_by_name(curve), 1 << 16, faults=RECOVERED if recovered else None
    )
    return {
        "window_size": result.window_size,
        "time_ms": result.time_ms,
        "times": result.times.as_dict(),
        "counters": result.counters.as_dict(),
        "per_gpu_counters": [c.as_dict() for c in result.per_gpu_counters],
        "fault_report": result.fault_report and result.fault_report.to_json(),
        "byzantine_report": result.byzantine_report and result.byzantine_report.to_json(),
        "timeline_sha256": _timeline_digest(result.timeline),
    }


CASES = [
    (curve, stage, spec, recovered)
    for curve in CURVES
    for stage in STAGES
    for spec in SPECS
    for recovered in (False, True)
]


@pytest.fixture(scope="module")
def warm() -> dict:
    """Every case's outputs, each from the caches the cases before it filled."""
    return {case: _outputs(*case) for case in CASES}


class TestColdEqualsWarm:
    @pytest.mark.parametrize(
        "case", CASES, ids=["-".join(map(str, case)) for case in CASES]
    )
    def test_estimate(self, warm, case):
        _clear_model_caches()
        assert _outputs(*case) == warm[case]


class TestModelWork:
    """The model's figures are computed once per key, not once per use."""

    def test_spill_plans_once_per_dag_and_budget(self):
        plans: Counter = Counter()
        real = padd_kernel.plan_spills

        def plan_spills(dag, order, register_budget):
            plans[dag.name, register_budget] += 1
            return real(dag, order, register_budget)

        _clear_model_caches()
        with mock.patch.object(padd_kernel, "plan_spills", plan_spills):
            for curve in CURVES:
                for opts in STAGES.values():
                    for spec in SPECS.values():
                        engine = DistMsm(
                            MultiGpuSystem(8, spec=spec),
                            DistMsmConfig(kernel_opts=opts, window_size=10),
                        )
                        engine.estimate(curve_by_name(curve), 1 << 12)
                        engine.estimate(curve_by_name(curve), 1 << 12, faults=RECOVERED)
        assert plans and set(plans.values()) == {1}

    @pytest.mark.parametrize("strategy", ["bucket-split", "windows", "ndim"])
    @pytest.mark.parametrize("faults", [None, RECOVERED], ids=["honest", "recovered"])
    def test_each_assignment_shape_counted_once_per_call(self, strategy, faults):
        engine = DistMsm(
            MultiGpuSystem(8), DistMsmConfig(window_size=10, multi_gpu=strategy)
        )
        shapes: list = []
        real = DistMsm._accumulate_analytic

        def accumulate(self, work, n_eff, bucket_share, buckets_total):
            shapes.append((n_eff, bucket_share, buckets_total))
            return real(self, work, n_eff, bucket_share, buckets_total)

        n = 1 << 16
        with mock.patch.object(DistMsm, "_accumulate_analytic", accumulate):
            for _ in range(2):  # each call counts its own shapes
                shapes.clear()
                result = engine.estimate(BLS, n, faults=faults)
                buckets = engine.num_buckets(result.window_size)
                planned = {
                    (n * a.point_share, a.bucket_share, buckets)
                    for a in result.plan.assignments
                }
                assert len(shapes) == len(set(shapes)) < len(result.plan.assignments)
                assert set(shapes) >= planned


class TestPlanKey:
    @pytest.mark.parametrize("system", [SLOW_CPU, SMALL_GPU], ids=["cpu", "gpu"])
    def test_window_tuned_per_system(self, system):
        distmsm._WINDOW_CACHE.clear()
        alone = DistMsm(system).window_size_for(BLS, 1 << 16)
        distmsm._WINDOW_CACHE.clear()
        default = DistMsm(MultiGpuSystem(4)).window_size_for(BLS, 1 << 16)
        assert alone != default  # the case is one a shared key would get wrong
        assert DistMsm(system).window_size_for(BLS, 1 << 16) == alone

    def test_plan_cache_plans_per_host_cpu(self):
        cache = PlanCache()
        default, _ = cache.lookup(DistMsm(MultiGpuSystem(4)), BLS, 1 << 16)
        slow, hit = cache.lookup(DistMsm(SLOW_CPU), BLS, 1 << 16)
        assert not hit
        assert slow == PlanCache.build_plan(DistMsm(SLOW_CPU), BLS, 1 << 16)
        assert slow.cpu_ms > default.cpu_ms

    def test_key_holds_every_model_input(self):
        base = DistMsm(MultiGpuSystem(4)).plan_key(BLS, 1 << 16)
        assert DistMsm(MultiGpuSystem(4)).plan_key(BLS, 1 << 16) == base
        for engine in (
            DistMsm(SLOW_CPU),
            DistMsm(SMALL_GPU),
            DistMsm(MultiGpuSystem(4, gpus_per_node=2)),
            DistMsm(MultiGpuSystem(8)),
            DistMsm(MultiGpuSystem(4), DistMsmConfig(signed_digits=True)),
        ):
            assert engine.plan_key(BLS, 1 << 16) != base
        assert DistMsm(MultiGpuSystem(4)).plan_key(curve_by_name("BLS12-377"), 1 << 16) != base
        assert DistMsm(MultiGpuSystem(4)).plan_key(BLS, 1 << 17) != base
