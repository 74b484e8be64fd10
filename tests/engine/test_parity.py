"""Engine-vs-legacy parity: the refactor must not move a single number.

* the phase-barrier MSM timeline: its makespan equals ``PhaseTimes.total``
  (time within 1e-9, counters bitwise the same across backends);
* ``schedule_pipeline`` rebuilt on the engine reproduces the classic
  two-machine flow-shop recurrence and closed form exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DistMsmConfig
from repro.core import distmsm as distmsm_module
from repro.core.distmsm import NODE_SYNC_MS, DistMsm
from repro.core.multi_msm import (
    MsmJob,
    schedule_pipeline,
)
from repro.curves.params import curve_by_name
from repro.curves.sampling import sample_points, sample_scalars
from repro.curves.toy import toy_curve
from repro.gpu.cluster import MultiGpuSystem

from tests.core.test_multi_msm import identical_jobs_makespan

BLS = curve_by_name("BLS12-381")

CONFIGS = {
    "default": DistMsmConfig(window_size=10),
    "gpu-reduce": DistMsmConfig(window_size=10, bucket_reduce_on_cpu=False),
    "ndim": DistMsmConfig(window_size=10, multi_gpu="ndim"),
    "windows": DistMsmConfig(window_size=10, multi_gpu="windows"),
    "signed": DistMsmConfig(window_size=10, signed_digits=True),
    "precompute": DistMsmConfig(
        window_size=10, signed_digits=True, precompute=True
    ),
    "naive-scatter": DistMsmConfig(window_size=10, scatter="naive"),
}

#: the phase-barrier schedule's stages, in order
PHASES = (
    "scatter",
    "bucket-sum",
    "bucket-reduce-gpu",
    "bucket-reduce-cpu",
    "window-reduce",
    "transfer",
    "node-sync",
    "launch-overhead",
)


class TestEstimateTimelineParity:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("gpus", [1, 3, 8, 16])
    def test_legacy_timeline_total_equals_phase_times(self, name, gpus):
        engine = DistMsm(MultiGpuSystem(gpus), CONFIGS[name])
        result = engine.estimate(BLS, 1 << 18)
        assert result.timeline is not None
        assert result.timeline.total_ms == pytest.approx(
            result.times.total, abs=1e-9
        )
        assert result.time_ms == pytest.approx(result.times.total)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_phase_barriers_bound_the_makespan(self, name):
        """Each phase opens after the previous one closes, so the makespan
        lies between the busiest resource and every task back to back."""
        engine = DistMsm(MultiGpuSystem(4), CONFIGS[name])
        timeline = engine.estimate(BLS, 1 << 16).timeline
        assert [s.name for s in timeline.stages] == list(PHASES)
        envelopes = timeline.stage_spans()
        phases = [envelopes[stage] for stage in PHASES]
        for (_, prev_end), (start, _) in zip(phases, phases[1:]):
            assert start >= prev_end - 1e-9
        serial = sum(span.duration_ms for span in timeline.spans.values())
        assert max(timeline.busy_ms().values()) <= timeline.total_ms + 1e-9
        assert timeline.total_ms <= serial + 1e-9


class TestExecuteTimelineParity:
    @pytest.mark.parametrize(
        "name", ["default", "gpu-reduce", "ndim", "signed", "precompute"]
    )
    def test_functional_run_carries_matching_timeline(self, name):
        curve = toy_curve()
        cfg_small = DistMsmConfig(
            window_size=4,
            scatter=CONFIGS[name].scatter,
            bucket_reduce_on_cpu=CONFIGS[name].bucket_reduce_on_cpu,
            multi_gpu=CONFIGS[name].multi_gpu,
            signed_digits=CONFIGS[name].signed_digits,
            precompute=CONFIGS[name].precompute,
        )
        engine = DistMsm(MultiGpuSystem(2), cfg_small)
        scalars = sample_scalars(curve, 24, seed=5)
        points = sample_points(curve, 24, seed=6)
        result = engine.execute(scalars, points, curve)
        assert result.timeline is not None
        assert result.timeline.total_ms == pytest.approx(
            result.times.total, abs=1e-9
        )

    def test_empty_input_has_empty_timeline(self):
        engine = DistMsm(MultiGpuSystem(2), CONFIGS["default"])
        result = engine.execute([], [], toy_curve())
        assert result.timeline is not None
        assert result.timeline.total_ms == 0.0
        assert result.timeline.spans == {}


class TestNodeSyncConfig:
    def test_default_matches_legacy_constant(self):
        assert NODE_SYNC_MS == 0.2

    def test_sweeping_node_sync_shifts_transfer_phase(self, monkeypatch):
        engine = DistMsm(MultiGpuSystem(8), DistMsmConfig(window_size=10))
        monkeypatch.setattr(distmsm_module, "NODE_SYNC_MS", 0.0)
        t0 = engine.estimate(BLS, 1 << 18)
        monkeypatch.setattr(distmsm_module, "NODE_SYNC_MS", 1.5)
        t1 = engine.estimate(BLS, 1 << 18)
        assert t1.times.transfer == pytest.approx(t0.times.transfer + 1.5)
        assert t1.time_ms == pytest.approx(t0.time_ms + 1.5)


def _legacy_flow_shop(jobs):
    """The pre-engine recurrence, verbatim, as the parity oracle."""
    gpu_free = cpu_free = 0.0
    timeline = []
    for job in jobs:
        gpu_start = gpu_free
        gpu_end = gpu_start + job.gpu_ms
        cpu_start = max(gpu_end, cpu_free)
        cpu_end = cpu_start + job.cpu_ms
        gpu_free, cpu_free = gpu_end, cpu_end
        timeline.append((job.label, gpu_start, gpu_end, cpu_start, cpu_end))
    return timeline, (cpu_free if jobs else 0.0)


class TestFlowShopParity:
    @given(
        stages=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            ),
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_reproduces_legacy_recurrence(self, stages):
        jobs = [MsmJob(f"j{i}", g, c) for i, (g, c) in enumerate(stages)]
        schedule = schedule_pipeline(jobs)
        expected_timeline, expected_makespan = _legacy_flow_shop(jobs)
        assert schedule.timeline == expected_timeline  # bitwise, no approx
        assert schedule.pipelined_ms == expected_makespan

    @given(
        gpu_ms=st.floats(min_value=0.01, max_value=40.0, allow_nan=False),
        cpu_ms=st.floats(min_value=0.01, max_value=40.0, allow_nan=False),
        count=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_jobs_closed_form(self, gpu_ms, cpu_ms, count):
        jobs = [MsmJob(f"j{i}", gpu_ms, cpu_ms) for i in range(count)]
        schedule = schedule_pipeline(jobs)
        assert schedule.pipelined_ms == pytest.approx(
            identical_jobs_makespan(gpu_ms, cpu_ms, count)
        )

    def test_engine_timeline_attached(self):
        schedule = schedule_pipeline([MsmJob("a", 2.0, 1.0)])
        assert schedule.engine_timeline is not None
        assert schedule.engine_timeline.total_ms == pytest.approx(3.0)

    def test_negative_job_rejected(self):
        with pytest.raises(ValueError, match="negative stage time"):
            schedule_pipeline([MsmJob("bad", -1.0, 1.0)])
