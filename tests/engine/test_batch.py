"""Batched MSM serving: ``schedule_pipeline`` over GPU groups.

Independent requests share one system: each request's GPU stage runs on
one of ``gpu_groups`` GPU groups (a group-sized DistMsm estimates it), its
bucket-reduce on the one shared host CPU.
"""

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.core.multi_msm import msm_job_from_estimate, schedule_pipeline
from repro.curves.params import curve_by_name
from repro.engine.resources import GPU_COMPUTE, HOST_CPU, Resource
from repro.engine.timeline import Task, simulate
from repro.gpu.cluster import MultiGpuSystem
from repro.verify.timelinecheck import verify_timeline

BLS = curve_by_name("BLS12-381")
CONFIG = DistMsmConfig(window_size=10)


def _jobs(sizes: list[int], num_gpus: int, groups: int, config=CONFIG) -> list:
    """One job per request size, estimated on a group-sized system."""
    engine = DistMsm(MultiGpuSystem(num_gpus // groups), config)
    return [
        msm_job_from_estimate(engine, BLS, n, label=f"req{i}")
        for i, n in enumerate(sizes)
    ]


def _requests(count: int, groups: int = 1, num_gpus: int = 4, n: int = 1 << 16):
    return _jobs([n] * count, num_gpus, groups)


def _mixed(count: int = 8) -> list[int]:
    # alternating big/small: round-robin with 2 groups would pile every big
    # MSM onto group 0 while group 1 runs only the small ones
    return [(1 << 20) if i % 2 == 0 else (1 << 12) for i in range(count)]


def _round_robin_makespan(jobs: list, groups: int) -> float:
    """The makespan of the same flow shop with job ``i`` on group ``i % groups``."""
    cpu = Resource("cpu", HOST_CPU)
    gpus = [Resource(f"gpu{g}", GPU_COMPUTE, index=g) for g in range(groups)]
    tasks = []
    for i, job in enumerate(jobs):
        tasks.append(Task(f"{i}:gpu", gpus[i % groups], job.gpu_ms))
        tasks.append(Task(f"{i}:cpu", cpu, job.cpu_ms, deps=(f"{i}:gpu",)))
    return simulate(tasks).total_ms


def _group_of(schedule) -> list[int]:
    """Request index -> GPU group, read off the scheduled GPU stages."""
    return [
        schedule.engine_timeline.span(f"{job.label}#{i}:gpu").resource.index
        for i, job in enumerate(schedule.jobs)
    ]


class TestBatchScheduler:
    def test_empty_batch(self):
        batch = schedule_pipeline([], gpu_groups=2)
        assert batch.pipelined_ms == 0.0
        assert batch.serial_ms == 0.0
        assert batch.timeline == []
        assert batch.speedup == 1.0
        assert batch.throughput_rps == 0.0
        assert batch.mean_latency_ms == 0.0

    def test_single_request_matches_serial(self):
        batch = schedule_pipeline(_requests(1))
        assert batch.pipelined_ms == pytest.approx(batch.serial_ms)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_batching_beats_serial(self, groups):
        batch = schedule_pipeline(_requests(6, groups), gpu_groups=groups)
        assert batch.pipelined_ms < batch.serial_ms
        assert batch.speedup > 1.0
        assert batch.throughput_rps > 0.0

    def test_completions_cover_every_request(self):
        batch = schedule_pipeline(_requests(5))
        completions = [c_end for (*_, c_end) in batch.timeline]
        assert len(completions) == 5
        assert max(completions) == pytest.approx(batch.pipelined_ms)
        assert batch.mean_latency_ms <= batch.pipelined_ms

    def test_schedule_passes_independent_audit(self):
        batch = schedule_pipeline(_requests(4, 2, num_gpus=8), gpu_groups=2)
        checked = verify_timeline(batch.engine_timeline, subject="batch under test")
        assert checked.ok, [str(v) for v in checked.violations]

    def test_cpu_is_shared_across_groups(self):
        batch = schedule_pipeline(_requests(4, 2), gpu_groups=2)
        cpu_spans = [
            s
            for s in batch.engine_timeline.spans.values()
            if s.resource.kind == HOST_CPU
        ]
        assert len(cpu_spans) == 4
        # one CPU: reduces never overlap even though two groups feed it
        cpu_spans.sort(key=lambda s: s.start_ms)
        for prev, cur in zip(cpu_spans, cpu_spans[1:]):
            assert cur.start_ms >= prev.end_ms - 1e-9

    def test_more_groups_raise_overlap_speedup(self):
        one = schedule_pipeline(_requests(8, 1, num_gpus=8), gpu_groups=1)
        four = schedule_pipeline(_requests(8, 4, num_gpus=8), gpu_groups=4)
        assert four.speedup >= one.speedup

    def test_invalid_group_counts_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            schedule_pipeline(_requests(2), gpu_groups=0)


class TestGroupPolicy:
    def test_policies_agree_on_uniform_requests(self):
        # identical work items: least-loaded with lowest-index ties cycles
        # through the groups, so both groups balance perfectly
        jobs = _requests(6, 2)
        batch = schedule_pipeline(jobs, gpu_groups=2)
        assert _group_of(batch) == [0, 1, 0, 1, 0, 1]
        assert batch.pipelined_ms == pytest.approx(_round_robin_makespan(jobs, 2))

    def test_least_loaded_beats_round_robin_on_mixed_sizes(self):
        """The regression round-robin provably loses: alternating sizes."""
        jobs = _jobs(_mixed(), 4, 2)
        batch = schedule_pipeline(jobs, gpu_groups=2)
        assert batch.pipelined_ms < _round_robin_makespan(jobs, 2)

    def test_least_loaded_balances_mixed_sizes(self):
        """Alternating sizes: each big MSM goes to the group without one."""
        batch = schedule_pipeline(_jobs(_mixed(), 4, 2), gpu_groups=2)
        assert _group_of(batch) == [0, 1, 1, 0, 0, 1, 1, 0]

    def test_least_loaded_schedule_passes_audit(self):
        batch = schedule_pipeline(_jobs(_mixed(6), 4, 2), gpu_groups=2)
        checked = verify_timeline(batch.engine_timeline, subject="least-loaded batch")
        assert checked.ok, [str(v) for v in checked.violations]


#: schedules the former request-batch scheduler produced, recorded before it
#: was folded into ``schedule_pipeline``: per-request completions, makespan,
#: serial time, throughput and mean latency, all compared with ``==``
BENCH_SHAPE = {
    1: (
        [14.04531409006008, 25.500768359192733, 36.956222628325385,
         48.41167689745804, 59.86713116659069, 71.32258543572334,
         82.778039704856, 94.23349397398866],
        94.23349397398866, 112.36251272048062, 84.89550437563364, 54.13940403202436,
    ),
    2: (
        [15.769398122441736, 27.224852391574387, 38.68030666070704,
         50.13576092983969, 61.59121519897234, 73.046669468105,
         84.50212373723765, 95.95757800637031],
        95.95757800637031, 126.15518497953391, 83.37017426043106, 55.86348806440601,
    ),
    4: (
        [19.35538878340515, 30.810843052537805, 42.26629732167046,
         53.72175159080311, 65.17720585993577, 76.63266012906843,
         88.08811439820109, 99.54356866733374],
        99.54356866733374, 154.8431102672412, 80.36681934455584, 59.449478725369445,
    ),
}
MIXED_SHAPE = {
    1: (
        [8.588176916572307, 11.98536484848714, 15.382552780401975,
         18.77974071231681, 22.176928644231644, 25.57411657614648,
         28.971304508061316, 32.36849243997615],
        32.36849243997615, 50.07078143787739, 247.15392645595497, 20.47833467827423,
    ),
    2: (
        [13.049546137555755, 4.226395688557757, 16.44673406947059,
         19.843922001385426, 26.638297865215097, 23.24110993330026,
         30.035485797129933, 33.432673729044765],
        33.432673729044765, 69.10376730445404, 239.28687441620826, 20.864270652707447,
    ),
    4: (
        [22.501904343196678, 4.855603445200678, 25.899092275111514,
         8.252791377115512, 29.29628020702635, 11.649979309030346,
         36.09065607085602, 32.693468138941185],
        36.09065607085602, 109.43003115358943, 221.66402251856462, 21.404971895809787,
    ),
}


def _recorded(schedule) -> tuple:
    return (
        [c_end for (*_, c_end) in schedule.timeline],
        schedule.pipelined_ms,
        schedule.serial_ms,
        schedule.throughput_rps,
        schedule.mean_latency_ms,
    )


class TestRecordedSchedules:
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_bench_shape(self, groups):
        """BLS12-381, 2^20, window 12, 8 GPUs, 8 identical requests."""
        jobs = _jobs([1 << 20] * 8, 8, groups, DistMsmConfig(window_size=12))
        schedule = schedule_pipeline(jobs, gpu_groups=groups)
        assert _recorded(schedule) == BENCH_SHAPE[groups]

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_mixed_sizes(self, groups):
        """Alternating 2^20 / 2^12 requests on 4 GPUs, least-loaded."""
        schedule = schedule_pipeline(_jobs(_mixed(), 4, groups), gpu_groups=groups)
        assert _recorded(schedule) == MIXED_SHAPE[groups]
