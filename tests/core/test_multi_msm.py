"""Cross-MSM pipelining (§3.2.3): scheduler properties and the closed form."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distmsm import DistMsm
from repro.core.multi_msm import (
    MsmJob,
    groth16_msm_jobs,
    msm_job_from_estimate,
    proof_msm_schedule,
    schedule_pipeline,
)
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem

BN254 = curve_by_name("BN254")

times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def identical_jobs_makespan(gpu_ms: float, cpu_ms: float, count: int) -> float:
    """Closed form for ``count >= 1`` identical jobs: first GPU stage, then the
    slower stage paces the pipeline, then the final CPU stage drains."""
    return gpu_ms + (count - 1) * max(gpu_ms, cpu_ms) + cpu_ms


class TestScheduler:
    def test_empty(self):
        sched = schedule_pipeline([])
        assert sched.pipelined_ms == 0.0
        assert sched.speedup == 1.0

    def test_single_job_no_overlap(self):
        sched = schedule_pipeline([MsmJob("a", 10, 3)])
        assert sched.pipelined_ms == 13.0
        assert sched.serial_ms == 13.0

    def test_cpu_hides_behind_gpu(self):
        """CPU reduces shorter than GPU stages vanish except the tail."""
        jobs = [MsmJob(f"m{i}", 10, 2) for i in range(4)]
        sched = schedule_pipeline(jobs)
        assert sched.pipelined_ms == pytest.approx(4 * 10 + 2)
        assert sched.serial_ms == pytest.approx(48)

    def test_cpu_bound_pipeline(self):
        jobs = [MsmJob(f"m{i}", 2, 10) for i in range(4)]
        sched = schedule_pipeline(jobs)
        assert sched.pipelined_ms == pytest.approx(2 + 4 * 10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            schedule_pipeline([MsmJob("bad", -1, 0)])

    def test_timeline_ordering(self):
        jobs = [MsmJob("a", 5, 4), MsmJob("b", 5, 4)]
        sched = schedule_pipeline(jobs)
        (_, ga0, ga1, ca0, ca1), (_, gb0, gb1, cb0, cb1) = sched.timeline
        assert ga1 == gb0  # GPU back to back
        assert ca0 >= ga1  # CPU waits for its GPU stage
        assert cb0 >= ca1  # CPU stages in order

    @given(st.lists(st.tuples(times, times), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_pipelined_never_worse_than_serial(self, raw):
        jobs = [MsmJob(str(i), g, c) for i, (g, c) in enumerate(raw)]
        sched = schedule_pipeline(jobs)
        assert sched.pipelined_ms <= sched.serial_ms + 1e-9

    @given(st.lists(st.tuples(times, times), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_lower_bound_is_bottleneck_resource(self, raw):
        jobs = [MsmJob(str(i), g, c) for i, (g, c) in enumerate(raw)]
        sched = schedule_pipeline(jobs)
        gpu_total = sum(j.gpu_ms for j in jobs)
        cpu_total = sum(j.cpu_ms for j in jobs)
        assert sched.pipelined_ms >= max(gpu_total, cpu_total) - 1e-9

    @given(times, times, st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_simulation(self, g, c, k):
        jobs = [MsmJob(str(i), g, c) for i in range(k)]
        assert schedule_pipeline(jobs).pipelined_ms == pytest.approx(
            identical_jobs_makespan(g, c, k)
        )


class TestGroth16Schedule:
    @pytest.fixture(scope="class")
    def engine(self):
        return DistMsm(MultiGpuSystem(8))

    def test_five_msm_jobs(self, engine):
        jobs = groth16_msm_jobs(engine, BN254, 1 << 20)
        assert [j.label for j in jobs] == [
            "A-query", "B-query(G1)", "B-query(G2)", "C-query", "H-query",
        ]
        assert all(j.gpu_ms > 0 for j in jobs)

    def test_g2_msm_triple_cost(self, engine):
        jobs = groth16_msm_jobs(engine, BN254, 1 << 20)
        g1 = next(j for j in jobs if j.label == "B-query(G1)")
        g2 = next(j for j in jobs if j.label == "B-query(G2)")
        assert g2.gpu_ms == pytest.approx(3 * g1.gpu_ms)

    def test_pipelining_pays(self, engine):
        """The §3.2.3 claim: overlapping reduces beats running serially."""
        sched = proof_msm_schedule(engine, BN254, 1 << 20)
        assert sched.speedup > 1.0

    def test_rejects_bad_constraints(self, engine):
        with pytest.raises(ValueError):
            groth16_msm_jobs(engine, BN254, 0)

    def test_job_split_reconstructs_estimate(self, engine):
        """GPU + raw CPU stages bound the engine's own overlapped total."""
        job = msm_job_from_estimate(engine, BN254, 1 << 20)
        est = engine.estimate(BN254, 1 << 20)
        assert job.gpu_ms <= est.time_ms + 1e-6
        assert job.gpu_ms + job.cpu_ms >= est.time_ms - 1e-6


class TestGantt:
    def test_empty(self):
        from repro.core.multi_msm import render_gantt

        assert "empty" in render_gantt(schedule_pipeline([]))

    def test_renders_all_jobs(self):
        from repro.core.multi_msm import render_gantt

        sched = schedule_pipeline([MsmJob("alpha", 5, 2), MsmJob("beta", 3, 1)])
        out = render_gantt(sched)
        assert "alpha" in out and "beta" in out
        assert "#" in out and "~" in out
        assert "makespan" in out

    def test_proof_schedule_renders(self):
        from repro.core.multi_msm import proof_msm_schedule, render_gantt

        engine = DistMsm(MultiGpuSystem(8))
        out = render_gantt(proof_msm_schedule(engine, BN254, 1 << 18))
        assert "H-query" in out
