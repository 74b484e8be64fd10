"""Failure-aware re-planning and bit-exact recovery of DistMsm.

The acceptance bar: killing any single GPU at any event boundary of an
8-GPU ``execute`` run must yield a bit-exact MSM result, a timeline that
passes both the schedule checker and the fault checker, and an honest
recovery overhead; transient transfer errors must succeed within
``max_retries`` with correct backoff spacing.
"""

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.curves.sampling import msm_instance
from repro.engine.faults import (
    FaultPlan,
    GpuFailure,
    RetryPolicy,
    Straggler,
    TransferError,
)
from repro.faults import FaultRecoveryError, random_fault_plan
from repro.faults.recovery import GPU_HEARTBEAT_MS
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.verify.faultcheck import verify_fault_timeline
from repro.verify.timelinecheck import verify_timeline

from tests.conftest import TOY_CURVE

FAST = dict(window_size=4, threads_per_block=32, points_per_thread=4)


@pytest.fixture(scope="module")
def instance():
    scalars, points = msm_instance(TOY_CURVE, 32, seed=41)
    return scalars, points, naive_msm(scalars, points, TOY_CURVE)


def _engine(num_gpus=8, **overrides):
    return DistMsm(MultiGpuSystem(num_gpus), DistMsmConfig(**{**FAST, **overrides}))


def _audit(result, plan, config):
    retry = RetryPolicy(config.max_retries, config.backoff_base_ms)
    checked = verify_timeline(result.timeline, subject="recovered", faults=plan)
    assert checked.ok, [v.message for v in checked.violations]
    fchecked = verify_fault_timeline(result.timeline, plan, retry)
    assert fchecked.ok, [v.message for v in fchecked.violations]


class TestKillSweep:
    """Single-GPU kills at every event boundary: the acceptance criterion."""

    def test_kill_any_gpu_at_any_event_boundary(self, instance):
        scalars, points, expected = instance
        engine = _engine(8)
        # harvest the fault-path event boundaries from a never-triggering run
        probe = engine.execute(
            scalars, points, TOY_CURVE, faults=FaultPlan.of(GpuFailure(1e9, 0))
        )
        boundaries = sorted(
            {s.start_ms for s in probe.timeline.spans.values()}
            | {s.end_ms for s in probe.timeline.spans.values()}
        )
        assert len(boundaries) >= 4
        for gpu in range(8):
            for at in boundaries:
                plan = FaultPlan.of(GpuFailure(at, gpu))
                result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
                assert result.point == expected, (gpu, at)
                assert result.fault_report is not None
                assert result.fault_report.recovery_overhead_ms >= -1e-9, (gpu, at)
                _audit(result, plan, engine.config)

    def test_kill_at_zero_replans_onto_survivors(self, instance):
        scalars, points, expected = instance
        engine = _engine(8)
        plan = FaultPlan.of(GpuFailure(0.0, 2))
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        report = result.fault_report
        assert report.dead_gpus == (2,)
        assert 2 not in report.surviving_gpus
        assert len(report.rounds) == 2
        replan = report.rounds[1]
        assert 2 not in replan.gpus
        assert replan.detected_at_ms == pytest.approx(GPU_HEARTBEAT_MS)
        # no re-planned task may touch the dead GPU
        assert not any(
            ":g2" in name and ":r1:" in name for name in result.timeline.spans
        )


class TestRecoveryProperties:
    """Property-style: random seeded fault plans stay bit-exact and honest."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_plan_bit_exact(self, instance, seed):
        scalars, points, expected = instance
        engine = _engine(4)
        fault_free = engine.execute(scalars, points, TOY_CURVE)
        plan = random_fault_plan(seed, 4, max(fault_free.time_ms, 0.05))
        if plan.empty:
            return
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        report = result.fault_report
        assert report.recovered_ms >= report.fault_free_ms - 1e-9
        assert report.recovered_ms == result.time_ms
        _audit(result, plan, engine.config)

    def test_deterministic_replay(self, instance):
        scalars, points, _ = instance
        engine = _engine(4)
        plan = random_fault_plan(3, 4, 0.5)
        a = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        b = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert a.time_ms == b.time_ms
        assert a.timeline.spans == b.timeline.spans
        assert a.point == b.point

    def test_degrades_to_one_gpu(self, instance):
        scalars, points, expected = instance
        engine = _engine(8)
        plan = FaultPlan.of(*[GpuFailure(0.0, g) for g in range(7)])
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        assert result.fault_report.surviving_gpus == (7,)

    def test_all_gpus_dead_raises(self, instance):
        scalars, points, _ = instance
        engine = _engine(4)
        plan = FaultPlan.of(*[GpuFailure(0.0, g) for g in range(4)])
        with pytest.raises(FaultRecoveryError):
            engine.execute(scalars, points, TOY_CURVE, faults=plan)

    def test_out_of_range_fault_rejected(self, instance):
        scalars, points, _ = instance
        engine = _engine(4)
        with pytest.raises(ValueError):
            engine.execute(
                scalars, points, TOY_CURVE, faults=FaultPlan.of(GpuFailure(0.0, 9))
            )
        with pytest.raises(ValueError):
            engine.execute(
                scalars, points, TOY_CURVE, faults=FaultPlan.of(TransferError(5, 0.0))
            )

    def test_empty_plan_matches_fault_free_path(self, instance):
        scalars, points, expected = instance
        engine = _engine(4)
        result = engine.execute(scalars, points, TOY_CURVE, faults=FaultPlan())
        assert result.fault_report is None
        assert result.point == expected


class TestTransferRetries:
    def test_transient_error_retries_with_backoff(self, instance):
        scalars, points, expected = instance
        engine = _engine(8, backoff_base_ms=0.01)
        # place the error inside an actual transfer span
        probe = engine.execute(
            scalars, points, TOY_CURVE, faults=FaultPlan.of(GpuFailure(1e9, 0))
        )
        transfer = next(
            s for name, s in sorted(probe.timeline.spans.items())
            if ":transfer:" in name and s.duration_ms > 0
        )
        at = (transfer.start_ms + transfer.end_ms) / 2
        plan = FaultPlan.of(TransferError(0, at))
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        report = result.fault_report
        assert report.retries == 1
        assert not report.dead_gpus
        (attempt,) = result.timeline.attempts
        assert attempt.retry_at_ms == pytest.approx(attempt.end_ms + 0.01)
        _audit(result, plan, engine.config)

    def test_straggler_only_plan_keeps_result(self, instance):
        scalars, points, expected = instance
        engine = _engine(4)
        plan = FaultPlan.of(Straggler(1, 3.0))
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        assert result.fault_report.recovery_overhead_ms > 0
        _audit(result, plan, engine.config)


class TestAnalyticFaultPath:
    def test_estimate_recovers_and_reports(self):
        curve = curve_by_name("BLS12-381")
        engine = DistMsm(MultiGpuSystem(8), DistMsmConfig(window_size=10))
        base = engine.estimate(curve, 1 << 16)
        plan = FaultPlan.of(GpuFailure(base.time_ms * 0.1, 3))
        result = engine.estimate(curve, 1 << 16, faults=plan)
        report = result.fault_report
        assert report is not None
        assert report.recovered_ms >= report.fault_free_ms - 1e-9
        _audit(result, plan, engine.config)

    def test_replanned_window_size_for_survivors(self):
        # auto-tuned window: losing GPUs must re-derive the §3.1 optimum
        curve = curve_by_name("BLS12-381")
        engine = DistMsm(MultiGpuSystem(4), DistMsmConfig())
        base = engine.estimate(curve, 1 << 14)
        plan = FaultPlan.of(GpuFailure(0.0, 0), GpuFailure(0.0, 1))
        result = engine.estimate(curve, 1 << 14, faults=plan)
        report = result.fault_report
        expected = DistMsm(MultiGpuSystem(2), DistMsmConfig()).window_size_for(
            curve, 1 << 14
        )
        assert report.window_size == base.window_size
        assert report.replanned_window_size == expected
