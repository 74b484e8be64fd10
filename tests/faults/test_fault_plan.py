"""The repro.faults facade: recovery policy and seeded chaos generation."""

import pytest

from repro.core.planner import Assignment
from repro.engine.faults import GpuFailure, Straggler, TransferError
from repro.faults import (
    FaultPlan,
    FaultRecoveryError,
    FaultReport,
    RecoveryRound,
    detection_time_ms,
    random_fault_plan,
    redistribute_assignments,
)


class TestDetection:
    def test_death_between_ticks(self):
        assert detection_time_ms(0.4, 1.0) == pytest.approx(1.0)
        assert detection_time_ms(1.7, 1.0) == pytest.approx(2.0)

    def test_death_on_a_tick_caught_next_tick(self):
        # the tick at the death time still sees the last heartbeat
        assert detection_time_ms(2.0, 1.0) == pytest.approx(3.0)
        assert detection_time_ms(0.0, 0.5) == pytest.approx(0.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            detection_time_ms(1.0, 0.0)
        with pytest.raises(ValueError):
            detection_time_ms(-1.0, 1.0)


class TestRedistribution:
    def test_round_robin_over_survivors(self):
        lost = [Assignment(gpu=3, window=w) for w in range(5)]
        moved = redistribute_assignments(lost, [0, 2])
        assert [a.gpu for a in moved] == [0, 2, 0, 2, 0]
        # windows and ranges are untouched: same cells, new owners
        assert [a.window for a in moved] == [0, 1, 2, 3, 4]

    def test_no_survivors_raises(self):
        with pytest.raises(FaultRecoveryError):
            redistribute_assignments([Assignment(gpu=0, window=0)], [])


class TestFaultReport:
    def _report(self, fault_free=10.0, recovered=12.5, dead=(3,), retries=2):
        return FaultReport(
            plan=FaultPlan.of(GpuFailure(1.0, 3)),
            rounds=(RecoveryRound(0, (0, 1, 2, 3), (), (), 0.0, 0.0),),
            dead_gpus=dead,
            surviving_gpus=tuple(g for g in range(4) if g not in dead),
            fault_free_ms=fault_free,
            recovered_ms=recovered,
            window_size=12,
            replanned_window_size=11,
            retries=retries,
        )

    def test_overhead_and_flags(self):
        report = self._report()
        assert report.recovery_overhead_ms == pytest.approx(2.5)
        assert report.dead_gpus
        summary = report.summary()
        assert "1 GPU(s) lost" in summary
        assert "12->11" in summary

    def test_negative_makespan_rejected(self):
        with pytest.raises(ValueError):
            self._report(recovered=-1.0)


class TestChaosGenerator:
    def test_same_seed_same_plan(self):
        assert random_fault_plan(7, 8, 100.0) == random_fault_plan(7, 8, 100.0)

    def test_different_seeds_differ(self):
        plans = {random_fault_plan(seed, 8, 100.0) for seed in range(16)}
        assert len(plans) > 1

    def test_never_kills_every_gpu(self):
        for seed in range(64):
            plan = random_fault_plan(seed, 4, 50.0)
            dead = {e.gpu_id for e in plan.events if isinstance(e, GpuFailure)}
            assert len(dead) < 4

    def test_events_respect_bounds(self):
        for seed in range(32):
            plan = random_fault_plan(seed, 8, 25.0, gpus_per_node=4)
            for event in plan.events:
                if isinstance(event, (GpuFailure, Straggler)):
                    assert 0 <= event.gpu_id < 8
                if isinstance(event, (GpuFailure, TransferError)):
                    assert 0.0 <= event.at_ms < 25.0
                if isinstance(event, TransferError):
                    assert 0 <= event.node < 2

    def test_single_gpu_plan_never_kills(self):
        for seed in range(16):
            plan = random_fault_plan(seed, 1, 10.0)
            assert not any(isinstance(e, GpuFailure) for e in plan.events)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_fault_plan(0, 0, 10.0)
        with pytest.raises(ValueError):
            random_fault_plan(0, 4, 0.0)
