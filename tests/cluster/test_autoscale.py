"""Autoscaler: burst reaction, cool-down anti-flapping, hysteresis."""

import pytest

from repro.cluster import (
    ACTION_DOWN,
    ACTION_UP,
    AutoscaleConfig,
    Autoscaler,
    ProofCluster,
    replay,
)
from repro.cluster.trace import diurnal_burst_trace
from repro.core.config import DistMsmConfig

CFG = AutoscaleConfig(
    min_nodes=1,
    max_nodes=4,
    control_interval_ms=10.0,
    queue_high=4.0,
    queue_low=0.5,
    cooldown_ms=100.0,
    provision_ms=20.0,
    down_stable_ticks=3,
)


class TestConfigValidation:
    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(queue_high=1.0, queue_low=2.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_nodes=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_nodes=4, max_nodes=2)
        with pytest.raises(ValueError):
            AutoscaleConfig(down_stable_ticks=0)


class TestBurstReaction:
    def test_deep_queue_scales_up(self):
        scaler = Autoscaler(CFG)
        assert scaler.tick(0.0, queued=0, active=1) == 1
        target = scaler.tick(10.0, queued=8, active=1)
        assert target > 1
        assert scaler.actions(ACTION_UP)

    def test_pressure_proportional_step(self):
        # a very deep queue jumps several nodes in ONE decision instead of
        # paying one cooldown per node
        scaler = Autoscaler(CFG)
        target = scaler.tick(0.0, queued=20, active=1)
        assert target >= 3

    def test_never_exceeds_max_nodes(self):
        scaler = Autoscaler(CFG)
        assert scaler.tick(0.0, queued=100, active=4) == 4


class TestCooldownAntiFlapping:
    def test_scale_up_is_never_immediately_reverted(self):
        scaler = Autoscaler(CFG)
        scaler.tick(0.0, queued=8, active=1)  # up, cooldown to 100
        # the burst drains instantly: pressure is low on every next tick
        for t in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0):
            target = scaler.tick(t, queued=0, active=2)
            assert target == 2, f"flapped at t={t}"
        assert not scaler.actions(ACTION_DOWN)
        # once the cooldown expires AND the hysteresis is satisfied, the
        # scale-down is allowed
        assert scaler.tick(110.0, queued=0, active=2) == 1

    def test_cooldown_also_suppresses_second_up(self):
        scaler = Autoscaler(CFG)
        scaler.tick(0.0, queued=8, active=1)
        target = scaler.tick(10.0, queued=20, active=2)
        assert target == 2
        assert "cooldown" in scaler.decisions[-1].reason


class TestHysteresis:
    def test_single_quiet_tick_never_drops_capacity(self):
        scaler = Autoscaler(CFG)
        assert scaler.tick(0.0, queued=0, active=3) == 3
        assert "1/3" in scaler.decisions[-1].reason

    def test_down_requires_consecutive_low_ticks(self):
        scaler = Autoscaler(CFG)
        scaler.tick(0.0, queued=0, active=3)
        scaler.tick(10.0, queued=9, active=3)  # pressure resets
        scaler.tick(110.0, queued=0, active=3)
        scaler.tick(120.0, queued=0, active=3)
        assert not scaler.actions(ACTION_DOWN)
        assert scaler.tick(130.0, queued=0, active=3) == 2

    def test_never_below_min_nodes(self):
        scaler = Autoscaler(CFG)
        for t in range(10):
            assert scaler.tick(t * 10.0, queued=0, active=1) == 1
        assert not scaler.actions()


class TestClusterIntegration:
    def test_burst_trace_scales_up_and_cooldown_holds(self):
        trace = diurnal_burst_trace(
            name="scale-test", seed=5, rate_rps=600.0, scale=0.4
        )
        cluster = ProofCluster(
            4,
            gpus_per_node=2,
            config=DistMsmConfig(window_size=10),
            autoscale=AutoscaleConfig(
                min_nodes=1,
                max_nodes=4,
                control_interval_ms=10.0,
                cooldown_ms=40.0,
                provision_ms=20.0,
            ),
        )
        result = replay(cluster, trace)
        ups = [d for d in result.scale_decisions if d.action == ACTION_UP]
        assert ups, "the burst must trigger at least one scale-up"
        # cool-down: no two capacity actions closer than cooldown_ms
        actions = [d for d in result.scale_decisions if d.action != "hold"]
        for a, b in zip(actions, actions[1:]):
            assert b.at_ms - a.at_ms >= 40.0 - 1e-9
        # everything was still served exactly once
        assert result.metrics.served == result.metrics.submitted - len(result.shed)
