"""Fault injection semantics of the event-driven simulator."""

import pytest

from repro.engine.faults import (
    FaultPlan,
    GpuFailure,
    RetryPolicy,
    Straggler,
    TransferError,
    channel_resource_name,
    gpu_resource_name,
)
from repro.engine.resources import system_resources
from repro.engine.timeline import Task, simulate


@pytest.fixture()
def rig():
    """Two GPUs, one link: a -> t_a, b -> t_b, c after both transfers."""
    res = system_resources(2)
    g0, g1 = res.gpus
    link = res.channels[0]
    tasks = [
        Task("a", g0, 2.0),
        Task("b", g1, 3.0),
        Task("t_a", link, 1.0, ("a",), requires_alive=("gpu0",)),
        Task("t_b", link, 1.0, ("b",), requires_alive=("gpu1",)),
        Task("c", g0, 1.0, ("t_a", "t_b")),
    ]
    return res, tasks


class TestResourceNames:
    def test_resource_names(self):
        assert gpu_resource_name(3) == "gpu3"
        assert channel_resource_name(1) == "node1-link"
        assert GpuFailure(1.0, 3).resource == "gpu3"
        assert Straggler(2, 1.5).resource == "gpu2"
        assert TransferError(1, 0.5).resource == "node1-link"


class TestEventValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: GpuFailure(-1.0, 0),
            lambda: GpuFailure(float("nan"), 0),
            lambda: GpuFailure(1.0, -1),
            lambda: Straggler(0, 0.5),
            lambda: Straggler(-1, 2.0),
            lambda: TransferError(-1, 1.0),
            lambda: TransferError(0, -1.0),
            lambda: RetryPolicy(max_retries=-1),
            lambda: RetryPolicy(backoff_base_ms=0.0),
        ],
    )
    def test_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_duplicate_gpu_failure_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.of(GpuFailure(1.0, 0), GpuFailure(2.0, 0))

    def test_duplicate_straggler_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.of(Straggler(0, 2.0), Straggler(0, 3.0))

    def test_plan_accessors(self):
        plan = FaultPlan.of(
            GpuFailure(2.0, 1),
            Straggler(0, 1.5),
            TransferError(0, 4.0),
            TransferError(0, 1.0),
        )
        assert plan.death_times() == {"gpu1": 2.0}
        assert plan.gpu_death_times() == {1: 2.0}
        assert plan.slowdowns() == {"gpu0": 1.5}
        errors = plan.transfer_errors()["node0-link"]
        assert [e.at_ms for e in errors] == [1.0, 4.0]
        assert not plan.empty
        assert FaultPlan().empty

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_retries=3, backoff_base_ms=0.5)
        assert [policy.delay_ms(k) for k in (1, 2, 3)] == [0.5, 1.0, 2.0]


class TestGpuDeath:
    def test_kill_mid_task(self, rig):
        _, tasks = rig
        tl = simulate(tasks, faults=FaultPlan.of(GpuFailure(1.0, 0)))
        assert tl.failures
        killed = tl.failure_for("a")
        assert killed is not None
        assert killed.reason == "killed"
        assert killed.at_ms == 1.0
        assert killed.start_ms == 0.0
        # the chain behind the dead GPU cascades
        assert tl.failure_for("t_a").reason == "dep-failed"
        assert tl.failure_for("c").reason == "dep-failed"
        # the other GPU is untouched
        assert "b" in tl.spans and "t_b" in tl.spans

    def test_death_before_start_is_resource_dead(self, rig):
        _, tasks = rig
        tl = simulate(tasks, faults=FaultPlan.of(GpuFailure(0.0, 0)))
        assert tl.failure_for("a").reason == "resource-dead"

    def test_requires_alive_kills_inflight_transfer(self, rig):
        # gpu0 dies at 2.5: task a (ends 2.0) completed, but its transfer
        # [2.0, 3.0) holds gpu0 memory and dies with it
        _, tasks = rig
        tl = simulate(tasks, faults=FaultPlan.of(GpuFailure(2.5, 0)))
        assert "a" in tl.spans
        failure = tl.failure_for("t_a")
        assert failure.reason == "killed"
        assert failure.at_ms == 2.5
        # the link frees at the abort time, so t_b proceeds afterwards
        assert tl.spans["t_b"].start_ms >= 2.5

    def test_makespan_includes_aborted_work(self, rig):
        _, tasks = rig
        tl = simulate(tasks, faults=FaultPlan.of(GpuFailure(10.0, 1)))
        # everything completes before the far-future death: no failures
        assert not tl.failures

    def test_failure_total_counts(self, rig):
        _, tasks = rig
        tl = simulate(tasks, faults=FaultPlan.of(GpuFailure(2.9, 1)))
        assert tl.failure_for("b").at_ms == 2.9
        assert tl.total_ms >= 2.9


class TestStraggler:
    def test_slowdown_stretches_duration(self, rig):
        _, tasks = rig
        tl = simulate(tasks, faults=FaultPlan.of(Straggler(1, 2.0)))
        assert tl.spans["b"].duration_ms == pytest.approx(6.0)
        assert tl.spans["a"].duration_ms == pytest.approx(2.0)
        assert not tl.failures

    def test_slower_makespan(self, rig):
        _, tasks = rig
        base = simulate(tasks).total_ms
        slow = simulate(tasks, faults=FaultPlan.of(Straggler(1, 3.0))).total_ms
        assert slow > base


class TestTransferErrors:
    def test_transient_retry_with_backoff(self, rig):
        _, tasks = rig
        policy = RetryPolicy(max_retries=3, backoff_base_ms=0.5)
        # t_a runs [2.0, 3.0); the error at 2.2 aborts attempt 1
        tl = simulate(
            tasks, faults=FaultPlan.of(TransferError(0, 2.2)), retry=policy
        )
        assert not tl.failures
        (attempt,) = tl.attempts_for("t_a")
        assert attempt.attempt == 1
        assert attempt.start_ms == 2.0
        assert attempt.end_ms == 2.2
        assert attempt.retry_at_ms == pytest.approx(2.7)
        assert tl.spans["t_a"].start_ms >= 2.7

    def test_exhausted_retries_fail(self, rig):
        _, tasks = rig
        policy = RetryPolicy(max_retries=1, backoff_base_ms=0.1)
        # errors at every retry window: attempt 1 at 2.05, attempt 2 after
        plan = FaultPlan.of(
            TransferError(0, 2.05), TransferError(0, 2.5), TransferError(0, 3.5)
        )
        tl = simulate(tasks, faults=plan, retry=policy)
        failure = tl.failure_for("t_a")
        assert failure is not None
        assert failure.reason == "transfer-error"
        assert tl.failure_for("c").reason == "dep-failed"

    def test_permanent_error_fails_immediately(self, rig):
        _, tasks = rig
        plan = FaultPlan.of(TransferError(0, 2.2, transient=False))
        tl = simulate(tasks, faults=plan)
        assert tl.failure_for("t_a").reason == "transfer-error"
        assert tl.attempts_for("t_a") == ()

    def test_error_on_idle_link_expires_silently(self, rig):
        _, tasks = rig
        plan = FaultPlan.of(TransferError(0, 0.5))  # no transfer in flight
        tl = simulate(tasks, faults=plan)
        assert not tl.failures
        assert tl.attempts == ()

    def test_each_event_consumed_once(self, rig):
        _, tasks = rig
        # one error, two queued transfers: only the in-flight one aborts
        tl = simulate(tasks, faults=FaultPlan.of(TransferError(0, 2.2)))
        assert len(tl.attempts) == 1


class TestDeterminism:
    def test_identical_replay(self, rig):
        _, tasks = rig
        plan = FaultPlan.of(
            GpuFailure(2.5, 0), Straggler(1, 1.5), TransferError(0, 4.6)
        )
        a = simulate(tasks, faults=plan)
        b = simulate(tasks, faults=plan)
        assert a.spans == b.spans
        assert a.failures == b.failures
        assert a.attempts == b.attempts
        assert a.total_ms == b.total_ms

    def test_no_faults_matches_plain_simulate(self, rig):
        _, tasks = rig
        assert simulate(tasks).spans == simulate(tasks, faults=FaultPlan()).spans


class TestTaskFields:
    def test_not_before_delays_start(self, rig):
        res, _ = rig
        tl = simulate([Task("late", res.gpus[0], 1.0, not_before_ms=5.0)])
        assert tl.spans["late"].start_ms == 5.0

    def test_negative_not_before_rejected(self, rig):
        res, _ = rig
        with pytest.raises(ValueError):
            Task("bad", res.gpus[0], 1.0, not_before_ms=-1.0)
