"""Serving through GPU failures: bit-exact results at honest latency."""

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.curves.sampling import msm_instance
from repro.curves.toy import toy_curve
from repro.engine.faults import (
    ByzantineWorker,
    FaultPlan,
    GpuFailure,
    RetryPolicy,
    Straggler,
    TransferError,
)
from repro.engine.timeline import simulate
from repro.faults.chaos import random_fault_plan
from repro.faults.recovery import (
    GPU_HEARTBEAT_MS,
    FaultRecoveryError,
    detection_time_ms,
)
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.serve import (
    MsmPayload,
    MsmProofServer,
    ProofRequest,
    ServeConfig,
    poisson_trace,
)
from repro.serve.server import serve_one_at_a_time
from repro.verify.servecheck import verify_serving
from repro.verify.timelinecheck import verify_timeline

BLS = curve_by_name("BLS12-381")
TOY_CONFIG = DistMsmConfig(
    window_size=4, threads_per_block=32, points_per_thread=4
)


def _payload_trace(toy, count=10, spacing_ms=0.4):
    """Open-loop trace of real toy-curve MSMs plus their true answers."""
    requests, expected = [], {}
    at = 0.0
    for i in range(count):
        scalars, points = msm_instance(toy, 16, seed=100 + i)
        requests.append(
            ProofRequest(
                req_id=i,
                curve=toy,
                n=16,
                arrival_ms=at,
                payload=MsmPayload(tuple(scalars), tuple(points)),
            )
        )
        expected[i] = naive_msm(scalars, points, toy)
        at += spacing_ms
    return requests, expected


def _serve(requests, faults=None, gpus=4, **kw):
    kw.setdefault("gpu_groups", 2)
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("max_wait_ms", 0.5)
    server = MsmProofServer(
        MultiGpuSystem(gpus), TOY_CONFIG, ServeConfig(**kw)
    )
    return server.serve(requests, faults=faults)


class TestBitExactUnderFaults:
    """Satellite: GpuFailure mid-serve, results bit-exact, latency honest."""

    def test_all_requests_complete_bit_exactly(self):
        toy = toy_curve()
        requests, expected = _payload_trace(toy)
        result = _serve(requests, faults=FaultPlan.of(GpuFailure(1.0, 1)))
        assert len(result.records) == len(requests)
        assert result.shed == []
        for record in result.records:
            assert record.result == expected[record.req_id]

    def test_failure_actually_forced_retries(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy)
        result = _serve(requests, faults=FaultPlan.of(GpuFailure(1.0, 1)))
        assert result.metrics.retried_requests > 0
        retried = [r for r in result.records if r.retries > 0]
        assert all(r.retries >= 1 for r in retried)

    def test_latency_is_honestly_higher_than_fault_free(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy)
        clean = _serve(requests)
        faulty = _serve(requests, faults=FaultPlan.of(GpuFailure(1.0, 1)))
        assert clean.metrics.retried_requests == 0
        # the same trace through a failure must not report equal-or-better
        # tail latency: retries and lost capacity show up in the metrics
        assert faulty.metrics.p99_ms > clean.metrics.p99_ms
        assert faulty.metrics.makespan_ms > clean.metrics.makespan_ms
        clean_by_id = {r.req_id: r for r in clean.records}
        for record in faulty.records:
            if record.retries > 0:
                assert record.total_ms > clean_by_id[record.req_id].total_ms

    def test_results_identical_with_and_without_faults(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy, count=8)
        clean = _serve(requests)
        faulty = _serve(requests, faults=FaultPlan.of(GpuFailure(1.0, 1)))
        clean_by_id = {r.req_id: r for r in clean.records}
        for record in faulty.records:
            assert record.result == clean_by_id[record.req_id].result

    def test_audits_pass_under_faults(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy)
        result = _serve(requests, faults=FaultPlan.of(GpuFailure(1.0, 1)))
        checked = verify_serving(
            result.requests, result.records, result.shed, result.timeline
        )
        assert checked.ok, [str(v) for v in checked.violations]
        tchecked = verify_timeline(result.timeline, faults=result.faults)
        assert tchecked.ok, [str(v) for v in tchecked.violations]

    def test_no_span_on_dead_gpu_after_detection(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy)
        faults = FaultPlan.of(GpuFailure(1.0, 1))
        result = _serve(requests, faults=faults)
        death = faults.gpu_death_times()[1]
        for name, span in result.timeline.spans.items():
            if span.resource.name == "gpu1":
                assert span.start_ms < death or span.end_ms <= death + 1e-9


class TestGroupDeathAndMigration:
    def test_whole_group_death_migrates_to_survivor(self):
        toy = toy_curve()
        requests, expected = _payload_trace(toy, count=8)
        # group 0 = {gpu0, gpu1}; kill both, survivors are group 1
        faults = FaultPlan.of(GpuFailure(0.8, 0), GpuFailure(0.8, 1))
        result = _serve(requests, faults=faults)
        assert len(result.records) == 8
        for record in result.records:
            assert record.result == expected[record.req_id]

    def test_all_gpus_dead_is_rejected_up_front(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy, count=4)
        faults = FaultPlan.of(*(GpuFailure(0.5, g) for g in range(4)))
        with pytest.raises(FaultRecoveryError, match="no survivor"):
            _serve(requests, faults=faults)

    @pytest.mark.parametrize(
        "event",
        [GpuFailure(1.0, 9), ByzantineWorker(7), Straggler(11, 3.0), TransferError(3, 1.0)],
        ids=lambda event: type(event).__name__,
    )
    def test_event_naming_a_missing_gpu_or_link_is_rejected(self, event):
        """A 4-GPU, one-node system has no gpu 7, 9 or 11 and no node-3
        link: the server raises like ``DistMsm.estimate`` does, instead of
        serving as if the event were not in the plan."""
        system, plan = MultiGpuSystem(4), FaultPlan.of(event)
        trace = [ProofRequest(i, BLS, 1 << 14, arrival_ms=0.5 * i) for i in range(3)]
        server = MsmProofServer(system, DistMsmConfig(window_size=10))
        with pytest.raises(ValueError, match="fault targets"):
            server.serve(trace, faults=plan)
        with pytest.raises(ValueError, match="fault targets"):
            DistMsm(system, DistMsmConfig(window_size=10)).estimate(BLS, 1 << 14, faults=plan)

    def test_degraded_capacity_shrinks_batches_after_death(self):
        trace = [
            ProofRequest(i, BLS, 1 << 14, arrival_ms=float(i) * 0.2)
            for i in range(12)
        ]
        server = MsmProofServer(
            MultiGpuSystem(2),
            DistMsmConfig(window_size=10),
            ServeConfig(gpu_groups=1, max_batch_size=4, max_wait_ms=0.5),
        )
        result = server.serve(trace, faults=FaultPlan.of(GpuFailure(0.1, 1)))
        assert len(result.records) == 12
        late = [b for b in result.batches if b.formed_ms > 1.0]
        assert late and max(len(b.requests) for b in late) <= 2


class TestByzantineServing:
    """Cheating workers under the serving loop: quarantine, retry, shed."""

    def test_cheater_quarantined_results_stay_bit_exact(self):
        toy = toy_curve()
        requests, expected = _payload_trace(toy)
        result = _serve(
            requests, faults=FaultPlan.of(ByzantineWorker(1, seed=5))
        )
        assert 1 in result.quarantined
        assert result.metrics.retried_requests > 0
        assert result.shed == []
        assert len(result.records) == len(requests)
        for record in result.records:
            assert record.result == expected[record.req_id]

    def test_audits_pass_with_a_cheater(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy)
        result = _serve(
            requests, faults=FaultPlan.of(ByzantineWorker(1, seed=5))
        )
        checked = verify_serving(
            result.requests, result.records, result.shed, result.timeline
        )
        assert checked.ok, [str(v) for v in checked.violations]
        tchecked = verify_timeline(result.timeline, faults=result.faults)
        assert tchecked.ok, [str(v) for v in tchecked.violations]

    def test_no_span_on_quarantined_gpu_after_quarantine(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy)
        result = _serve(
            requests, faults=FaultPlan.of(ByzantineWorker(1, seed=5))
        )
        at = result.quarantined[1]
        for span in result.timeline.spans.values():
            if span.resource.name == "gpu1":
                assert span.start_ms <= at + 1e-9

    def test_all_cheating_sheds_untrusted_capacity(self):
        from repro.serve.admission import SHED_UNTRUSTED

        toy = toy_curve()
        requests, _ = _payload_trace(toy, count=6)
        faults = FaultPlan.of(*(ByzantineWorker(g, seed=g) for g in range(4)))
        result = _serve(requests, faults=faults)
        assert result.records == []
        assert len(result.shed) == len(requests)
        assert {s.reason for s in result.shed} == {SHED_UNTRUSTED}

    def test_verification_disabled_means_no_quarantine(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy, count=6)
        server = MsmProofServer(
            MultiGpuSystem(4),
            DistMsmConfig(
                window_size=4,
                threads_per_block=32,
                points_per_thread=4,
                verify_chunks=False,
            ),
            ServeConfig(gpu_groups=2, max_batch_size=4, max_wait_ms=0.5),
        )
        result = server.serve(
            requests, faults=FaultPlan.of(ByzantineWorker(1, seed=5))
        )
        assert result.quarantined == {}
        assert result.metrics.retried_requests == 0

    def test_round_restricted_cheater_quarantined_after_first_forgery(self):
        toy = toy_curve()
        requests, expected = _payload_trace(toy)
        result = _serve(
            requests, faults=FaultPlan.of(ByzantineWorker(0, round=0, seed=7))
        )
        assert 0 in result.quarantined
        assert len(result.records) == len(requests)
        for record in result.records:
            assert record.result == expected[record.req_id]

    def test_death_and_cheater_together(self):
        toy = toy_curve()
        requests, expected = _payload_trace(toy)
        faults = FaultPlan.of(GpuFailure(1.0, 3), ByzantineWorker(0, seed=5))
        result = _serve(requests, faults=faults)
        assert 0 in result.quarantined
        assert len(result.records) == len(requests)
        for record in result.records:
            assert record.result == expected[record.req_id]
        checked = verify_serving(
            result.requests, result.records, result.shed, result.timeline
        )
        assert checked.ok, [str(v) for v in checked.violations]

    def test_deterministic_replay(self):
        toy = toy_curve()
        requests, _ = _payload_trace(toy, count=6)
        faults = FaultPlan.of(ByzantineWorker(1, seed=9))
        a = _serve(requests, faults=faults)
        b = _serve(requests, faults=faults)
        assert a.quarantined == b.quarantined
        assert a.metrics.makespan_ms == b.metrics.makespan_ms
        assert [r.total_ms for r in a.records] == [
            r.total_ms for r in b.records
        ]



def _chaos_case(seed, count=120, horizon_ms=60.0):
    """Every chaos knob on: deaths, stragglers, transfer errors, cheaters.

    The plan and the system share one node layout (4 GPUs per node), so
    every transfer error names a link the system has.
    """
    gpus = 4 if seed % 2 == 0 else 8
    plan = random_fault_plan(
        seed,
        gpus,
        horizon_ms=horizon_ms,
        gpus_per_node=4,
        straggler_probability=0.5,
        transfer_error_probability=0.7,
        byzantine_probability=0.5,
    )
    requests = poisson_trace(
        BLS, count, rate_rps=2500, seed=seed, sizes=(1 << 14, 1 << 16)
    )
    return MultiGpuSystem(gpus, gpus_per_node=4), plan, requests


class TestCapacityAtTheCloseInstant:
    """A batch binds only GPUs that are neither known dead nor quarantined
    at the instant it closes, not at the instant its close was scheduled."""

    @pytest.mark.parametrize("seed", [0, 3, 15])
    def test_no_first_attempt_on_a_lost_gpu(self, seed):
        system, plan, requests = _chaos_case(seed)
        server = MsmProofServer(
            system,
            serve_config=ServeConfig(gpu_groups=2, max_batch_size=4),
        )
        result = server.serve(requests, faults=plan)
        deaths = plan.gpu_death_times()
        stale = []
        for ems in result.emissions.values():
            first = ems[0]
            for g in first.gpu_indices:
                known_dead = g in deaths and detection_time_ms(
                    deaths[g], GPU_HEARTBEAT_MS
                ) <= first.formed_ms + 1e-9
                quarantined = result.quarantined.get(g, float("inf"))
                if known_dead or quarantined <= first.formed_ms + 1e-9:
                    stale.append((first.request.req_id, g, first.formed_ms))
        assert stale == []


#: seeds whose plans hold a GPU death, a straggler, a transient transfer
#: error, an always-cheating GPU and a one-round cheater at once
EVERY_KNOB_SEEDS = (1, 5, 23, 62, 82)


class TestServingOracle:
    """The resumed serving timeline is the one-shot simulation of its tasks."""

    @pytest.mark.parametrize("seed", EVERY_KNOB_SEEDS)
    @pytest.mark.parametrize(
        "mode", ["groups-1", "groups-2", "groups-2-unverified", "one-at-a-time"]
    )
    def test_timeline_equals_one_shot_simulate(self, mode, seed):
        system, plan, requests = _chaos_case(seed, count=60, horizon_ms=40.0)
        config = DistMsmConfig(verify_chunks=mode != "groups-2-unverified")
        if mode == "one-at-a-time":
            result = serve_one_at_a_time(system, requests, config, faults=plan)
        else:
            groups = 1 if mode == "groups-1" else 2
            server = MsmProofServer(
                system,
                config,
                ServeConfig(gpu_groups=groups, max_batch_size=4),
            )
            result = server.serve(requests, faults=plan)
        assert result.timeline == simulate(
            list(result.timeline.tasks),
            faults=plan,
            retry=RetryPolicy(),
        )
        checked = verify_serving(
            result.requests, result.records, result.shed, result.timeline
        )
        assert checked.ok, [str(v) for v in checked.violations]
        assert result.metrics.retried_requests > 0
        assert bool(result.quarantined) == (mode != "groups-2-unverified")


class TestServingCausality:
    """Runs that broke a serving invariant before three fixes: a retry
    released before its request was admitted, a record start taken from
    GPU work that outlived the retry, and a Byzantine retry that started
    before the rejected result landed (its verdict instant had moved)."""

    @pytest.mark.parametrize(
        "seed, mode",
        [(5, "one-at-a-time"), (38, "one-at-a-time"), (50, "one-at-a-time"),
         (30, "groups-1"), (46, "groups-2")],
    )
    def test_serving_invariants_hold(self, seed, mode):
        system, plan, requests = _chaos_case(seed)
        if mode == "one-at-a-time":
            result = serve_one_at_a_time(system, requests, faults=plan)
        else:
            groups = 1 if mode == "groups-1" else 2
            server = MsmProofServer(
                system,
                serve_config=ServeConfig(gpu_groups=groups, max_batch_size=4),
            )
            result = server.serve(requests, faults=plan)
        checked = verify_serving(
            result.requests, result.records, result.shed, result.timeline
        )
        assert checked.ok, [str(v) for v in checked.violations]
        for record in result.records:
            assert record.admit_ms <= record.start_ms <= record.complete_ms
