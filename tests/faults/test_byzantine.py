"""Byzantine events, deterministic forgery, audit reports, and chaos plans."""

import json

import pytest

from repro.curves.point import XyzzPoint, to_affine
from repro.curves.sampling import sample_points
from repro.engine.faults import (
    BYZANTINE_MODES,
    ByzantineWorker,
    FaultPlan,
    GpuFailure,
    Straggler,
    TransferError,
)
from repro.faults import random_fault_plan
from repro.faults.byzantine import (
    VERDICT_ACCEPTED,
    VERDICT_REJECTED,
    ByzantineReport,
    ChunkOutcome,
    corrupt_partials,
)
from repro.msm.outsource import chunk_value

from tests.conftest import TOY_CURVE


#: the toy chunks below: two slots of 8 buckets, in windows 1 and 0
WINDOWS, WINDOW_SIZE = [1, 0], 3


def _partials(seed=3, slots=2, buckets=8):
    points = sample_points(TOY_CURVE, slots * buckets, seed=seed)
    return [
        [XyzzPoint.from_affine(points[s * buckets + b]) for b in range(buckets)]
        for s in range(slots)
    ]


def _corrupt(mode, partials, seed=5):
    honest = chunk_value(partials, WINDOWS, WINDOW_SIZE, TOY_CURVE)
    return corrupt_partials(
        mode, seed, 0, 1, partials, honest, WINDOWS, WINDOW_SIZE, TOY_CURVE
    )


def outcome_for(report, rnd: int, gpu: int):
    """The verdict on ``gpu``'s chunk in recovery round ``rnd``, or None."""
    return next((c for c in report.chunks if c.round == rnd and c.gpu == gpu), None)


class TestByzantineEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            ByzantineWorker(-1)
        with pytest.raises(ValueError):
            ByzantineWorker(0, mode="sabotage")
        with pytest.raises(ValueError):
            ByzantineWorker(0, round=-1)

    def test_cheats_in_round(self):
        always = ByzantineWorker(0)
        assert always.cheats_in_round(0) and always.cheats_in_round(7)
        adaptive = ByzantineWorker(0, round=1)
        assert not adaptive.cheats_in_round(0)
        assert adaptive.cheats_in_round(1)

    def test_plan_rejects_duplicate_byzantine_per_gpu(self):
        with pytest.raises(ValueError):
            FaultPlan.of(ByzantineWorker(1), ByzantineWorker(1, mode="bit-flip"))

    def test_plan_accessor(self):
        ev = ByzantineWorker(2, mode="bit-flip", seed=9)
        plan = FaultPlan.of(GpuFailure(1.0, 0), ev)
        assert plan.byzantine_workers() == {2: ev}
        assert FaultPlan().byzantine_workers() == {}


class TestCorruptPartials:
    @pytest.mark.parametrize("mode", BYZANTINE_MODES)
    def test_deterministic_per_seed_round_gpu(self, mode):
        partials = _partials()
        a, ca = _corrupt(mode, partials)
        b, cb = _corrupt(mode, partials)
        assert a == b and ca == cb

    def test_wrong_result_changes_the_value(self):
        partials = _partials()
        forged, changed = _corrupt("wrong-result", partials)
        assert changed
        assert to_affine(
            chunk_value(forged, WINDOWS, WINDOW_SIZE, TOY_CURVE), TOY_CURVE
        ) != to_affine(chunk_value(partials, WINDOWS, WINDOW_SIZE, TOY_CURVE), TOY_CURVE)

    def test_original_partials_never_mutated(self):
        partials = _partials()
        snapshot = [list(s) for s in partials]
        _corrupt("off-by-one-bucket", partials)
        assert partials == snapshot

    def test_bit_flip_on_all_identity_is_a_noop(self):
        partials = [[XyzzPoint.identity() for _ in range(4)]]
        honest = chunk_value(partials, [0], 2, TOY_CURVE)
        forged, changed = corrupt_partials(
            "bit-flip", 5, 0, 1, partials, honest, [0], 2, TOY_CURVE
        )
        assert forged == partials and not changed

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            _corrupt("gremlin", _partials())


def _report(**overrides):
    kwargs = dict(
        challenge_seed=2024,
        scheme="2g2t-rlc",
        soundness_bits=10,
        verified=True,
        cheaters=(1,),
        quarantined=((1, 0.5),),
        chunks=(
            ChunkOutcome(0, 0, (0,), False, True, VERDICT_ACCEPTED, 0.0, 0.4),
            ChunkOutcome(0, 1, (1,), True, True, VERDICT_REJECTED, 0.0, 0.5),
        ),
        consumed=((0, 0, 0), (1, 1, 0)),
        chunk_checks=2,
        batch_checks=1,
        rejected=1,
    )
    kwargs.update(overrides)
    return ByzantineReport(**kwargs)


class TestReports:
    def test_chunk_outcome_rejects_unknown_verdict(self):
        with pytest.raises(ValueError):
            ChunkOutcome(0, 0, (0,), False, True, "maybe", 0.0)

    def test_report_properties(self):
        report = _report()
        assert report.caught
        assert report.quarantined_gpus == (1,)
        assert outcome_for(report, 0, 1).verdict == VERDICT_REJECTED
        assert outcome_for(report, 3, 3) is None
        assert "1 chunk(s) rejected" in report.summary()
        assert "DISABLED" in _report(verified=False).summary()

    def test_byzantine_report_json_deterministic_and_sorted(self):
        a, b = _report().to_json(), _report().to_json()
        assert a == b
        decoded = json.loads(a)
        assert list(decoded) == sorted(decoded)
        assert decoded["consumed"] == [[0, 0, 0], [1, 1, 0]]
        assert decoded["chunks"][1]["verdict"] == VERDICT_REJECTED

    def test_fault_report_json_deterministic_and_sorted(self):
        from repro.faults import FaultReport, RecoveryRound

        def make():
            return FaultReport(
                plan=FaultPlan.of(GpuFailure(1.0, 3), ByzantineWorker(1, seed=4)),
                rounds=(RecoveryRound(0, (0, 1, 2, 3), (), (), 0.0, 0.0),),
                dead_gpus=(3,),
                surviving_gpus=(0, 1, 2),
                fault_free_ms=10.0,
                recovered_ms=12.5,
                window_size=12,
                replanned_window_size=11,
                retries=2,
            )

        a, b = make().to_json(), make().to_json()
        assert a == b
        decoded = json.loads(a)
        assert list(decoded) == sorted(decoded)
        types = [e["type"] for e in decoded["plan"]]
        assert types == ["GpuFailure", "ByzantineWorker"]

    def test_both_reports_exported_from_facade(self):
        import repro.faults as facade

        assert facade.ByzantineReport is ByzantineReport
        assert hasattr(facade, "FaultReport")
        assert "ByzantineReport" in facade.__all__
        assert "FaultReport" in facade.__all__


class TestChaosPlans:
    def test_reproducible_from_seed(self):
        a = random_fault_plan(5, 8, 10.0, byzantine_probability=0.5)
        b = random_fault_plan(5, 8, 10.0, byzantine_probability=0.5)
        assert a == b
        assert a != random_fault_plan(6, 8, 10.0, byzantine_probability=0.5)

    @pytest.mark.parametrize("seed", range(25))
    def test_always_recoverable_by_construction(self, seed):
        plan = random_fault_plan(seed, 8, 10.0, byzantine_probability=0.4)
        dead = set(plan.gpu_death_times())
        byz = set(plan.byzantine_workers())
        # at least one GPU alive; at least one alive GPU honest
        assert len(dead) < 8
        assert any(g not in dead and g not in byz for g in range(8))
        # transfer errors are always transient random chaos
        for event in plan.events:
            if isinstance(event, TransferError):
                assert event.transient
        # no byzantine worker on a dead GPU, valid modes only
        for g, ev in plan.byzantine_workers().items():
            assert g not in dead
            assert ev.mode in BYZANTINE_MODES
        # at most one straggler per GPU, never on a victim
        stragglers = [e.gpu_id for e in plan.events if isinstance(e, Straggler)]
        assert len(stragglers) == len(set(stragglers))
        assert not set(stragglers) & dead

    def test_kill_cap_honoured(self):
        for seed in range(10):
            plan = random_fault_plan(seed, 8, 10.0, max_gpu_failures=2)
            assert len(plan.gpu_death_times()) <= 2

    def test_byzantine_off_by_default(self):
        for seed in range(10):
            plan = random_fault_plan(seed, 8, 10.0)
            assert not plan.byzantine_workers()

    def test_validation(self):
        with pytest.raises(ValueError):
            random_fault_plan(0, 0, 10.0)
        with pytest.raises(ValueError):
            random_fault_plan(0, 4, 0.0)
        with pytest.raises(ValueError):
            random_fault_plan(0, 4, 10.0, byzantine_probability=1.5)

    def test_single_gpu_cluster_never_killed_or_cheating(self):
        for seed in range(5):
            plan = random_fault_plan(seed, 1, 10.0, byzantine_probability=1.0)
            assert not plan.gpu_death_times()
            assert not plan.byzantine_workers()
