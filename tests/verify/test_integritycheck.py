"""The integrity auditor: conservation of verified mass, end to end."""

from dataclasses import replace

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.sampling import msm_instance
from repro.engine.faults import ByzantineWorker, FaultPlan, GpuFailure
from repro.faults.byzantine import (
    VERDICT_ACCEPTED,
    VERDICT_LOST,
    VERDICT_REJECTED,
)
from repro.gpu.cluster import MultiGpuSystem
from repro.verify.fixtures import run_fixture
from repro.verify.integritycheck import verify_msm_integrity

from tests.conftest import TOY_CURVE
from tests.verify.test_cli import run_cli

FAST = dict(window_size=4, threads_per_block=32, points_per_thread=4)


@pytest.fixture(scope="module")
def cheated():
    scalars, points = msm_instance(TOY_CURVE, 32, seed=41)
    engine = DistMsm(MultiGpuSystem(4), DistMsmConfig(**FAST))
    return engine.execute(
        scalars, points, TOY_CURVE,
        faults=FaultPlan.of(ByzantineWorker(1, mode="wrong-result", seed=5)),
    )


def _tamper(result, **report_overrides):
    return replace(
        result, byzantine_report=replace(result.byzantine_report, **report_overrides)
    )


class TestCleanTrails:
    def test_real_cheater_run_passes(self, cheated):
        checked = verify_msm_integrity(cheated, subject="cheater run")
        assert checked.ok, [str(v) for v in checked.violations]
        assert checked.rejected >= 1 and checked.quarantined >= 1
        assert checked.consumed > 0

    def test_death_plus_cheater_passes(self):
        scalars, points = msm_instance(TOY_CURVE, 32, seed=41)
        engine = DistMsm(MultiGpuSystem(4), DistMsmConfig(**FAST))
        result = engine.execute(
            scalars, points, TOY_CURVE,
            faults=FaultPlan.of(GpuFailure(0.0, 2), ByzantineWorker(0, seed=9)),
        )
        checked = verify_msm_integrity(result)
        assert checked.ok, [str(v) for v in checked.violations]

    def test_unverified_run_with_honest_report_passes(self):
        scalars, points = msm_instance(TOY_CURVE, 32, seed=41)
        engine = DistMsm(
            MultiGpuSystem(4), DistMsmConfig(**FAST, verify_chunks=False)
        )
        result = engine.execute(
            scalars, points, TOY_CURVE,
            faults=FaultPlan.of(ByzantineWorker(1, seed=5)),
        )
        assert not result.byzantine_report.verified
        checked = verify_msm_integrity(result)
        assert checked.ok, [str(v) for v in checked.violations]


class TestTamperedTrails:
    def test_missing_report_fails(self):
        scalars, points = msm_instance(TOY_CURVE, 32, seed=41)
        engine = DistMsm(MultiGpuSystem(4), DistMsmConfig(**FAST))
        plain = engine.execute(scalars, points, TOY_CURVE)
        checked = verify_msm_integrity(plain)
        assert not checked.ok
        assert "no ByzantineReport" in checked.violations[0].message

    def test_laundered_verdict_fails(self, cheated):
        report = cheated.byzantine_report
        forged = next(c for c in report.chunks if c.verdict == VERDICT_REJECTED)
        doctored = _tamper(
            cheated,
            chunks=tuple(
                replace(c, verdict=VERDICT_ACCEPTED) if c is forged else c
                for c in report.chunks
            ),
            rejected=report.rejected - 1,
        )
        checked = verify_msm_integrity(doctored)
        assert not checked.ok
        assert any("soundness" in str(v) for v in checked.violations)

    def test_consuming_a_rejected_chunk_fails(self, cheated):
        report = cheated.byzantine_report
        forged = next(c for c in report.chunks if c.verdict == VERDICT_REJECTED)
        slot = forged.slots[0]
        doctored = _tamper(
            cheated,
            consumed=tuple(
                (s, forged.round, forged.gpu) if s == slot else (s, r, g)
                for s, r, g in report.consumed
            ),
        )
        checked = verify_msm_integrity(doctored)
        assert not checked.ok
        assert any("rejected" in str(v) for v in checked.violations)

    def test_missing_slot_fails(self, cheated):
        doctored = _tamper(cheated, consumed=cheated.byzantine_report.consumed[1:])
        checked = verify_msm_integrity(doctored)
        assert not checked.ok
        assert any("never consumed" in str(v) for v in checked.violations)

    def test_double_counted_slot_fails(self, cheated):
        consumed = cheated.byzantine_report.consumed
        doctored = _tamper(cheated, consumed=consumed + (consumed[0],))
        checked = verify_msm_integrity(doctored)
        assert not checked.ok
        assert any("twice" in str(v) for v in checked.violations)

    def test_forgotten_quarantine_fails(self, cheated):
        doctored = _tamper(cheated, quarantined=())
        checked = verify_msm_integrity(doctored)
        assert not checked.ok
        assert any("never quarantined" in str(v) for v in checked.violations)

    def test_dishonest_rejected_counter_fails(self, cheated):
        doctored = _tamper(cheated, rejected=0)
        checked = verify_msm_integrity(doctored)
        assert not checked.ok
        assert any("claims 0 rejected" in str(v) for v in checked.violations)

    def test_lost_chunk_with_accept_verdict_fails(self, cheated):
        report = cheated.byzantine_report
        victim = report.chunks[0]
        doctored = _tamper(
            cheated,
            chunks=(
                replace(victim, delivered=False),
                *report.chunks[1:],
            ),
        )
        checked = verify_msm_integrity(doctored)
        assert not checked.ok
        assert any(VERDICT_LOST in str(v) for v in checked.violations)


class TestFixtureAndCli:
    def test_forged_result_fixture_is_caught(self):
        report = run_fixture("forged-result")
        assert not report.ok
        assert any(v.rule == "integrity" for v in report.violations)

    def test_cli_inject_fault_exits_nonzero(self):
        proc = run_cli("--inject-fault", "forged-result")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL" in proc.stdout
        assert "integrity" in proc.stdout
