"""Byzantine-tolerant orchestration: catch, quarantine, stay bit-exact.

The acceptance bar: under any seeded :class:`ByzantineWorker` plan — up to
all-but-one GPU cheating, in any corruption mode, adaptively or not — the
functional result equals the honest point bit-for-bit, the cheaters are
rejected and quarantined, and the attached audit trail passes the
end-to-end integrity checker.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.core import bucket_sum, distmsm
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint, XyzzPoint, to_affine, xyzz_add, xyzz_neg
from repro.curves.sampling import msm_instance
from repro.engine.faults import (
    BYZANTINE_MODES,
    ByzantineWorker,
    FaultPlan,
    GpuFailure,
    Straggler,
)
from repro.faults import FaultRecoveryError, random_fault_plan
from repro.faults.byzantine import VERDICT_ACCEPTED, VERDICT_REJECTED
from repro.gpu.cluster import MultiGpuSystem
from repro.msm import outsource
from repro.msm.naive import naive_msm
from repro.verify.integritycheck import verify_msm_integrity
from repro.verify.timelinecheck import verify_timeline

from tests.conftest import TOY_CURVE

FAST = dict(window_size=4, threads_per_block=32, points_per_thread=4)


@pytest.fixture(scope="module")
def instance():
    scalars, points = msm_instance(TOY_CURVE, 32, seed=41)
    return scalars, points, naive_msm(scalars, points, TOY_CURVE)


def _engine(num_gpus=4, **overrides):
    return DistMsm(MultiGpuSystem(num_gpus), DistMsmConfig(**{**FAST, **overrides}))


def _audit(result, plan):
    checked = verify_timeline(result.timeline, subject="byzantine", faults=plan)
    assert checked.ok, [v.message for v in checked.violations]
    ichecked = verify_msm_integrity(result)
    assert ichecked.ok, [str(v) for v in ichecked.violations]


class TestCheaterCaught:
    @pytest.mark.parametrize("mode", BYZANTINE_MODES)
    def test_each_mode_rejected_quarantined_bit_exact(self, instance, mode):
        scalars, points, expected = instance
        engine = _engine(4)
        plan = FaultPlan.of(ByzantineWorker(1, mode=mode, seed=7))
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        report = result.byzantine_report
        assert report is not None and report.verified
        assert report.cheaters == (1,)
        assert report.caught
        assert report.quarantined_gpus == (1,)
        # the forged round-0 chunk was rejected; its slots were re-served
        assert report.outcome_for(0, 1).verdict == VERDICT_REJECTED
        rejected_slots = set(report.outcome_for(0, 1).slots)
        consumed = {slot: (rnd, gpu) for slot, rnd, gpu in report.consumed}
        assert all(consumed[s][1] != 1 for s in rejected_slots)
        _audit(result, plan)

    def test_quarantined_gpu_gets_no_further_dispatch(self, instance):
        scalars, points, _ = instance
        engine = _engine(4)
        result = engine.execute(
            scalars, points, TOY_CURVE,
            faults=FaultPlan.of(ByzantineWorker(2, seed=3)),
        )
        report = result.byzantine_report
        (at,) = [t for g, t in report.quarantined if g == 2]
        for chunk in report.chunks:
            if chunk.gpu == 2:
                assert chunk.dispatched_at_ms <= at + 1e-9

    def test_all_but_one_cheating_still_converges(self, instance):
        scalars, points, expected = instance
        engine = _engine(4)
        plan = FaultPlan.of(*[ByzantineWorker(g, seed=g + 1) for g in range(3)])
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        report = result.byzantine_report
        assert report.quarantined_gpus == (0, 1, 2)
        # every consumed slot came from the one honest survivor eventually
        final = {gpu for _, _, gpu in report.consumed}
        assert 0 not in final and 1 not in final and 2 not in final or final == {3}
        _audit(result, plan)

    def test_every_gpu_cheating_raises(self, instance):
        scalars, points, _ = instance
        engine = _engine(4)
        plan = FaultPlan.of(*[ByzantineWorker(g, seed=g) for g in range(4)])
        with pytest.raises(FaultRecoveryError, match="quarantined"):
            engine.execute(scalars, points, TOY_CURVE, faults=plan)

    def test_adaptive_round_one_cheater(self, instance):
        scalars, points, expected = instance
        engine = _engine(4)
        # gpu 0 dies so a recovery round happens; gpu 1 plays honest in
        # round 0 and forges only the re-dispatched round-1 chunk
        plan = FaultPlan.of(
            GpuFailure(0.0, 0), ByzantineWorker(1, round=1, seed=11)
        )
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected
        report = result.byzantine_report
        assert report.outcome_for(0, 1).verdict == VERDICT_ACCEPTED
        r1 = report.outcome_for(1, 1)
        assert r1 is not None and r1.verdict == VERDICT_REJECTED
        assert report.quarantined_gpus == (1,)
        _audit(result, plan)

    def test_out_of_range_byzantine_rejected(self, instance):
        scalars, points, _ = instance
        with pytest.raises(ValueError):
            _engine(4).execute(
                scalars, points, TOY_CURVE,
                faults=FaultPlan.of(ByzantineWorker(9)),
            )


class TestVerificationPolicy:
    def test_verify_off_lets_the_forgery_through(self, instance):
        scalars, points, expected = instance
        engine = _engine(4, verify_chunks=False)
        result = engine.execute(
            scalars, points, TOY_CURVE,
            faults=FaultPlan.of(ByzantineWorker(1, mode="wrong-result", seed=5)),
        )
        # the attack works: this is exactly what the protocol prevents
        assert result.point != expected
        report = result.byzantine_report
        assert report is not None and not report.verified
        assert not report.caught and not report.quarantined

    @pytest.mark.parametrize("verify_chunks", [True, "auto"])
    def test_verify_on_stops_the_forgery(self, instance, verify_chunks):
        """The two settings that turn verification on both catch it (1 and
        numpy.True_ once passed validation yet left it off)."""
        scalars, points, expected = instance
        engine = _engine(4, verify_chunks=verify_chunks)
        result = engine.execute(
            scalars, points, TOY_CURVE,
            faults=FaultPlan.of(ByzantineWorker(1, mode="wrong-result", seed=5)),
        )
        assert result.point == expected
        report = result.byzantine_report
        assert report is not None and report.verified
        assert report.caught and report.quarantined_gpus == (1,)

    def test_verify_on_without_cheaters_is_honest_overhead(self, instance):
        scalars, points, expected = instance
        engine = _engine(4, verify_chunks=True)
        result = engine.execute(scalars, points, TOY_CURVE)
        assert result.point == expected
        report = result.byzantine_report
        assert report.verified and not report.caught
        assert all(c.verdict == VERDICT_ACCEPTED for c in report.chunks)
        assert report.batch_checks >= 1
        _audit(result, FaultPlan())

    def test_auto_mode_only_verifies_under_byzantine_plans(self, instance):
        scalars, points, _ = instance
        engine = _engine(4)  # verify_chunks="auto"
        plain = engine.execute(
            scalars, points, TOY_CURVE, faults=FaultPlan.of(Straggler(1, 2.0))
        )
        assert plain.byzantine_report is None
        cheated = engine.execute(
            scalars, points, TOY_CURVE,
            faults=FaultPlan.of(ByzantineWorker(1, seed=5)),
        )
        assert cheated.byzantine_report is not None

    def test_failed_batch_check_falls_back_per_chunk(self, instance):
        scalars, points, expected = instance
        engine = _engine(4)
        result = engine.execute(
            scalars, points, TOY_CURVE,
            faults=FaultPlan.of(ByzantineWorker(1, seed=5)),
        )
        assert result.point == expected
        report = result.byzantine_report
        assert report.scheme == "2g2t-rlc"
        # round 0's batched check fails on the forgery, so each of its
        # delivered chunks is checked alone to find the cheater
        assert report.batch_checks >= 2
        assert report.chunk_checks >= 4

    def test_commit_and_verify_tasks_on_the_timeline(self, instance):
        scalars, points, _ = instance
        engine = _engine(4, verify_chunks=True)
        result = engine.execute(scalars, points, TOY_CURVE)
        commits = [n for n in result.timeline.spans if ":commit:" in n]
        verifies = [n for n in result.timeline.spans if ":verify:" in n]
        assert commits and verifies
        # accumulation gated behind every live chunk's response check
        reduce_start = result.timeline.spans["msm:host-reduce"].start_ms
        for name in verifies:
            assert reduce_start >= result.timeline.spans[name].end_ms - 1e-9

    def test_verification_tax_shows_in_the_makespan(self, instance):
        scalars, points, _ = instance
        base = _engine(4).execute(scalars, points, TOY_CURVE)
        taxed = _engine(4, verify_chunks=True).execute(scalars, points, TOY_CURVE)
        assert taxed.time_ms > base.time_ms


class TestSeededSweeps:
    @pytest.mark.parametrize("seed", range(6))
    def test_chaos_with_byzantine_stays_bit_exact(self, instance, seed):
        scalars, points, expected = instance
        engine = _engine(4)
        fault_free = engine.execute(scalars, points, TOY_CURVE)
        plan = random_fault_plan(
            seed, 4, max(fault_free.time_ms, 0.05),
            max_gpu_failures=1, byzantine_probability=0.5,
        )
        result = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert result.point == expected, seed
        if plan.byzantine_workers():
            assert result.byzantine_report is not None
            _audit(result, plan)

    def test_deterministic_replay(self, instance):
        scalars, points, _ = instance
        engine = _engine(4)
        plan = FaultPlan.of(ByzantineWorker(1, seed=9), Straggler(2, 1.5))
        a = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        b = engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert a.point == b.point
        assert a.timeline.spans == b.timeline.spans
        assert a.byzantine_report.to_json() == b.byzantine_report.to_json()


class TestProductionCurveForgery:
    """Forgery of bigint partials, whichever kernel summed the buckets.

    On BN254 ``bucket_sum`` returns batched-affine partials (``zz = zzz =
    1``), so ``bit-flip`` flips an affine ``x``; with the XYZZ kernel it
    flips a projective one.  Either way the cheater is caught and
    quarantined, the point is the oracle's and the audit trail is the
    same byte for byte.
    """

    @pytest.fixture(scope="class")
    def bn254_instance(self):
        curve = curve_by_name("BN254")
        scalars, points = msm_instance(curve, 16, seed=43)
        return curve, scalars, points, naive_msm(scalars, points, curve)

    @pytest.mark.parametrize("mode", BYZANTINE_MODES)
    def test_same_report_with_either_kernel(self, bn254_instance, mode):
        curve, scalars, points, expected = bn254_instance
        plan = FaultPlan.of(ByzantineWorker(1, mode=mode, seed=7))
        with mock.patch.object(bucket_sum, "uses_affine_kernel", lambda c: False):
            xyzz = _engine(4).execute(scalars, points, curve, faults=plan)
        affine = _engine(4).execute(scalars, points, curve, faults=plan)
        for result in (xyzz, affine):
            assert result.point == expected
            assert result.byzantine_report.caught
            assert result.byzantine_report.quarantined_gpus == (1,)
        assert xyzz.byzantine_report.to_json() == affine.byzantine_report.to_json()


def _forgery(forge):
    """A ``corrupt_partials`` stand-in that applies ``forge`` to a copy of
    the partials and reports the (window-weighted) value change."""

    def corrupt(mode, seed, rnd, gpu, partials, windows, window_size, curve):
        forged = [list(sums) for sums in partials]
        forge(forged, windows, curve)
        honest = outsource.chunk_value(partials, windows, window_size, curve)
        value = outsource.chunk_value(forged, windows, window_size, curve)
        changed = value is None or to_affine(value, curve) != to_affine(honest, curve)
        return forged, changed

    return corrupt


def _shift_between_windows(forged, windows, curve):
    """Move ``G`` from bucket 1 of the first slot into bucket 1 of a slot
    of another window: the unweighted bucket sum stays, the point moves."""
    g = XyzzPoint.from_affine(AffinePoint(curve.gx, curve.gy))
    dst = next(i for i, w in enumerate(windows) if w != windows[0])
    forged[0][1] = xyzz_add(forged[0][1], xyzz_neg(g, curve), curve)
    forged[dst][1] = xyzz_add(forged[dst][1], g, curve)


def _off_curve_bucket_zero(forged, windows, curve):
    """Put a point off the curve into bucket 0, which has weight zero."""
    forged[0][0] = XyzzPoint(curve.gx, curve.gy + 1, 1, 1)


class TestForgeriesTheValueMustCatch:
    """Forgeries that keep the unweighted sum ``sum_slots sum_b b * B_b``:
    only the window weights and the on-curve check tell them apart."""

    @pytest.fixture(scope="class", params=["BN254", "BLS12-381", "toy"])
    def setup(self, request):
        if request.param == "toy":
            curve, gpus, cfg = TOY_CURVE, 2, dict(window_size=4)
        else:
            curve, gpus, cfg = curve_by_name(request.param), 4, FAST
        scalars, points = msm_instance(curve, 32, seed=47)
        engine = DistMsm(MultiGpuSystem(gpus), DistMsmConfig(**cfg, verify_chunks=True))
        return engine, curve, scalars, points, naive_msm(scalars, points, curve)

    @pytest.mark.parametrize("forge", [_shift_between_windows, _off_curve_bucket_zero])
    def test_rejected_quarantined_and_bit_exact(self, setup, forge):
        engine, curve, scalars, points, expected = setup
        plan = FaultPlan.of(ByzantineWorker(1, seed=3))
        with mock.patch.object(distmsm, "corrupt_partials", _forgery(forge)):
            result = engine.execute(scalars, points, curve, faults=plan)
        report = result.byzantine_report
        assert report.outcome_for(0, 1).verdict == VERDICT_REJECTED
        assert report.outcome_for(0, 1).corrupted
        assert report.quarantined_gpus == (1,)
        assert result.point == expected
        _audit(result, plan)


class TestVerificationWork:
    """Every 2G2T quantity is computed once per call and protocol side."""

    def test_masks_and_folds_once_per_chunk_and_side(self):
        curve = curve_by_name("BN254")
        scalars, points = msm_instance(curve, 32, seed=53)
        engine = DistMsm(MultiGpuSystem(8), DistMsmConfig(**FAST))
        plan = FaultPlan.of(ByzantineWorker(2, seed=1), GpuFailure(0.01, 5))
        folds: list[int] = []
        masks: Counter = Counter()
        in_batch = []
        tables = []
        real = (outsource.chunk_value, outsource.mask_scalar, outsource.batch_inverse)

        def chunk_value(partials, windows, window_size, curve):
            folds.append(id(partials))
            return real[0](partials, windows, window_size, curve)

        def mask_scalar(challenge, rnd, gpu, curve):
            masks[rnd, gpu] += 1
            return real[1](challenge, rnd, gpu, curve)

        def batch_inverse(values, p, stats=None):
            tables.append(len(values))
            return real[2](values, p, stats)

        def weighted_bucket_sum(buckets, curve):
            in_batch.append(bool(batching))
            return fold(buckets, curve)

        def batch_verify(session, items):
            batching.append(True)
            try:
                return real_batch(session, items)
            finally:
                batching.pop()

        batching: list = []
        fold, real_batch = outsource.weighted_bucket_sum, distmsm.batch_verify
        with mock.patch.object(distmsm, "chunk_value", chunk_value), \
                mock.patch.object(outsource, "mask_scalar", mask_scalar), \
                mock.patch.object(outsource, "batch_inverse", batch_inverse), \
                mock.patch.object(outsource, "weighted_bucket_sum", weighted_bucket_sum), \
                mock.patch.object(distmsm, "batch_verify", batch_verify):
            result = engine.execute(scalars, points, curve, faults=plan)
            report = result.byzantine_report
            chunks = {(c.round, c.gpu) for c in report.chunks}
            delivered = sum(c.delivered for c in report.chunks)
            assert result.point == naive_msm(scalars, points, curve)
            assert report.rejected == 1 and result.fault_report.dead_gpus == (5,)
            assert report.batch_checks == len({r for r, _ in chunks}) > 1
            # the worker folds every chunk once, the dispatcher every
            # delivered one once: an honest chunk's partials twice, a
            # forged or a lost chunk's once each
            assert len(folds) == len(chunks) + delivered
            assert max(Counter(folds).values()) == 2
            assert masks == Counter(dict.fromkeys(chunks, 1))
            assert len(tables) == 1
            assert in_batch and not any(in_batch)

            # nothing carries over into the next call
            masks.clear()
            tables.clear()
            engine.execute(scalars, points, curve, faults=plan)
            assert masks == Counter(dict.fromkeys(chunks, 1))
            assert len(tables) == 1


class TestAnalyticByzantinePath:
    def test_estimate_models_detection_and_requarantine(self):
        curve = curve_by_name("BLS12-381")
        engine = DistMsm(MultiGpuSystem(8), DistMsmConfig(window_size=10))
        base = engine.estimate(curve, 1 << 16)
        plan = FaultPlan.of(ByzantineWorker(3, seed=2))
        result = engine.estimate(curve, 1 << 16, faults=plan)
        report = result.byzantine_report
        assert report is not None and report.caught
        assert report.quarantined_gpus == (3,)
        assert report.soundness_bits == curve.r.bit_length() - 1
        assert result.time_ms > base.time_ms
        ichecked = verify_msm_integrity(result)
        assert ichecked.ok, [str(v) for v in ichecked.violations]

    def test_estimate_verify_overhead_is_modelled(self):
        curve = curve_by_name("BLS12-381")
        base = DistMsm(MultiGpuSystem(8), DistMsmConfig(window_size=10)).estimate(
            curve, 1 << 16
        )
        taxed = DistMsm(
            MultiGpuSystem(8), DistMsmConfig(window_size=10, verify_chunks=True)
        ).estimate(curve, 1 << 16)
        assert taxed.time_ms > base.time_ms
        assert taxed.byzantine_report is not None
        assert taxed.byzantine_report.verified
