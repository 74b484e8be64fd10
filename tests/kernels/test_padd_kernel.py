"""Kernel descriptor: register, arithmetic and TC figures per optimisation."""

import pytest

from repro.curves.params import curve_by_name
from repro.kernels.padd_kernel import (
    KernelDescriptor,
    KernelOptimisations,
)

BLS377 = curve_by_name("BLS12-377")
MNT = curve_by_name("MNT4753")
BN254 = curve_by_name("BN254")


class TestOptimisationStages:
    def test_six_cumulative_stages(self):
        stages = KernelOptimisations.cumulative_stages()
        assert [name for name, _ in stages] == [
            "baseline",
            "PADD->PACC",
            "Optimal Exec Order",
            "Explicit Spill",
            "MontMul with TC",
            "On-the-fly Compact",
        ]

    def test_stages_are_cumulative(self):
        stages = [opts for _, opts in KernelOptimisations.cumulative_stages()]
        enabled_counts = [
            sum([o.use_pacc, o.optimal_order, o.explicit_spill, o.tc_montmul, o.tc_compaction])
            for o in stages
        ]
        assert enabled_counts == [0, 1, 2, 3, 4, 5]

    def test_all_and_none(self):
        assert KernelOptimisations.all().tc_compaction
        assert not KernelOptimisations.none().use_pacc


class TestRegisterFigures:
    """The paper's concrete register counts."""

    def test_baseline_padd_bls377_is_132_registers(self):
        desc = KernelDescriptor(BLS377, KernelOptimisations.none())
        assert desc.registers_per_thread("padd") == 132  # 11 x 12

    def test_baseline_padd_mnt_is_264_registers(self):
        desc = KernelDescriptor(MNT, KernelOptimisations.none())
        assert desc.registers_per_thread("padd") == 264  # 11 x 24

    def test_baseline_pacc_mnt_is_216_registers(self):
        """Intro: PACC 'demands 9 concurrent live big integers, using up to
        216 registers per thread'."""
        desc = KernelDescriptor(MNT, KernelOptimisations(use_pacc=True))
        assert desc.registers_per_thread("pacc") == 216  # 9 x 24

    def test_optimal_order_reduces_by_two(self):
        base = KernelDescriptor(BLS377, KernelOptimisations(use_pacc=True))
        opt = KernelDescriptor(BLS377, KernelOptimisations(use_pacc=True, optimal_order=True))
        assert base.live_bigints("pacc") - opt.live_bigints("pacc") == 2

    def test_spill_reaches_5_live_for_pacc(self):
        desc = KernelDescriptor(
            BLS377, KernelOptimisations(use_pacc=True, optimal_order=True, explicit_spill=True)
        )
        assert desc.live_bigints("pacc") == 5
        assert desc.registers_per_thread("pacc") == 60  # below the 64 target

    def test_padd_spill_floors_at_entry_liveness(self):
        desc = KernelDescriptor(
            BLS377, KernelOptimisations(use_pacc=True, optimal_order=True, explicit_spill=True)
        )
        assert desc.live_bigints("padd") == 8

    def test_compaction_penalises_wide_curves_only(self):
        opts = KernelOptimisations.all()
        wide = KernelDescriptor(MNT, opts)
        narrow = KernelDescriptor(BN254, opts)
        assert wide.live_bigints("pacc") == 7  # 5 + zero-padding pressure
        assert narrow.live_bigints("pacc") == 5

    def test_unknown_op_rejected(self):
        desc = KernelDescriptor(BN254, KernelOptimisations.none())
        with pytest.raises(ValueError):
            desc.live_bigints("pmul")
        with pytest.raises(ValueError):
            desc.modmuls("pmul")


class TestArithmeticFigures:
    def test_pacc_saves_4_modmuls(self):
        """Paper: dedicated PACC reduces 14 modular multiplications to 10."""
        base = KernelDescriptor(BN254, KernelOptimisations.none())
        pacc = KernelDescriptor(BN254, KernelOptimisations(use_pacc=True))
        assert base.modmuls("pacc") == 14
        assert pacc.modmuls("pacc") == 10
        assert pacc.modmuls("padd") == 14

    def test_word_ops_match_sos(self):
        desc = KernelDescriptor(BN254, KernelOptimisations.none())
        muls, adds = desc.word_ops_per_modmul()
        n = BN254.num_limbs
        assert muls == 2 * n * n + n
        assert adds > 0

    def test_mnt_word_cost_ratio(self):
        """MNT4753's modmul costs ~8.6x BLS12-377's (24 vs 12 limbs)."""
        mnt_muls, _ = KernelDescriptor(MNT, KernelOptimisations.none()).word_ops_per_modmul()
        bls_muls, _ = KernelDescriptor(BLS377, KernelOptimisations.none()).word_ops_per_modmul()
        assert mnt_muls / bls_muls == pytest.approx((2 * 576 + 24) / (2 * 144 + 12))


class TestTensorCoreFigures:
    def test_offload_share_zero_without_tc(self):
        desc = KernelDescriptor(BN254, KernelOptimisations.none())
        assert desc.tc_offload_share == 0.0

    def test_offload_share_approx_half(self):
        desc = KernelDescriptor(BN254, KernelOptimisations(tc_montmul=True))
        n = BN254.num_limbs
        assert desc.tc_offload_share == pytest.approx(n * n / (2 * n * n + n))


class TestSpillPlans:
    def test_no_plan_without_spill(self):
        desc = KernelDescriptor(BN254, KernelOptimisations.none())
        assert desc.spill_plan("pacc") is None

    def test_pacc_plan_feasible(self):
        desc = KernelDescriptor(BN254, KernelOptimisations(True, True, True))
        plan = desc.spill_plan("pacc")
        assert plan is not None
        assert plan.feasible
        assert plan.peak_shm_bigints <= 3
