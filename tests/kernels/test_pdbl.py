"""PDBL operation DAG: the paper's optimisations 'also apply to PDBL'."""

import pytest

from repro.curves.params import curve_by_name
from repro.curves.point import PDBL_MODMULS
from repro.kernels.dag import build_pdbl_dag, entry_live, peak_live
from repro.kernels.padd_kernel import KernelDescriptor, KernelOptimisations
from repro.kernels.scheduler import find_optimal_schedule
from repro.kernels.spill import plan_spills


class TestPdblDag:
    def test_mul_count_matches_cost_constant(self):
        assert sum(op.kind == "mul" for op in build_pdbl_dag().ops) == PDBL_MODMULS

    def test_entry_liveness_is_accumulator(self):
        assert entry_live(build_pdbl_dag()) == 4

    def test_written_peak(self):
        assert peak_live(build_pdbl_dag()) == 9

    def test_optimal_peak(self):
        """Rescheduling buys PDBL the same 2-big-integer reduction."""
        assert find_optimal_schedule(build_pdbl_dag()).peak == 7

    def test_spillable_to_five(self):
        dag = build_pdbl_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=5)
        assert plan.feasible
        assert plan.peak_shm_bigints <= 3


class TestPdblKernelFigures:
    def test_descriptor_exposes_pdbl(self):
        bls = curve_by_name("BLS12-377")
        base = KernelDescriptor(bls, KernelOptimisations.none())
        tuned = KernelDescriptor(bls, KernelOptimisations.all())
        assert base.registers_per_thread("pdbl") == 9 * 12
        assert tuned.live_bigints("pdbl") == 5  # 7 scheduled - 2 spilled

    def test_pdbl_cheaper_than_pacc(self):
        bn = curve_by_name("BN254")
        desc = KernelDescriptor(bn, KernelOptimisations.all())
        assert desc.modmuls("pdbl") < desc.modmuls("pacc")
