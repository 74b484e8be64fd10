"""The spill-plan checker: honest plans pass, every corruption is caught."""

from repro.curves.params import curve_by_name
from repro.gpu.specs import NVIDIA_A100
from repro.kernels.dag import build_pacc_dag, build_padd_dag
from repro.kernels.scheduler import find_optimal_schedule
from repro.kernels.spill import SpillPlan, plan_spills
from repro.verify import spill_bytes_per_thread, verify_spill_plan
from repro.verify.fixtures import broken_spill_check


def pacc_at_5():
    dag = build_pacc_dag()
    order = list(find_optimal_schedule(dag).order)
    plan = plan_spills(dag, order, register_budget=5)
    return dag, order, plan


class TestHonestPlans:
    def test_pacc_spill_at_5_verifies_and_peaks_at_5(self):
        dag, order, plan = pacc_at_5()
        result = verify_spill_plan(dag, order, plan)
        assert result.ok, [str(v) for v in result.violations]
        # the paper's §4.2.2 claim: PACC fits a 5-register budget
        assert plan.peak_registers == 5
        assert result.peak_registers <= 5

    def test_padd_spill_verifies(self):
        dag = build_padd_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=7)
        result = verify_spill_plan(dag, order, plan)
        assert result.ok, [str(v) for v in result.violations]

    def test_all_distmsm_curve_limb_counts_fit(self):
        dag, order, plan = pacc_at_5()
        for name in ("BN254", "BLS12-377", "BLS12-381", "MNT4753"):
            curve = curve_by_name(name)
            result = verify_spill_plan(dag, order, plan, num_limbs=curve.num_limbs)
            assert result.ok, (name, [str(v) for v in result.violations])


class TestCorruptions:
    def test_deleted_reload_is_use_before_reload(self):
        result = broken_spill_check()
        assert not result.ok
        violation = next(
            v for v in result.violations if "use before reload" in v.message
        )
        assert violation.op is not None
        assert violation.address is not None
        assert violation.address.startswith("shared:spill[")

    def test_double_spill_is_caught(self):
        dag, order, plan = pacc_at_5()
        first_spill = next(m for m in plan.moves if m[1] == "spill")
        broken = SpillPlan(
            register_budget=plan.register_budget,
            transfers=plan.transfers + 1,
            peak_shm_bigints=plan.peak_shm_bigints,
            peak_registers=plan.peak_registers,
            moves=[first_spill] + list(plan.moves),
        )
        result = verify_spill_plan(dag, order, broken)
        assert any("double-spill" in v.message for v in result.violations)

    def test_ghost_reload_is_caught(self):
        dag, order, plan = pacc_at_5()
        broken = SpillPlan(
            register_budget=plan.register_budget,
            transfers=plan.transfers + 1,
            peak_shm_bigints=plan.peak_shm_bigints,
            peak_registers=plan.peak_registers,
            moves=list(plan.moves) + [("<end>", "reload", "XP")],
        )
        result = verify_spill_plan(dag, order, broken)
        assert any(
            "not in shared memory" in v.message for v in result.violations
        )

    def test_lying_transfer_count_is_caught(self):
        dag, order, plan = pacc_at_5()
        broken = SpillPlan(
            register_budget=plan.register_budget,
            transfers=plan.transfers - 3,
            peak_shm_bigints=plan.peak_shm_bigints,
            peak_registers=plan.peak_registers,
            moves=list(plan.moves),
        )
        result = verify_spill_plan(dag, order, broken)
        assert any("claims" in v.message for v in result.violations)

    def test_unknown_op_in_moves_is_caught(self):
        dag, order, plan = pacc_at_5()
        broken = SpillPlan(
            register_budget=plan.register_budget,
            transfers=plan.transfers,
            peak_shm_bigints=plan.peak_shm_bigints,
            peak_registers=plan.peak_registers,
            moves=[("no_such_op", "spill", "Xa")] + list(plan.moves)[1:],
        )
        result = verify_spill_plan(dag, order, broken)
        assert any("unknown op" in v.message for v in result.violations)


class TestCapacity:
    def test_spill_bytes_accounting(self):
        assert spill_bytes_per_thread(2, 12) == 96
        assert spill_bytes_per_thread(0, 24) == 0

    def test_oversized_block_overflows_shared_memory(self):
        dag, order, plan = pacc_at_5()
        # MNT4753's 24 limbs with a full 1024-thread block per SM cannot
        # fit: 2 bigints x 96 B x 1024 threads = 196 KiB > 164 KiB.
        result = verify_spill_plan(
            dag, order, plan, num_limbs=24, threads_per_block=1024
        )
        assert any("capacity" in v.message for v in result.violations)

    def test_capacity_exactly_at_boundary_passes(self):
        dag, order, plan = pacc_at_5()
        num_limbs = 24
        result_probe = verify_spill_plan(dag, order, plan, num_limbs=num_limbs)
        per_thread = spill_bytes_per_thread(result_probe.peak_shm_bigints, num_limbs)
        capacity = NVIDIA_A100.shared_mem_per_sm_kb * 1024
        warp = NVIDIA_A100.warp_size
        fitting = capacity // per_thread // warp * warp
        at_boundary = verify_spill_plan(
            dag, order, plan, num_limbs=num_limbs, threads_per_block=fitting
        )
        assert at_boundary.ok, [str(v) for v in at_boundary.violations]
        over = verify_spill_plan(
            dag,
            order,
            plan,
            num_limbs=num_limbs,
            threads_per_block=fitting + NVIDIA_A100.warp_size,
        )
        assert not over.ok
