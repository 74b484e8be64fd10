"""The schedule verifier: paper peaks, and every invariant it enforces."""

import pytest

from repro.curves.point import PACC_MODMULS, PADD_MODMULS
from repro.kernels.dag import Op, OpDag, build_pacc_dag, build_padd_dag, peak_live
from repro.kernels.scheduler import find_optimal_schedule
from repro.verify import live_intervals, verify_schedule
from repro.verify.fixtures import broken_schedule_check

from tests.kernels.test_dag_scheduler import in_order


class TestPaperPeaks:
    """The §4.2.1 numbers, recomputed by the independent interval sweep."""

    def test_padd_written_order_peaks_at_11(self):
        result = verify_schedule(build_padd_dag(), max_modmuls=PADD_MODMULS)
        assert result.ok
        assert result.peak == 11
        assert result.modmuls == PADD_MODMULS

    def test_padd_optimal_order_peaks_at_9(self):
        dag = build_padd_dag()
        schedule = find_optimal_schedule(dag)
        result = verify_schedule(
            dag,
            order=list(schedule.order),
            claimed_peak=schedule.peak,
            max_modmuls=PADD_MODMULS,
        )
        assert result.ok
        assert result.peak == 9
        assert schedule.peak == 9

    def test_pacc_written_order_peaks_at_9(self):
        result = verify_schedule(build_pacc_dag(), max_modmuls=PACC_MODMULS)
        assert result.ok
        assert result.peak == 9
        assert result.modmuls == PACC_MODMULS

    def test_pacc_optimal_order_peaks_at_7(self):
        dag = build_pacc_dag()
        schedule = find_optimal_schedule(dag)
        result = verify_schedule(
            dag, order=list(schedule.order), claimed_peak=schedule.peak
        )
        assert result.ok
        assert result.peak == 7

    def test_sweep_agrees_with_simulation_on_all_kernels(self):
        # two structurally different liveness implementations, one answer
        for dag in (build_padd_dag(), build_pacc_dag()):
            schedule = find_optimal_schedule(dag)
            for order in (None, list(schedule.order)):
                swept = verify_schedule(dag, order=order).peak
                simulated = peak_live(dag if order is None else in_order(dag, order))
                assert swept == simulated


class TestInvariants:
    def simple_dag(self) -> OpDag:
        ops = [
            Op("m", "M", ("a", "b"), "mul"),
            Op("n", "N", ("M", "a"), "mul"),
            Op("d", "D", ("N", "M"), "sub", inplace=True),
        ]
        return OpDag(
            name="simple",
            ops=ops,
            live_at_start=frozenset({"a", "b"}),
            live_at_end=frozenset({"D"}),
        )

    def test_non_permutation_order_is_rejected(self):
        result = verify_schedule(self.simple_dag(), order=["m", "n"])
        assert not result.ok
        assert "permutation" in result.violations[0].message

    def test_use_before_def_is_rejected_and_names_the_op(self):
        result = verify_schedule(self.simple_dag(), order=["n", "m", "d"])
        assert not result.ok
        assert any(
            v.op == "n" and "before it is produced" in v.message
            for v in result.violations
        )

    def test_double_assignment_is_rejected(self):
        ops = [
            Op("m", "M", ("a", "a"), "mul"),
            Op("m2", "M", ("a", "a"), "mul"),
        ]
        with pytest.raises(ValueError):
            # the DAG layer itself refuses duplicate outputs...
            OpDag("dup", ops, frozenset({"a"}), frozenset({"M"}))

    def test_redefining_entry_value_is_rejected(self):
        ops = [Op("m", "a", ("a", "a"), "mul")]
        dag = OpDag("redef", ops, frozenset({"a"}), frozenset({"a"}))
        result = verify_schedule(dag)
        assert not result.ok
        assert any("kernel-entry" in v.message for v in result.violations)

    def test_inplace_destroying_live_value_is_rejected(self):
        ops = [
            Op("m", "M", ("a", "b"), "mul"),
            Op("d", "D", ("M", "b"), "sub", inplace=True),  # destroys M
            Op("n", "N", ("M", "a"), "mul"),  # ...but M is used again
        ]
        dag = OpDag(
            "hazard", ops, frozenset({"a", "b"}), frozenset({"D", "N"})
        )
        result = verify_schedule(dag)
        assert not result.ok
        assert any(
            v.op == "d" and "in-place" in v.message for v in result.violations
        )

    def test_inplace_destroying_kernel_output_is_rejected(self):
        ops = [
            Op("m", "M", ("a", "b"), "mul"),
            Op("d", "D", ("M", "b"), "sub", inplace=True),
        ]
        dag = OpDag(
            "hazard2", ops, frozenset({"a", "b"}), frozenset({"M", "D"})
        )
        result = verify_schedule(dag)
        assert not result.ok
        assert any("kernel output" in v.message for v in result.violations)

    def test_modmul_budget_overrun_is_reported(self):
        result = verify_schedule(build_padd_dag(), max_modmuls=PADD_MODMULS - 1)
        assert not result.ok
        assert any("budget" in v.message for v in result.violations)

    def test_peak_violation_names_the_peak_op(self):
        result = broken_schedule_check()
        assert not result.ok
        assert result.peak == 9
        violation = result.violations[0]
        assert "claimed peak 7" in violation.message
        assert violation.op is not None  # the op where the peak occurs


class TestLiveIntervals:
    def test_entry_values_start_before_the_schedule(self):
        dag = build_pacc_dag()
        intervals = live_intervals(dag, list(dag.ops))
        assert intervals["Xa"].start == -1

    def test_outputs_live_to_infinity(self):
        dag = build_pacc_dag()
        intervals = live_intervals(dag, list(dag.ops))
        for v in dag.live_at_end:
            assert intervals[v].end == float("inf")

    def test_loaded_operand_starts_at_first_use(self):
        dag = build_pacc_dag()
        intervals = live_intervals(dag, list(dag.ops))
        # XP is loaded from memory by op u2 at position 0
        assert intervals["XP"].start == 0
