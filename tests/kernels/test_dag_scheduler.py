"""Register-pressure analysis: DAGs, exhaustive scheduling, spilling.

These tests pin the paper's §4.2 numbers:
* straightforward PADD / PACC peak live big integers: 11 / 9;
* after exhaustive rescheduling: 9 / 7 (Fig. 5);
* explicit spilling takes PACC to 5 registers with at most 3 big integers
  in shared memory at any time.
"""

import pytest

from repro.kernels.dag import (
    Op,
    OpDag,
    build_pacc_dag,
    build_padd_dag,
    entry_live,
    peak_live,
)
from repro.kernels.scheduler import find_optimal_schedule, written_order_peak
from repro.kernels.spill import plan_spills


def in_order(dag: OpDag, order) -> OpDag:
    """The same DAG with its ops written in ``order``."""
    by_name = {op.name: op for op in dag.ops}
    return OpDag(dag.name, [by_name[n] for n in order], dag.live_at_start, dag.live_at_end)


class TestDagStructure:
    def test_padd_has_14_muls(self):
        assert sum(op.kind == "mul" for op in build_padd_dag().ops) == 14

    def test_pacc_has_10_muls(self):
        assert sum(op.kind == "mul" for op in build_pacc_dag().ops) == 10

    def test_duplicate_op_names_rejected(self):
        with pytest.raises(ValueError):
            OpDag("bad", [Op("a", "X", ("A", "B"), "mul"), Op("a", "Y", ("A", "B"), "mul")])

    def test_duplicate_outputs_rejected(self):
        with pytest.raises(ValueError):
            OpDag("bad", [Op("a", "X", ("A", "B"), "mul"), Op("b", "X", ("A", "B"), "mul")])

    def test_dependencies(self):
        dag = build_pacc_dag()
        deps = dag.dependencies()
        assert deps["pp"] == {"p"}
        assert deps["u2"] == set()

    def test_entry_live(self):
        assert entry_live(build_padd_dag()) == 8
        assert entry_live(build_pacc_dag()) == 4

    def test_repr_shows_formula(self):
        op = Op("v1", "V1", ("V0", "PPP"), "sub", inplace=True)
        assert "V0 - PPP" in repr(op)
        assert "inplace" in repr(op)


class TestWrittenOrderPeaks:
    """Paper §4.2: 'peak register pressures for straightforward PADD and
    PACC implementations are 11 and 9 big integers'."""

    def test_padd_written_is_11(self):
        assert peak_live(build_padd_dag()) == 11

    def test_pacc_written_is_9(self):
        assert peak_live(build_pacc_dag()) == 9

    def test_written_order_peak_helper(self):
        assert written_order_peak(build_padd_dag()) == 11

    def test_order_dependency_checked(self):
        dag = build_pacc_dag()
        names = [op.name for op in dag.ops]
        with pytest.raises(ValueError, match="before it is produced"):
            peak_live(in_order(dag, reversed(names)))


class TestOptimalSchedule:
    """Paper §4.2.1: reordering reduces 11 -> 9 (PADD) and 9 -> 7 (PACC)."""

    def test_padd_optimal_is_9(self):
        assert find_optimal_schedule(build_padd_dag()).peak == 9

    def test_pacc_optimal_is_7(self):
        assert find_optimal_schedule(build_pacc_dag()).peak == 7

    def test_optimal_order_is_topological(self):
        dag = build_pacc_dag()
        result = find_optimal_schedule(dag)
        seen = set()
        deps = dag.dependencies()
        for name in result.order:
            assert deps[name] <= seen
            seen.add(name)

    def test_optimal_order_peak_consistent(self):
        """peak_live on the found order must agree with the DP's answer."""
        for build in (build_padd_dag, build_pacc_dag):
            dag = build()
            result = find_optimal_schedule(dag)
            assert peak_live(in_order(dag, result.order)) == result.peak

    def test_search_space_is_tractable(self):
        """The paper bounds the search at 12!; the DP visits far fewer states."""
        result = find_optimal_schedule(build_padd_dag())
        assert result.states_visited < 10_000

    def test_cycle_detection(self):
        dag = OpDag(
            "cyclic",
            [
                Op("a", "X", ("Y",), "sub"),
                Op("b", "Y", ("X",), "sub"),
            ],
        )
        with pytest.raises(ValueError):
            find_optimal_schedule(dag)


class TestSpilling:
    """Paper §4.2.2: PACC runs in 5 registers with <= 3 big ints in shm."""

    def test_pacc_budget_5_feasible(self):
        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=5)
        assert plan.feasible
        assert plan.peak_registers <= 5

    def test_pacc_shm_residency_within_paper_bound(self):
        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=5)
        assert plan.peak_shm_bigints <= 3  # paper: "maximum of 3"

    def test_pacc_transfer_count_recorded(self):
        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=5)
        spilled_vars = {v for (_, kind, v) in plan.moves if kind == "spill"}
        # the greedy Belady plan on our particular schedule moves 5 values;
        # the provable optimum is 4 (see TestOptimalSpilling)
        assert len(spilled_vars) == 5
        assert plan.transfers == 10

    def test_paper_claim_four_transferred_big_integers(self):
        """Paper §4.2.2: PACC in 5 registers costs 'transferring 4 big
        integers'.  The joint schedule+spill DP proves 4 is both achievable
        and minimal: 8 moves = 4 values stored and reloaded once each."""
        from repro.kernels.spill import schedule_and_spill

        transfers, _ = schedule_and_spill(build_pacc_dag(), register_budget=5)
        assert transfers == 8  # 4 spills + 4 reloads

    def test_optimal_spill_given_fixed_schedule(self):
        from tests.kernels.spill_oracle import plan_spills_optimal

        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        optimal = plan_spills_optimal(dag, order, register_budget=6)
        greedy = plan_spills(dag, order, register_budget=6)
        assert optimal.transfers == 4
        assert optimal.transfers <= greedy.transfers

    def test_optimal_spill_infeasible_budget(self):
        from tests.kernels.spill_oracle import plan_spills_optimal

        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        with pytest.raises(ValueError):
            plan_spills_optimal(dag, order, register_budget=2)

    def test_moves_balanced(self):
        """Every spill of a value that is later needed has a reload."""
        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=5)
        spills = sum(1 for (_, kind, _) in plan.moves if kind == "spill")
        reloads = sum(1 for (_, kind, _) in plan.moves if kind == "reload")
        assert spills == reloads

    def test_no_budget_no_moves(self):
        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=9)
        assert plan.transfers == 0

    def test_infeasible_budget_rejected(self):
        dag = build_pacc_dag()
        order = list(find_optimal_schedule(dag).order)
        with pytest.raises(ValueError):
            plan_spills(dag, order, register_budget=2)

    def test_padd_floor_is_entry_liveness(self):
        """PADD enters with 8 live partial-result coordinates; a budget of 8
        is feasible, below that the entry state alone overflows."""
        dag = build_padd_dag()
        order = list(find_optimal_schedule(dag).order)
        plan = plan_spills(dag, order, register_budget=8)
        assert plan.peak_registers == 8


def test_schedule_result_iterates_its_order():
    result = find_optimal_schedule(build_padd_dag())
    assert tuple(result) == result.order
