"""Edge cases for the explicit spill planner (paper §4.2.2).

Covers the boundary behaviours the main spill tests skip over: DAGs that
need no spilling at all, a value that stays live across a multiplication
(so the planner must carry or spill it around the mul's fresh temporary),
and budgets exactly at — and just below — the feasibility boundary.
"""

import pytest

from repro.kernels.dag import Op, OpDag, build_pacc_dag, entry_live, peak_live
from repro.kernels.scheduler import find_optimal_schedule
from repro.kernels.spill import plan_spills
from repro.verify import verify_spill_plan

from tests.kernels.spill_oracle import plan_spills_optimal


def tiny_dag() -> OpDag:
    """a, b live at entry; D = (a*b) - a must keep ``a`` across the mul."""
    ops = [
        Op("m", "M", ("a", "b"), "mul"),
        Op("d", "D", ("M", "a"), "sub"),
    ]
    return OpDag(
        name="tiny",
        ops=ops,
        live_at_start=frozenset({"a", "b"}),
        live_at_end=frozenset({"D"}),
    )


class TestZeroSpill:
    def test_generous_budget_plans_no_moves(self):
        dag = build_pacc_dag()
        order = list(dag.ops)
        names = [op.name for op in order]
        written_peak = peak_live(dag)
        plan = plan_spills(dag, names, register_budget=written_peak)
        assert plan.transfers == 0
        assert plan.moves == ()
        assert plan.peak_shm_bigints == 0
        assert plan.feasible
        assert plan.peak_registers == written_peak

    def test_zero_spill_plan_verifies(self):
        dag = build_pacc_dag()
        names = [op.name for op in dag.ops]
        plan = plan_spills(dag, names, register_budget=peak_live(dag))
        result = verify_spill_plan(dag, names, plan)
        assert result.ok, [str(v) for v in result.violations]

    def test_tiny_dag_no_spill_at_its_peak(self):
        dag = tiny_dag()
        plan = plan_spills(dag, ["m", "d"], register_budget=peak_live(dag))
        assert plan.transfers == 0

    def test_optimal_matches_greedy_when_nothing_to_spill(self):
        dag = build_pacc_dag()
        names = [op.name for op in dag.ops]
        optimal = plan_spills_optimal(dag, names, register_budget=peak_live(dag))
        assert optimal.transfers == 0


class TestLiveAcrossMul:
    """A spilled value must survive a multiplication's fresh temporary."""

    def chain_dag(self) -> OpDag:
        # ``keep`` is consumed first and last, with two muls in between:
        # at budget 3 it must be spilled across them and reloaded.
        ops = [
            Op("t0", "T0", ("keep", "x"), "mul"),
            Op("t1", "T1", ("T0", "x"), "mul"),
            Op("t2", "T2", ("T1", "x"), "mul"),
            Op("out", "OUT", ("T2", "keep"), "sub"),
        ]
        return OpDag(
            name="chain",
            ops=ops,
            live_at_start=frozenset({"keep", "x"}),
            live_at_end=frozenset({"OUT"}),
        )

    def test_value_spilled_across_muls_is_reloaded_before_use(self):
        dag = self.chain_dag()
        order = ["t0", "t1", "t2", "out"]
        plan = plan_spills(dag, order, register_budget=3)
        spills = [m for m in plan.moves if m[1] == "spill"]
        reloads = [m for m in plan.moves if m[1] == "reload"]
        assert ("t1", "spill", "keep") in plan.moves
        assert ("out", "reload", "keep") in plan.moves
        assert len(spills) == len(reloads) == 1
        assert plan.transfers == 2
        assert plan.peak_shm_bigints == 1
        assert plan.feasible

    def test_spilled_plan_passes_symbolic_replay(self):
        dag = self.chain_dag()
        order = ["t0", "t1", "t2", "out"]
        plan = plan_spills(dag, order, register_budget=3)
        result = verify_spill_plan(dag, order, plan)
        assert result.ok, [str(v) for v in result.violations]

    def test_pacc_spill_preserves_value_across_muls(self):
        # the paper's own case: PACC at budget 5 spills values that are
        # live across several multiplications; replay must accept it.
        dag = build_pacc_dag()
        schedule = find_optimal_schedule(dag)
        order = list(schedule.order)
        plan = plan_spills(dag, order, register_budget=5)
        assert plan.transfers > 0
        result = verify_spill_plan(dag, order, plan)
        assert result.ok, [str(v) for v in result.violations]


class TestCapacityBoundary:
    def test_budget_exactly_at_entry_live_is_feasible_for_pacc(self):
        dag = build_pacc_dag()
        schedule = find_optimal_schedule(dag)
        order = list(schedule.order)
        budget = 5
        assert budget >= entry_live(dag)
        plan = plan_spills(dag, order, register_budget=budget)
        assert plan.feasible
        assert plan.peak_registers <= budget

    def test_budget_below_working_set_raises(self):
        dag = tiny_dag()
        # op ``m`` needs a, b live plus a fresh output: working set 3.
        with pytest.raises(ValueError, match="working set"):
            plan_spills(dag, ["m", "d"], register_budget=2)

    def test_budget_one_above_boundary_succeeds(self):
        dag = tiny_dag()
        plan = plan_spills(dag, ["m", "d"], register_budget=3)
        assert plan.feasible

    def test_pacc_floor_is_the_working_set(self):
        # two inputs plus a fresh mul output: no budget below 3 can work,
        # and 3 itself is exactly feasible (at a steep transfer cost).
        dag = build_pacc_dag()
        order = [op.name for op in dag.ops]
        with pytest.raises(ValueError, match="working set"):
            plan_spills(dag, order, register_budget=2)
        # 3 registers survive every op but can't hold the 4 end-live
        # coordinates, so the plan reports itself infeasible.
        squeezed = plan_spills(dag, order, register_budget=3)
        assert not squeezed.feasible
        assert squeezed.peak_registers == 4
        at_floor = plan_spills(dag, order, register_budget=4)
        relaxed = plan_spills(dag, order, register_budget=5)
        assert at_floor.feasible
        assert at_floor.transfers > relaxed.transfers

    def test_optimal_search_rejects_infeasible_budget(self):
        dag = tiny_dag()
        with pytest.raises(ValueError):
            plan_spills_optimal(dag, ["m", "d"], register_budget=2)
