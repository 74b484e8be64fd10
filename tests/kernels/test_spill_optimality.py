"""The furthest-next-use (Belady) spill planner is optimal on the paper's
kernels.

For every kernel DAG (PADD, PACC, PDBL), under both its written order and
the register-optimal schedule, and at every register budget that forces a
spill, the greedy plan moves exactly as many big integers as the
exhaustive search in :mod:`tests.kernels.spill_oracle`, and the
independent spill checker accepts it.  Below three registers no plan
exists, and both planners say so.
"""

import pytest

from repro.kernels.dag import build_pacc_dag, build_padd_dag, build_pdbl_dag
from repro.kernels.scheduler import find_optimal_schedule
from repro.kernels.spill import plan_spills
from repro.verify import verify_spill_plan

from tests.kernels.spill_oracle import plan_spills_optimal

BUILDERS = {"PADD": build_padd_dag, "PACC": build_pacc_dag, "PDBL": build_pdbl_dag}


def _order(dag, schedule):
    if schedule == "written":
        return [op.name for op in dag.ops]
    return list(find_optimal_schedule(dag).order)


def _spilling_cases():
    """(kernel, schedule, budget) for every budget below the no-spill peak."""
    cases = []
    for kernel, build in BUILDERS.items():
        dag = build()
        for schedule in ("written", "optimal"):
            order = _order(dag, schedule)
            budget = 3
            while plan_spills(dag, order, register_budget=budget).transfers:
                cases.append((kernel, schedule, budget))
                budget += 1
    return cases


@pytest.mark.parametrize("kernel,schedule,budget", _spilling_cases())
def test_greedy_spilling_is_optimal(kernel, schedule, budget):
    dag = BUILDERS[kernel]()
    order = _order(dag, schedule)
    greedy = plan_spills(dag, order, register_budget=budget)
    optimal = plan_spills_optimal(dag, order, register_budget=budget)
    assert greedy.transfers == optimal.transfers > 0
    result = verify_spill_plan(dag, order, greedy)
    assert result.ok, [str(v) for v in result.violations]


@pytest.mark.parametrize("schedule", ["written", "optimal"])
@pytest.mark.parametrize("kernel", sorted(BUILDERS))
def test_two_registers_are_infeasible(kernel, schedule):
    dag = BUILDERS[kernel]()
    order = _order(dag, schedule)
    with pytest.raises(ValueError):
        plan_spills(dag, order, register_budget=2)
    with pytest.raises(ValueError):
        plan_spills_optimal(dag, order, register_budget=2)
