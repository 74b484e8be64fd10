"""Minimum-transfer spill planning by exhaustive search: the oracle that
checks the furthest-next-use (Belady) planner is optimal."""

from __future__ import annotations

from itertools import combinations

from repro.kernels.dag import OpDag
from repro.kernels.spill import SpillPlan, plan_spills


def plan_spills_optimal(
    dag: OpDag,
    order: list[str],
    register_budget: int,
    state_limit: int = 200_000,
) -> SpillPlan:
    """Minimum-transfer spill plan via memoised branch and bound.

    Where :func:`plan_spills` commits to the furthest-next-use victim,
    this search tries *every* victim choice at every decision point and
    memoises on (position, registers, shared memory), returning a plan
    with provably minimal big-integer transfers for the given schedule —
    the number the paper quotes for PACC under a 5-register budget.
    """
    name_to_op = {op.name: op for op in dag.ops}
    ops = [name_to_op[n] for n in order]
    producers = {op.output for op in ops}

    uses: dict[str, list[int]] = {}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            uses.setdefault(v, []).append(idx)
    for v in dag.live_at_end:
        uses.setdefault(v, []).append(len(ops))

    def alive_after(v: str, idx: int) -> bool:
        return any(u > idx for u in uses.get(v, []))

    start_regs = frozenset(v for v in dag.live_at_start if uses.get(v))
    states_seen = 0
    memo: dict[tuple[int, frozenset[str], frozenset[str]], int | None] = {}

    def search(idx: int, regs: frozenset, shm: frozenset) -> int | None:
        """Minimal future transfers, or None if infeasible."""
        nonlocal states_seen
        if idx == len(ops):
            return len(shm & dag.live_at_end)  # reload outputs at the end
        key = (idx, regs, shm)
        if key in memo:
            return memo[key]
        states_seen += 1
        if states_seen > state_limit:
            raise RuntimeError("spill search exceeded its state budget")
        op = ops[idx]

        # mandatory reloads for spilled inputs
        reload_cost = len(set(op.inputs) & shm)
        regs1 = set(regs) | (set(op.inputs) & shm)
        shm1 = set(shm) - set(op.inputs)
        for v in op.inputs:  # loaded operands materialise
            if v not in regs1 and v not in producers and v not in dag.live_at_start:
                regs1.add(v)

        working = set(op.inputs)
        overflow = len(regs1 | working) + (0 if op.inplace else 1) - register_budget
        best = None
        candidate_sets = [frozenset()]
        if overflow > 0:
            victims_pool = sorted(regs1 - working)
            if len(victims_pool) < overflow:
                memo[key] = None
                return None
            candidate_sets = [
                frozenset(c) for c in combinations(victims_pool, overflow)
            ]
        for victims in candidate_sets:
            regs2 = set(regs1) - victims
            shm2 = set(shm1) | victims
            # execute the op
            regs3 = set(regs2)
            regs3.add(op.output)
            regs3 = {v for v in regs3 if alive_after(v, idx) or v in dag.live_at_end}
            shm3 = {v for v in shm2 if alive_after(v, idx) or v in dag.live_at_end}
            if len(regs3) > register_budget:
                continue
            sub = search(idx + 1, frozenset(regs3), frozenset(shm3))
            if sub is None:
                continue
            cost = reload_cost + len(victims) + sub
            if best is None or cost < best:
                best = cost
        memo[key] = best
        return best

    minimal = search(0, start_regs, frozenset())
    if minimal is None:
        raise ValueError(
            f"budget {register_budget} infeasible for this schedule"
        )
    greedy = plan_spills(dag, order, register_budget)
    return SpillPlan(
        register_budget=register_budget,
        transfers=minimal,
        peak_shm_bigints=greedy.peak_shm_bigints,
        peak_registers=min(greedy.peak_registers, register_budget),
        moves=(),  # the count is the deliverable; moves available via greedy
    )
