"""Explicit register spilling to shared memory (paper §4.2.2).

Compiler-driven spilling goes to device memory and is slow; DistMSM instead
emits explicit moves between registers and *shared memory* for selected big
integers.  This module plans those moves for a given schedule and register
budget using the classic furthest-next-use (Belady) victim policy the paper
alludes to ("decisions ... can be guided by traditional register spilling
algorithms").

The plan reports the quantities the paper quotes for PACC at a budget of
5 live big integers: how many big-integer transfers occur and the peak
number of big integers resident in shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.dag import OpDag


@dataclass(frozen=True)
class SpillPlan:
    """Result of spill planning for one schedule under a register budget.

    Frozen, so the kernel model can share one plan per DAG and budget
    (:func:`repro.kernels.padd_kernel.spill_plan_for`).
    """

    register_budget: int
    transfers: int
    peak_shm_bigints: int
    peak_registers: int
    #: (op name, "spill" | "reload", variable) in execution order
    moves: tuple[tuple[str, str, str], ...] = ()

    @property
    def feasible(self) -> bool:
        return self.peak_registers <= self.register_budget


def plan_spills(dag: OpDag, order: list[str], register_budget: int) -> SpillPlan:
    """Plan explicit spills so at most ``register_budget`` big integers sit in
    registers at any point during ``order``.

    Victims are chosen among register-resident values not needed by the
    current operation, preferring the furthest next use.  Raises
    ``ValueError`` when the budget is below the operation working set
    (inputs + output of a single op can never be spilled).
    """
    name_to_op = {op.name: op for op in dag.ops}
    ops = [name_to_op[n] for n in order]
    producers = {op.output for op in ops}

    # next-use table: for each var, the op indices that consume it
    uses: dict[str, list[float]] = {}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            uses.setdefault(v, []).append(idx)
    for v in dag.live_at_end:
        uses.setdefault(v, []).append(len(ops))  # "used" at the end

    def next_use(v: str, after: int) -> float:
        return next((u for u in uses.get(v, []) if u >= after), float("inf"))

    regs = {
        v for v in dag.live_at_start
        if uses.get(v)  # drop start values never consumed
    }
    shm: set[str] = set()
    moves: list[tuple[str, str, str]] = []
    transfers = 0
    peak_shm = 0
    peak_regs = len(regs)

    for idx, op in enumerate(ops):
        # 1. reload spilled inputs
        for v in op.inputs:
            if v in shm:
                shm.discard(v)
                regs.add(v)
                moves.append((op.name, "reload", v))
                transfers += 1
        # loaded operands materialise in registers now
        for v in op.inputs:
            if v not in regs and v not in producers.union(dag.live_at_start):
                regs.add(v)

        working = set(op.inputs)
        need = len(regs | working) + (0 if op.inplace else 1)
        # 2. spill furthest-next-use victims until the op fits
        while need > register_budget:
            # sorted so the furthest-next-use tie-break never depends on
            # hash order (victim choice must match across processes)
            candidates = sorted(v for v in regs if v not in working)
            if not candidates:
                raise ValueError(
                    f"budget {register_budget} below working set of {op.name}"
                )
            victim = max(candidates, key=lambda v: next_use(v, idx))
            regs.discard(victim)
            shm.add(victim)
            moves.append((op.name, "spill", victim))
            transfers += 1
            need -= 1
        peak_regs = max(peak_regs, need)
        peak_shm = max(peak_shm, len(shm))

        # 3. execute: output defined, dead values vacate registers
        regs.add(op.output)
        for v in list(regs):
            if next_use(v, idx + 1) == float("inf") and v not in dag.live_at_end:
                regs.discard(v)
        for v in list(shm):
            if next_use(v, idx + 1) == float("inf") and v not in dag.live_at_end:
                shm.discard(v)
        peak_regs = max(peak_regs, len(regs))
        peak_shm = max(peak_shm, len(shm))

    # end-live values must finish in registers (they are the kernel output)
    for v in sorted(shm & dag.live_at_end):
        moves.append(("<end>", "reload", v))
        transfers += 1
    return SpillPlan(
        register_budget=register_budget,
        transfers=transfers,
        peak_shm_bigints=peak_shm,
        peak_registers=peak_regs,
        moves=tuple(moves),
    )


#: states :func:`schedule_and_spill` may visit before it gives up
SCHEDULE_STATE_LIMIT = 2_000_000


def schedule_and_spill(dag: OpDag, register_budget: int) -> tuple[int, int]:
    """Jointly minimise transfers over *all* schedules and spill choices.

    The scheduler's optimum is not unique; different topological orders
    admit cheaper spill plans.  This DP explores (executed ops, register
    residents, shared-memory residents) states — small enough for the
    PADD/PACC/PDBL DAGs — and returns ``(min transfers, states visited)``.
    This is how the paper-grade bound ("transferring 4 big integers" for
    PACC in 5 registers) is established rather than assumed.
    """
    ops = list(dag.ops)
    n = len(ops)
    op_index = {op.name: i for i, op in enumerate(ops)}
    deps = dag.dependencies()
    dep_masks = [0] * n
    for name, dd in deps.items():
        for d in dd:
            dep_masks[op_index[name]] |= 1 << op_index[d]

    consumers: dict[str, int] = {}
    for i, op in enumerate(ops):
        for v in op.inputs:
            consumers.setdefault(v, 0)
            consumers[v] |= 1 << i
    producers = {op.output for op in ops}
    full = (1 << n) - 1

    def alive(v: str, executed: int) -> bool:
        pending = consumers.get(v, 0) & ~executed
        return bool(pending) or v in dag.live_at_end

    start_regs = frozenset(
        v for v in dag.live_at_start if v in consumers or v in dag.live_at_end
    )
    memo: dict[tuple[int, frozenset[str], frozenset[str]], int | None] = {}
    states = 0

    def search(executed: int, regs: frozenset, shm: frozenset) -> int | None:
        nonlocal states
        if executed == full:
            return len(shm & dag.live_at_end)
        key = (executed, regs, shm)
        if key in memo:
            return memo[key]
        states += 1
        if states > SCHEDULE_STATE_LIMIT:
            raise RuntimeError("joint schedule+spill search exceeded budget")
        best = None
        for i in range(n):
            bit = 1 << i
            if executed & bit or (dep_masks[i] & ~executed):
                continue
            op = ops[i]
            reload_cost = len(set(op.inputs) & shm)
            regs1 = set(regs) | (set(op.inputs) & shm)
            shm1 = set(shm) - set(op.inputs)
            for v in op.inputs:
                if (
                    v not in regs1
                    and v not in producers
                    and v not in dag.live_at_start
                ):
                    regs1.add(v)
            working = set(op.inputs)
            overflow = (
                len(regs1 | working) + (0 if op.inplace else 1) - register_budget
            )
            if overflow > 0:
                pool = sorted(regs1 - working)
                if len(pool) < overflow:
                    continue
                from itertools import combinations

                candidate_sets = [frozenset(c) for c in combinations(pool, overflow)]
            else:
                candidate_sets = [frozenset()]
            done = executed | bit
            for victims in candidate_sets:
                regs2 = (regs1 - victims) | {op.output}
                shm2 = set(shm1) | victims
                regs3 = frozenset(v for v in regs2 if alive(v, done))
                shm3 = frozenset(v for v in shm2 if alive(v, done))
                if len(regs3) > register_budget:
                    continue
                sub = search(done, regs3, shm3)
                if sub is None:
                    continue
                cost = reload_cost + len(victims) + sub
                if best is None or cost < best:
                    best = cost
        memo[key] = best
        return best

    result = search(0, start_regs, frozenset())
    if result is None:
        raise ValueError(f"budget {register_budget} is infeasible for {dag.name}")
    return result, states
