"""Symbolic replay checker for explicit spill plans (paper §4.2.2).

:mod:`repro.kernels.spill` *plans* register↔shared-memory moves; this
module replays a plan instruction by instruction against the schedule it
was made for and rejects every way such a plan can be wrong:

* an op consuming a value that currently sits in shared memory
  (use-before-reload);
* spilling a value that is not register-resident (double-spill), or
  reloading one that was never spilled;
* exceeding the register budget at any point despite the plan's moves;
* a kernel output left in shared memory at exit;
* claimed transfer / peak numbers that disagree with the replay;
* a spill area that cannot fit the launch geometry's shared memory
  (``gpu/specs.py`` limits) — every thread of a block needs its own copy
  of the spill slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.specs import NVIDIA_A100, GpuSpec
from repro.kernels.dag import OpDag
from repro.kernels.spill import SpillPlan
from repro.verify.report import CheckResult

_INF = float("inf")


@dataclass
class SpillCheckResult(CheckResult):
    """Outcome of replaying one spill plan."""

    checker = "spill"
    transfers: int = 0
    peak_registers: int = 0
    peak_shm_bigints: int = 0


def spill_bytes_per_thread(peak_shm_bigints: int, num_limbs: int) -> int:
    """Shared-memory bytes one thread's spill slots occupy."""
    return peak_shm_bigints * num_limbs * 4


def verify_spill_plan(
    dag: OpDag,
    order: list[str],
    plan: SpillPlan,
    num_limbs: int = 12,
    threads_per_block: int = 32,
    spec: GpuSpec = NVIDIA_A100,
    subject: str | None = None,
) -> SpillCheckResult:
    """Replay ``plan`` over ``order`` and report every broken invariant."""
    result = SpillCheckResult(subject or f"{dag.name} spill@{plan.register_budget}")

    name_to_op = {op.name: op for op in dag.ops}
    if sorted(order) != sorted(name_to_op):
        result.add("order is not a permutation of the DAG's ops")
        return result
    ops = [name_to_op[n] for n in order]
    produced = {op.output for op in ops}

    uses: dict[str, list[float]] = {}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            uses.setdefault(v, []).append(idx)
    for v in dag.live_at_end:
        uses.setdefault(v, []).append(_INF)

    def next_use(v: str, after: int) -> float:
        return next((u for u in uses.get(v, []) if u >= after), _INF)

    moves_by_op: dict[str, list[tuple[str, str]]] = {}
    for op_name, kind, var in plan.moves:
        moves_by_op.setdefault(op_name, []).append((kind, var))
    known_ops = set(name_to_op) | {"<end>"}
    for op_name in moves_by_op:
        if op_name not in known_ops:
            result.add(f"plan moves reference unknown op {op_name!r}", op=op_name)

    regs = {v for v in dag.live_at_start if uses.get(v)}
    shm: set[str] = set()
    replayed_transfers = 0

    def apply_moves(op_name: str) -> None:
        nonlocal replayed_transfers
        for kind, var in moves_by_op.get(op_name, []):
            replayed_transfers += 1
            if kind == "spill":
                if var not in regs:
                    where = "already in shared memory" if var in shm else "not resident"
                    result.add(
                        f"spill of {var!r}, which is {where} "
                        "(double-spill or spill of an undefined value)",
                        op=op_name,
                        address=f"shared:spill[{var}]",
                    )
                    continue
                regs.discard(var)
                shm.add(var)
            elif kind == "reload":
                if var not in shm:
                    result.add(
                        f"reload of {var!r}, which is not in shared memory",
                        op=op_name,
                        address=f"shared:spill[{var}]",
                    )
                    continue
                shm.discard(var)
                regs.add(var)
            else:
                result.add(f"unknown move kind {kind!r}", op=op_name)

    for idx, op in enumerate(ops):
        apply_moves(op.name)
        for v in op.inputs:
            if v in shm:
                result.add(
                    f"op consumes {v!r} while it is spilled to shared memory "
                    "(use before reload)",
                    op=op.name,
                    address=f"shared:spill[{v}]",
                )
            elif v not in regs:
                if v in produced or v in dag.live_at_start:
                    result.add(
                        f"op consumes {v!r}, which is not materialised",
                        op=op.name,
                    )
                else:
                    regs.add(v)  # loaded operand arrives from device memory
        working = set(op.inputs) - shm
        need = len(regs | working) + (0 if op.inplace else 1)
        if need > plan.register_budget:
            result.add(
                f"{need} registers needed with a budget of "
                f"{plan.register_budget}",
                op=op.name,
            )
        result.peak_registers = max(result.peak_registers, need)
        regs.add(op.output)
        for v in list(regs):
            if next_use(v, idx + 1) == _INF and v not in dag.live_at_end:
                regs.discard(v)
        for v in list(shm):
            if next_use(v, idx + 1) == _INF and v not in dag.live_at_end:
                shm.discard(v)
        result.peak_registers = max(result.peak_registers, len(regs))
        result.peak_shm_bigints = max(result.peak_shm_bigints, len(shm))

    apply_moves("<end>")
    for v in sorted(shm & dag.live_at_end):
        result.add(
            f"kernel output {v!r} left in shared memory at exit",
            op="<end>",
            address=f"shared:spill[{v}]",
        )
    result.transfers = replayed_transfers

    # cross-check the plan's claimed numbers against the replay
    if plan.transfers != replayed_transfers:
        result.add(
            f"plan claims {plan.transfers} transfers but replaying its moves "
            f"performs {replayed_transfers}"
        )
    if result.peak_shm_bigints > plan.peak_shm_bigints:
        result.add(
            f"replay reaches {result.peak_shm_bigints} big integers in shared "
            f"memory, more than the claimed {plan.peak_shm_bigints}"
        )
    if result.peak_registers > plan.register_budget:
        result.add(
            f"replay peak of {result.peak_registers} registers exceeds the "
            f"budget {plan.register_budget}"
        )

    # capacity: every thread of the block keeps its own spill slots
    needed = spill_bytes_per_thread(result.peak_shm_bigints, num_limbs) * threads_per_block
    capacity = spec.shared_mem_per_sm_kb * 1024
    if needed > capacity:
        result.add(
            f"spill area needs {needed} B of shared memory for "
            f"{threads_per_block} threads x {result.peak_shm_bigints} big "
            f"integers x {num_limbs} limbs, capacity {capacity} B "
            f"({spec.name})",
            address=f"shared:spill[{needed}B]",
        )
    return result
