"""Static verifier for kernel execution schedules (paper §4.2.1 claims).

The scheduler in :mod:`repro.kernels.scheduler` *produces* orders and
claims a register peak for them; this module independently *checks* such
claims.  It shares no liveness code with the producer: where
``kernels.dag.peak_live`` simulates the live set incrementally op by op,
the verifier derives a closed-form live *interval* for every variable and
counts interval overlaps with an event sweep.  Agreement between two
implementations with different structure is the point — a bug in the
scheduler's liveness accounting will not silently propagate here.

Checked invariants for a schedule (an execution order of an ``OpDag``):

* the order is a permutation of the DAG's ops and topologically valid
  (every produced input is produced before use);
* single assignment — no op redefines a variable, including start-live ones;
* in-place aliasing hazards — an in-place op destroys its first input's
  register, so that value must have no later consumer and must not be a
  kernel output;
* the independently recomputed register peak does not exceed the claimed
  peak;
* the modular-multiplication count stays within the per-kernel budget
  (PADD ≤ 14, PACC ≤ 10 — the paper's Table in §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernels.dag import Op, OpDag
from repro.verify.report import CheckResult

_INF = float("inf")


@dataclass(frozen=True)
class LiveInterval:
    """One variable's register occupancy window in schedule positions.

    ``start`` is the position at which the value materialises (-1 for
    kernel-entry values); ``end`` is its last consuming position (``inf``
    for kernel outputs).
    """

    var: str
    start: float
    end: float


@dataclass
class ScheduleCheckResult(CheckResult):
    """Outcome of verifying one schedule."""

    checker = "schedule"
    peak: int = 0
    peak_op: str | None = None
    modmuls: int = 0
    intervals: dict[str, LiveInterval] = field(default_factory=dict)


def live_intervals(dag: OpDag, ops: list[Op]) -> dict[str, LiveInterval]:
    """Closed-form live interval of every variable under this order."""
    produced_at = {op.output: idx for idx, op in enumerate(ops)}
    last_use: dict[str, float] = {}
    first_use: dict[str, int] = {}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            last_use[v] = idx
            first_use.setdefault(v, idx)
    for v in dag.live_at_end:
        last_use[v] = _INF

    intervals: dict[str, LiveInterval] = {}
    for v in dag.live_at_start:
        if v in last_use:
            intervals[v] = LiveInterval(v, -1, last_use[v])
    for v, idx in produced_at.items():
        intervals[v] = LiveInterval(v, idx, last_use.get(v, idx))
    for v in first_use:
        if v not in intervals:  # loaded operand: materialises at first use
            intervals[v] = LiveInterval(v, first_use[v], last_use[v])
    return intervals


def _sweep_peak(
    ops: list[Op], intervals: dict[str, LiveInterval]
) -> tuple[int, str | None]:
    """Peak concurrent intervals, counting each op's output temporary.

    At position ``p`` two quantities matter: *during* the op — values
    carried in (started earlier, not yet dead) plus operands materialising
    now plus the fresh output register of a non-in-place op — and *after*
    the op — every interval covering the gap to position ``p + 1``.
    """
    peak = sum(1 for iv in intervals.values() if iv.start < 0)  # entry set
    peak_op: str | None = None
    for p, op in enumerate(ops):
        carried = sum(
            1 for iv in intervals.values() if iv.start < p and iv.end >= p
        )
        materialising = sum(
            1
            for v in set(op.inputs)
            if intervals[v].start == p and v != op.output
        )
        during = carried + materialising + (0 if op.inplace else 1)
        after = sum(
            1 for iv in intervals.values() if iv.start <= p and iv.end > p
        )
        here = max(during, after)
        if here > peak:
            peak, peak_op = here, op.name
    return peak, peak_op


def verify_schedule(
    dag: OpDag,
    order: list[str] | None = None,
    claimed_peak: int | None = None,
    max_modmuls: int | None = None,
    subject: str | None = None,
) -> ScheduleCheckResult:
    """Verify one execution order of ``dag`` against all schedule invariants.

    ``order=None`` checks the DAG's written order.  ``claimed_peak`` is the
    register peak the producer (scheduler or hand analysis) asserts;
    ``max_modmuls`` is the kernel's multiplication budget.
    """
    result = ScheduleCheckResult(subject or dag.name)
    name_to_op = {op.name: op for op in dag.ops}
    if order is None:
        ops = list(dag.ops)
    elif sorted(order) != sorted(name_to_op):
        missing = set(name_to_op) - set(order)
        extra = set(order) - set(name_to_op)
        result.add(
            "order is not a permutation of the DAG's ops "
            f"(missing {sorted(missing)}, unknown {sorted(extra)})"
        )
        return result
    else:
        ops = [name_to_op[n] for n in order]

    # single assignment: each variable defined exactly once, never a
    # redefinition of a kernel input
    seen_outputs: set[str] = set()
    for op in ops:
        if op.output in seen_outputs:
            result.add(f"variable {op.output!r} is assigned more than once", op=op.name)
        if op.output in dag.live_at_start:
            result.add(f"op redefines kernel-entry value {op.output!r}", op=op.name)
        seen_outputs.add(op.output)

    # def-before-use / topological validity
    produced_at = {op.output: idx for idx, op in enumerate(ops)}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            if v in produced_at and produced_at[v] >= idx and v != op.output:
                result.add(
                    f"uses {v!r} before it is produced "
                    f"(producer runs at position {produced_at[v]}, use at {idx})",
                    op=op.name,
                )

    # in-place aliasing hazards: the destination register is inputs[0]
    last_use: dict[str, int] = {}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            last_use[v] = idx
    for idx, op in enumerate(ops):
        if not op.inplace:
            continue
        overwritten = op.inputs[0]
        if last_use.get(overwritten, idx) > idx:
            result.add(
                f"in-place op destroys {overwritten!r}, which is "
                f"still consumed at position {last_use[overwritten]}",
                op=op.name,
            )
        if overwritten in dag.live_at_end:
            result.add(f"in-place op destroys kernel output {overwritten!r}", op=op.name)

    if result.violations:
        # liveness over a malformed schedule would be meaningless
        return result

    # independent liveness recomputation
    result.intervals = live_intervals(dag, ops)
    result.peak, result.peak_op = _sweep_peak(ops, result.intervals)
    if claimed_peak is not None and result.peak > claimed_peak:
        result.add(
            f"recomputed register peak {result.peak} exceeds the "
            f"claimed peak {claimed_peak}",
            op=result.peak_op,
        )

    # modular-multiplication budget
    result.modmuls = sum(1 for op in ops if op.kind == "mul")
    if max_modmuls is not None and result.modmuls > max_modmuls:
        extra = [op.name for op in ops if op.kind == "mul"][max_modmuls:]
        result.add(
            f"{result.modmuls} modular multiplications exceed the "
            f"budget of {max_modmuls}",
            op=extra[0] if extra else None,
        )
    return result
