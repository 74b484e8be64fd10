"""Operation DAGs for PADD and PACC with register-liveness semantics.

The paper analyses register pressure in units of *concurrently live big
integers* (§4.2): each live big integer occupies ``num_limbs`` registers.
The accounting convention, which reproduces the paper's published peaks
(straightforward PADD = 11, straightforward PACC = 9), is:

* the accumulator / both partial results are live at entry and the updated
  coordinates must be live at exit;
* point operands that arrive from memory become live when first used;
* a *multiplication* (Montgomery) accumulates into a fresh temporary — its
  output always costs one extra register beyond the live set;
* a *subtraction* written in-place in the algorithm text (``V = V - PPP``)
  reuses its destination register; a subtraction with a fresh destination
  takes a new register (conservative codegen, as the baselines do).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """A single big-integer operation in the kernel.

    ``inplace`` marks operations whose destination register is one of the
    inputs (the algorithm text writes them as updates).
    """

    name: str
    output: str
    inputs: tuple[str, ...]
    kind: str  # "mul" | "sub"
    inplace: bool = False

    def __repr__(self) -> str:
        op = "*" if self.kind == "mul" else "-"
        star = " (inplace)" if self.inplace else ""
        return f"{self.output} = {self.inputs[0]} {op} {self.inputs[1]}{star}"


@dataclass
class OpDag:
    """An operation list plus its liveness boundary conditions."""

    name: str
    ops: list[Op] = field(default_factory=list)
    live_at_start: frozenset[str] = frozenset()
    live_at_end: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        names = [op.name for op in self.ops]
        if len(set(names)) != len(names):
            raise ValueError("duplicate op names in DAG")
        outputs = [op.output for op in self.ops]
        if len(set(outputs)) != len(outputs):
            raise ValueError(
                "each op must define a unique variable; encode register reuse "
                "via liveness, not shared names"
            )

    @property
    def producers(self) -> dict[str, Op]:
        """Variable name -> op producing it (start-live vars have none)."""
        return {op.output: op for op in self.ops}

    def dependencies(self) -> dict[str, set[str]]:
        """Op name -> set of op names that must execute first."""
        producers = self.producers
        deps: dict[str, set[str]] = {}
        for op in self.ops:
            deps[op.name] = {
                producers[v].name for v in op.inputs if v in producers
            }
        return deps


def entry_live(dag: OpDag) -> int:
    """Big integers live at kernel entry (the floor no schedule can beat)."""
    uses = {v for op in dag.ops for v in op.inputs}
    return sum(1 for v in dag.live_at_start if v in uses or v in dag.live_at_end)


def _future_uses(ops: list[Op], live_at_end: frozenset[str]) -> dict[str, list[float]]:
    """Variable -> sorted list of op indices that consume it."""
    uses: dict[str, list[float]] = {}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            uses.setdefault(v, []).append(idx)
    for v in live_at_end:
        uses.setdefault(v, []).append(float("inf"))
    return uses


def peak_live(dag: OpDag) -> int:
    """Peak number of concurrently live big integers in the DAG's written order."""
    ops = list(dag.ops)
    uses = _future_uses(ops, dag.live_at_end)
    produced_by = {op.output: op for op in ops}

    # A variable is live from its materialisation (production, or first use
    # for loaded/start operands... start operands are live from the top) to
    # its last use.
    live = {
        v for v in dag.live_at_start
        if v in uses or v in dag.live_at_end
    }
    peak = len(live)
    defined = set(dag.live_at_start)

    for idx, op in enumerate(ops):
        for v in op.inputs:
            if v not in defined:
                if v in produced_by:
                    raise ValueError(f"op {op.name} uses {v} before it is produced")
                # loaded operand materialises now
                defined.add(v)
                live.add(v)
        during = len(live) + (0 if op.inplace else 1)
        peak = max(peak, during)
        # output becomes defined and live if it has any future use
        defined.add(op.output)
        remaining = [u for u in uses.get(op.output, []) if u > idx]
        if remaining:
            live.add(op.output)
        # inputs whose last use is this op die
        for v in op.inputs:
            later = [u for u in uses.get(v, []) if u > idx]
            if not later:
                live.discard(v)
        peak = max(peak, len(live))
    return peak


def build_padd_dag() -> OpDag:
    """PADD in XYZZ coordinates, exactly as written in paper Algorithm 1."""
    ops = [
        Op("u1", "U1", ("X1", "ZZ2"), "mul"),
        Op("u2", "U2", ("X2", "ZZ1"), "mul"),
        Op("s1", "S1", ("Y1", "ZZZ2"), "mul"),
        Op("s2", "S2", ("Y2", "ZZZ1"), "mul"),
        Op("p", "P", ("U2", "U1"), "sub"),
        Op("r", "R", ("S2", "S1"), "sub"),
        Op("pp", "PP", ("P", "P"), "mul"),
        Op("ppp", "PPP", ("PP", "P"), "mul"),
        Op("q", "Q", ("U1", "PP"), "mul"),
        Op("v0", "V0", ("R", "R"), "mul"),
        Op("v1", "V1", ("V0", "PPP"), "sub", inplace=True),
        Op("v2", "V2", ("V1", "Q"), "sub", inplace=True),
        Op("x3", "X3", ("V2", "Q"), "sub"),
        Op("t0", "T0", ("Q", "X3"), "sub"),
        Op("y", "Y", ("R", "T0"), "mul"),
        Op("t1", "T1", ("S1", "PPP"), "mul"),
        Op("y3", "Y3", ("Y", "T1"), "sub"),
        Op("zz", "ZZ", ("ZZ1", "ZZ2"), "mul"),
        Op("zz3", "ZZ3", ("ZZ", "PP"), "mul"),
        Op("zzz", "ZZZ", ("ZZZ1", "ZZZ2"), "mul"),
        Op("zzz3", "ZZZ3", ("ZZZ", "PPP"), "mul"),
    ]
    return OpDag(
        name="PADD",
        ops=ops,
        live_at_start=frozenset({"X1", "Y1", "ZZ1", "ZZZ1", "X2", "Y2", "ZZ2", "ZZZ2"}),
        live_at_end=frozenset({"X3", "Y3", "ZZ3", "ZZZ3"}),
    )


def build_pdbl_dag() -> OpDag:
    """PDBL in XYZZ coordinates (dbl-2008-s-1), as an in-place doubling.

    The paper notes its PADD optimisations "also apply to PDBL"; this DAG
    lets the same scheduler find PDBL's optimal order.  It is the ``a = 0``
    doubling of the pairing curves (BN254/BLS12), without the ``a * ZZ^2``
    term.
    """
    ops = [
        Op("u", "U", ("Ya", "Ya"), "add"),
        Op("v", "V", ("U", "U"), "mul"),
        Op("w", "W", ("U", "V"), "mul"),
        Op("s", "S", ("Xa", "V"), "mul"),
        Op("xx", "XX", ("Xa", "Xa"), "mul"),
        Op("m0", "M0", ("XX", "XX"), "add"),
        Op("m", "M", ("M0", "XX"), "add"),
        Op("m2", "M2", ("M", "M"), "mul"),
        Op("t0", "T0", ("M2", "S"), "sub"),
        Op("x_new", "Xn", ("T0", "S"), "sub"),
        Op("t1", "T1", ("S", "Xn"), "sub"),
        Op("t2", "T2", ("M", "T1"), "mul"),
        Op("t3", "T3", ("W", "Ya"), "mul"),
        Op("y_new", "Yn", ("T2", "T3"), "sub"),
        Op("zz_new", "ZZn", ("V", "ZZa"), "mul"),
        Op("zzz_new", "ZZZn", ("W", "ZZZa"), "mul"),
    ]
    return OpDag(
        name="PDBL",
        ops=ops,
        live_at_start=frozenset({"Xa", "Ya", "ZZa", "ZZZa"}),
        live_at_end=frozenset({"Xn", "Yn", "ZZn", "ZZZn"}),
    )


def build_pacc_dag() -> OpDag:
    """PACC in XYZZ coordinates, exactly as written in paper Algorithm 4.

    The incoming point ``(XP, YP)`` is loaded from memory (live from first
    use); the accumulator coordinates are live at entry and their updated
    versions at exit.
    """
    ops = [
        Op("u2", "U2", ("XP", "ZZa"), "mul"),
        Op("s2", "S2", ("YP", "ZZZa"), "mul"),
        Op("p", "P", ("U2", "Xa"), "sub"),
        Op("r", "R", ("S2", "Ya"), "sub"),
        Op("pp", "PP", ("P", "P"), "mul"),
        Op("ppp", "PPP", ("PP", "P"), "mul"),
        Op("q", "Q", ("Xa", "PP"), "mul"),
        Op("v0", "V0", ("R", "R"), "mul"),
        Op("v1", "V1", ("V0", "PPP"), "sub", inplace=True),
        Op("v2", "V2", ("V1", "Q"), "sub", inplace=True),
        Op("x_new", "Xn", ("V2", "Q"), "sub"),
        Op("t0", "T0", ("Q", "Xn"), "sub"),
        Op("y", "Y", ("R", "T0"), "mul"),
        Op("t1", "T1", ("Ya", "PPP"), "mul"),
        Op("y_new", "Yn", ("Y", "T1"), "sub"),
        Op("zz_new", "ZZn", ("ZZa", "PP"), "mul"),
        Op("zzz_new", "ZZZn", ("ZZZa", "PPP"), "mul"),
    ]
    return OpDag(
        name="PACC",
        ops=ops,
        live_at_start=frozenset({"Xa", "Ya", "ZZa", "ZZZa"}),
        live_at_end=frozenset({"Xn", "Yn", "ZZn", "ZZZn"}),
    )
