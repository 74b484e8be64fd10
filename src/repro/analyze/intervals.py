"""Interval abstract interpretation over the kernel op DAGs (paper §4.2–4.3).

The GPU kernels in :mod:`repro.kernels` never materialise values wider
than their register allocation assumes: a field element is ``num_limbs``
32-bit words, a tensor-core accumulator is one uint32, and a modular-sub
intermediate may briefly reach ``2p``.  Those are *claims*; this module
proves them with the standard interval domain.

An abstract value is an integer interval ``[lo, hi]`` (⊥ is never needed:
every variable the DAGs touch is a reduced field element, so the entry
state maps everything to ``[0, p-1]``).  Transfer functions follow the
concrete kernels:

* ``mul`` is a full SOS Montgomery multiplication.  Its intermediates are
  checked, not assumed: the schoolbook product ``c ≤ hi_a·hi_b``, the
  reduction multiplier ``m ≤ R-1``, the tensor-core product
  ``m·n ≤ (R-1)·p``, the sum ``t = c + m·n`` which must stay under
  ``2·p·R`` so that ``u = t/R < 2p`` needs exactly one conditional
  subtraction.  ``p < R`` makes this discharge for every registered
  curve; a synthetic modulus with ``p ≥ R`` fails it (see the
  ``interval-overflow`` fixture).
* ``sub`` is ``a - b + (b>a ? p : 0)``: intermediate in
  ``[lo_a - hi_b, hi_a + p - 1]``, which must fit ``num_limbs`` words.
* ``add`` is ``a + b`` with one conditional subtraction: intermediate
  ``≤ hi_a + hi_b``, must fit ``num_limbs`` words and be ``< 2p``.

The same module also *re-derives the register-liveness peaks from
scratch*.  The repo now carries three independent implementations of the
§4.2 accounting — :func:`repro.kernels.dag.peak_live` (incremental
simulation), :mod:`repro.verify.schedule` (interval sweep), and
:func:`derive_register_peaks` here (per-position live-set reconstruction,
quadratic and brutally simple).  This one deliberately imports neither of
the others; agreement of three codebases with the paper's published
figures (PADD 11 → 9, PACC 9 → 7) is the strongest evidence short of an
SASS dump.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyze.finding import Finding
from repro.curves.params import CurveParams, list_curves
from repro.fields.limbs import WORD_BITS
from repro.kernels.dag import OpDag, build_pacc_dag, build_padd_dag
from repro.kernels.scheduler import find_optimal_schedule

#: the paper's §4.2 register-liveness figures: DAG -> (written, optimal)
PUBLISHED_PEAKS = {"PADD": (11, 9), "PACC": (9, 7)}

#: uint8 x uint8 products accumulate into uint32 on tensor cores
_TC_ACC_BITS = 32


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` — the abstract value."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        corners = (
            self.lo * other.lo, self.lo * other.hi,
            self.hi * other.lo, self.hi * other.hi,
        )
        return Interval(min(corners), max(corners))

    def bits(self) -> int:
        """Significant bits of the largest magnitude in the interval."""
        return max(abs(self.lo), abs(self.hi)).bit_length()


def field_interval(p: int) -> Interval:
    """The abstract value of a reduced field element mod ``p``."""
    return Interval(0, p - 1)


@dataclass(frozen=True)
class MontMulBounds:
    """Intermediate bounds of one Montgomery multiplication ``a * b``."""

    product: Interval  # c = a * b, schoolbook on CUDA cores
    reducer: Interval  # m = -c * n^{-1} mod R
    reduction_product: Interval  # m * n, the tensor-core product
    sum_t: Interval  # t = c + m * n
    pre_subtract: Interval  # u = t / R, before the conditional subtraction


def montmul_bounds(a: Interval, b: Interval, p: int, r: int) -> MontMulBounds:
    """Interval transfer function of SOS Montgomery multiplication."""
    c = a * b
    m = Interval(0, r - 1)
    mn = m * Interval(p, p)
    t = c + mn
    # u = t / R exactly (the low R-sized half cancels by construction); its
    # sound interval bound is floor division of the endpoints.
    u = Interval(t.lo // r, t.hi // r)
    return MontMulBounds(
        product=c, reducer=m, reduction_product=mn, sum_t=t, pre_subtract=u
    )


def interpret_dag(
    dag: OpDag, curve: CurveParams, label: str | None = None
) -> list[Finding]:
    """Prove every intermediate of ``dag`` respects its Montgomery bounds.

    Walks the op list in written order, mapping each variable to an
    interval; every variable starts (and, post-reduction, stays) at
    ``[0, p-1]``.  Returns the bound violations as findings — empty for
    all registered curves.
    """
    p = curve.p
    r = 1 << (WORD_BITS * curve.num_limbs)
    path = label or f"<{dag.name} dag @ {curve.name}>"
    findings: list[Finding] = []
    env: dict[str, Interval] = {}

    def value_of(name: str) -> Interval:
        if name not in env:
            env[name] = field_interval(p)  # entry / loaded operand
        return env[name]

    def overflow(line: int, message: str) -> None:
        findings.append(Finding("interval-overflow", path, line, message))

    for line, op in enumerate(dag.ops, start=1):
        a = value_of(op.inputs[0])
        b = value_of(op.inputs[1])
        if op.kind == "mul":
            bounds = montmul_bounds(a, b, p, r)
            if bounds.product.hi > (r - 1) * (r - 1):
                overflow(
                    line,
                    f"{op.name}: product needs {bounds.product.bits()} bits, "
                    f"over the 2x{curve.num_limbs}-limb double-width buffer",
                )
            if bounds.sum_t.hi >= 2 * p * r:
                overflow(
                    line,
                    f"{op.name}: reduction sum t = c + m*n reaches "
                    f"{bounds.sum_t.bits()} bits (>= 2pR); u = t/R would "
                    "exceed 2p and one conditional subtraction is not enough",
                )
            if bounds.pre_subtract.hi >= 2 * p:
                overflow(
                    line,
                    f"{op.name}: pre-subtraction residue u can reach "
                    f"{bounds.pre_subtract.hi}, >= 2p; the kernel's single "
                    "conditional subtraction cannot reduce it",
                )
            result = Interval(0, min(bounds.pre_subtract.hi, p - 1))
        elif op.kind == "sub":
            raw = (a - b) + Interval(0, p)  # conditional +p on borrow
            if raw.hi >= r:
                overflow(
                    line,
                    f"{op.name}: modular-sub intermediate needs "
                    f"{raw.bits()} bits, over the {curve.num_limbs}-limb "
                    "register allocation",
                )
            result = field_interval(p)
        elif op.kind == "add":
            raw = a + b
            if raw.hi >= r:
                overflow(
                    line,
                    f"{op.name}: modular-add intermediate needs "
                    f"{raw.bits()} bits, over the {curve.num_limbs}-limb "
                    "register allocation",
                )
            if raw.hi >= 2 * p:
                overflow(
                    line,
                    f"{op.name}: sum can reach {raw.hi}, >= 2p; one "
                    "conditional subtraction cannot reduce it",
                )
            result = Interval(0, min(raw.hi, p - 1))
        else:
            overflow(line, f"{op.name}: unknown op kind {op.kind!r}")
            result = field_interval(p)
        env[op.output] = result
    return findings


def tc_accumulator_findings(curve: CurveParams) -> list[Finding]:
    """Check the §4.3 tensor-core claim: byte-product accumulators fit u32.

    One output element of the ``m x n`` byte-matrix product accumulates at
    most ``num_bytes`` terms of ``255 * 255``; the bound is derived here
    from the interval product rather than trusted.
    """
    num_bytes = curve.num_limbs * (WORD_BITS // 8)
    byte = Interval(0, 255)
    acc = Interval(0, 0)
    for _ in range(num_bytes):
        acc = acc + byte * byte
    path = f"<TC accumulator @ {curve.name}>"
    if acc.bits() > _TC_ACC_BITS:
        return [
            Finding(
                "interval-tc-accumulator", path, 1,
                f"{num_bytes}-byte operands accumulate to {acc.bits()} "
                f"bits, over the uint32 MMA accumulator",
            )
        ]
    return []


# -- independent register-peak re-derivation ------------------------------


def _live_profile(dag: OpDag, order: list[str]) -> list[int]:
    """Live big-integer count at every point of an execution order.

    Per-position reconstruction: for each boundary ``i`` (after the first
    ``i`` ops) the live set is recomputed *from scratch* as::

        {v : materialised at index < i  and  used at index >= i or end-live}

    where start-live variables materialise before index 0, produced
    variables at their producing op, and loaded operands at their first
    use.  The during-op count at op ``i`` adds the operands materialising
    there plus one fresh destination register unless the op is in-place.
    Quadratic in the op count and free of incremental state — nothing to
    get subtly wrong, which is the point: this must *independently* agree
    with ``kernels.dag.peak_live`` and ``verify.schedule``.
    """
    name_to_op = {op.name: op for op in dag.ops}
    ops = [name_to_op[n] for n in order]
    produced = {op.output: idx for idx, op in enumerate(ops)}
    first_use: dict[str, int] = {}
    use_indices: dict[str, list[int]] = {}
    for idx, op in enumerate(ops):
        for v in op.inputs:
            first_use.setdefault(v, idx)
            use_indices.setdefault(v, []).append(idx)

    def materialised_at(v: str) -> int:
        if v in dag.live_at_start:
            return -1
        if v in produced:
            return produced[v]
        return first_use.get(v, len(ops))

    universe = set(dag.live_at_start) | set(produced) | set(first_use)

    def live_after(i: int) -> int:
        """Live count at the boundary after ops[0..i-1] have run."""
        return sum(
            1
            for v in universe
            if materialised_at(v) < i
            and (
                v in dag.live_at_end
                or any(u >= i for u in use_indices.get(v, []))
            )
        )

    profile = [live_after(0)]
    for i, op in enumerate(ops):
        entering = sum(1 for v in set(op.inputs) if materialised_at(v) == i)
        fresh_dst = 0 if op.inplace else 1
        profile.append(live_after(i) + entering + fresh_dst)
        profile.append(live_after(i + 1))
    return profile


def derive_register_peaks() -> tuple[dict[str, tuple[int, int]], list[Finding]]:
    """Re-derive (written, optimal) register peaks for PADD and PACC.

    Returns the derived figures and the ``interval-register-peak``
    findings for any disagreement with the paper's published values.
    """
    derived: dict[str, tuple[int, int]] = {}
    findings: list[Finding] = []
    builders = {"PADD": build_padd_dag, "PACC": build_pacc_dag}
    for dag_name in ("PADD", "PACC"):
        dag = builders[dag_name]()
        written_order = [op.name for op in dag.ops]
        optimal_order = list(find_optimal_schedule(dag).order)
        written = max(_live_profile(dag, written_order))
        optimal = max(_live_profile(dag, optimal_order))
        derived[dag_name] = (written, optimal)
        expected = PUBLISHED_PEAKS[dag_name]
        if (written, optimal) != expected:
            findings.append(
                Finding(
                    "interval-register-peak", f"<{dag_name} dag>", 0,
                    f"derived peaks (written={written}, optimal={optimal}) "
                    f"disagree with the paper's "
                    f"(written={expected[0]}, optimal={expected[1]})",
                )
            )
    return derived, findings


def analyze_kernels() -> tuple[list[Finding], list[str]]:
    """The full interval family: DAG bounds, TC accumulators, peaks.

    Returns (findings, discharged-check descriptions).
    """
    findings: list[Finding] = []
    checks: list[str] = []
    dags = {"PADD": build_padd_dag(), "PACC": build_pacc_dag()}
    for curve in list_curves():
        for dag_name, dag in dags.items():
            dag_findings = interpret_dag(dag, curve)
            findings.extend(dag_findings)
            if not dag_findings:
                checks.append(
                    f"interval: {dag_name}@{curve.name} — all "
                    f"{len(dag.ops)} ops within Montgomery bounds"
                )
        tc = tc_accumulator_findings(curve)
        findings.extend(tc)
        if not tc:
            num_bytes = curve.num_limbs * (WORD_BITS // 8)
            checks.append(
                f"interval: TC accumulator@{curve.name} — "
                f"{num_bytes}-byte product fits uint32"
            )
    derived, peak_findings = derive_register_peaks()
    findings.extend(peak_findings)
    for dag_name, (written, optimal) in sorted(derived.items()):
        if not any(f.rule == "interval-register-peak" and dag_name in f.path
                   for f in peak_findings):
            checks.append(
                f"interval: {dag_name} register peaks re-derived — "
                f"written={written}, optimal={optimal} (paper figures)"
            )
    return findings, checks
