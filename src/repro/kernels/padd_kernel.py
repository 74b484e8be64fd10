"""Kernel descriptors: curve x optimisation flags -> resource/cost figures.

This is the bridge between the paper's §4 kernel techniques and the GPU
timing model.  A :class:`KernelDescriptor` aggregates, for one curve and one
set of optimisation toggles (the exact toggles of Fig. 12):

* peak live big integers and registers per thread (driving occupancy),
* modular multiplications per PADD/PACC/PDBL,
* word-level multiply/add counts per modular multiplication,
* tensor-core offload share and its memory-traffic factor,
* explicit-spill shared-memory traffic.

Everything that can be computed from first principles is (scheduler results,
Montgomery op counts, spill plans); hardware throughput mapping lives in
:mod:`repro.gpu.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.curves.params import CurveParams
from repro.curves.point import PACC_MODMULS, PADD_MODMULS, PDBL_MODMULS
from repro.fields.limbs import OpCounter, to_limbs
from repro.fields.montgomery import MontgomeryContext
from repro.kernels.dag import (
    build_pacc_dag,
    build_padd_dag,
    build_pdbl_dag,
    entry_live,
    peak_live,
)
from repro.kernels.scheduler import find_optimal_schedule
from repro.kernels.spill import SpillPlan, plan_spills

#: How many live big integers explicit spilling removes (paper: 7 -> 5).
SPILL_REDUCTION = 2

#: Registers available per thread before the hardware cap penalises further.
HARDWARE_REG_CAP = 255


@dataclass(frozen=True)
class KernelOptimisations:
    """The §4 optimisation toggles, in Fig. 12's cumulative order."""

    use_pacc: bool = False
    optimal_order: bool = False
    explicit_spill: bool = False
    tc_montmul: bool = False
    tc_compaction: bool = False

    @staticmethod
    def none() -> "KernelOptimisations":
        return KernelOptimisations()

    @staticmethod
    def all() -> "KernelOptimisations":
        return KernelOptimisations(True, True, True, True, True)

    @staticmethod
    def cumulative_stages() -> list[tuple[str, "KernelOptimisations"]]:
        """The incremental stages of the paper's Fig. 12."""
        return [
            ("baseline", KernelOptimisations()),
            ("PADD->PACC", KernelOptimisations(True)),
            ("Optimal Exec Order", KernelOptimisations(True, True)),
            ("Explicit Spill", KernelOptimisations(True, True, True)),
            ("MontMul with TC", KernelOptimisations(True, True, True, True)),
            ("On-the-fly Compact", KernelOptimisations(True, True, True, True, True)),
        ]


@lru_cache(maxsize=None)
def _schedule_info(dag_name: str) -> dict:
    """Scheduler results per DAG, computed once per process."""
    builders = {
        "PADD": build_padd_dag,
        "PACC": build_pacc_dag,
        "PDBL": build_pdbl_dag,
    }
    dag = builders[dag_name]()
    optimal = find_optimal_schedule(dag)
    return {
        "dag": dag,
        "written_peak": peak_live(dag),
        "optimal_peak": optimal.peak,
        "optimal_order": optimal.order,
    }


@lru_cache(maxsize=None)
def _montmul_word_ops(num_limbs: int) -> tuple[int, int]:
    """(word multiplies, word adds) of one SOS Montgomery multiplication."""
    # measure on a synthetic odd modulus with the requested limb count
    modulus = (1 << (32 * num_limbs)) - 0x2F
    while modulus % 2 == 0:
        modulus -= 1
    ctx = MontgomeryContext(modulus, num_limbs)
    counter = OpCounter()
    a = to_limbs(modulus - 12345, num_limbs)
    b = to_limbs(modulus - 98765, num_limbs)
    ctx.mont_mul_sos(a, b, counter)
    return counter.mul, counter.add


@lru_cache(maxsize=None)
def spill_plan_for(dag_name: str, budget: int) -> SpillPlan:
    """The explicit-spill plan for a DAG under the given live budget.

    Planned once per process: the plan depends only on the DAG, its
    optimal order and the budget, and :class:`SpillPlan` is frozen.
    """
    info = _schedule_info(dag_name)
    return plan_spills(info["dag"], list(info["optimal_order"]), budget)


@dataclass(frozen=True)
class KernelDescriptor:
    """Resource and cost figures for one curve + optimisation combination."""

    curve: CurveParams
    opts: KernelOptimisations

    # -- register pressure ------------------------------------------------

    def live_bigints(self, op: str) -> int:
        """Peak concurrently live big integers for one EC operation."""
        if op not in ("padd", "pacc", "pdbl"):
            raise ValueError(f"unknown op {op!r}")
        if op == "pdbl":
            dag_name = "PDBL"
        else:
            dag_name = "PACC" if (op == "pacc" and self.opts.use_pacc) else "PADD"
        info = _schedule_info(dag_name)
        live = info["optimal_peak"] if self.opts.optimal_order else info["written_peak"]
        if self.opts.explicit_spill:
            # spilling cannot shrink the entry working set (8 for PADD, 4
            # for PACC); the paper's 7 -> 5 claim is for PACC
            live = max(live - SPILL_REDUCTION, entry_live(info["dag"]))
        if self.opts.tc_compaction and self.curve.num_limbs >= 24:
            # wide curves: zero-padded byte matrices inflate the fragment
            # working set by about two big integers (paper: compaction makes
            # MNT4753 8.2% slower because of the extra register pressure)
            live += 2
        return live

    def registers_per_thread(self, op: str) -> int:
        """Registers per thread: live big integers x limbs (paper's metric)."""
        return self.live_bigints(op) * self.curve.num_limbs

    def spill_plan(self, op: str) -> SpillPlan | None:
        """The explicit-spill plan, or None when spilling is off."""
        if not self.opts.explicit_spill:
            return None
        if op == "pdbl":
            dag_name = "PDBL"
        else:
            dag_name = "PACC" if (op == "pacc" and self.opts.use_pacc) else "PADD"
        info = _schedule_info(dag_name)
        budget = info["optimal_peak" if self.opts.optimal_order else "written_peak"]
        budget = max(budget - SPILL_REDUCTION, entry_live(info["dag"]))
        return spill_plan_for(dag_name, budget)

    # -- arithmetic volume --------------------------------------------------

    def modmuls(self, op: str) -> int:
        """Modular multiplications per EC operation."""
        table = {
            "padd": PADD_MODMULS,
            "pacc": PACC_MODMULS if self.opts.use_pacc else PADD_MODMULS,
            "pdbl": PDBL_MODMULS,
        }
        if op not in table:
            raise ValueError(f"unknown op {op!r}")
        return table[op]

    def word_ops_per_modmul(self) -> tuple[int, int]:
        """(word multiplies, word adds) of one modular multiplication."""
        return _montmul_word_ops(self.curve.num_limbs)

    # -- tensor-core profile ---------------------------------------------------

    @property
    def tc_offload_share(self) -> float:
        """Fraction of word multiplies moved to tensor cores.

        In SOS, the ``m x n`` product is N^2 of the 2N^2 + N multiplies.
        """
        if not self.opts.tc_montmul:
            return 0.0
        n = self.curve.num_limbs
        return n * n / (2 * n * n + n)
