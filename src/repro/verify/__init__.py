"""Independent static analysis of the repro's kernel-level artifacts.

Everything the paper claims about the kernels is a statically checkable
property of a schedule, a spill plan, or a memory trace; this package
checks those properties without re-running (or trusting) the code that
produced them.  The checkers:

* :mod:`repro.verify.schedule` — execution orders: topological validity,
  single assignment, in-place aliasing, an independent register-liveness
  recomputation cross-checked against claimed peaks, modmul budgets;
* :mod:`repro.verify.spillcheck` — spill plans: symbolic replay rejecting
  use-before-reload, double-spills, budget and shared-memory overflows;
* :mod:`repro.verify.races` — scatter/bucket-sum memory traces: a
  happens-before graph over blocks, barriers, warps, and atomics, flagging
  unsynchronised same-address conflicts;
* :mod:`repro.verify.timelinecheck` — engine schedules: coverage,
  dependency order, resource exclusivity, makespan claims (fault-aware);
* :mod:`repro.verify.faultcheck` — recovered chaos timelines: no
  post-mortem scheduling on dead resources, exponential-backoff spacing
  of transfer retries, honest makespan accounting;
* :mod:`repro.verify.integritycheck` — Byzantine audit trails: every plan
  slot consumed exactly once from a delivered, *accepted* execution, no
  value-changing forgery accepted, quarantine discipline, and the host
  accumulation gated behind the consumed chunks' response checks;
* :mod:`repro.verify.observecheck` — traces: well-formed nesting, one
  span per executed task, busy-time and makespan agreement with the
  timeline, phase-serial stage tiling;
* :mod:`repro.verify.driver` also runs :mod:`repro.analyze`'s
  whole-program static pass (determinism lint, unit dataflow, interval
  abstract interpretation, plan model checking) inside ``verify_all``;
  its findings fail the gate like any other checker's.

Every checker speaks one contract (:mod:`repro.verify.report`): problems
are :class:`~repro.analyze.finding.Finding` records, each auditor returns
a :class:`CheckResult`, and the conservation, causality and exclusion
invariants the timeline, fault, serving, cluster, integrity and trace
auditors share are written once in :mod:`repro.verify.invariants`.

``python -m repro.verify`` runs all of it over every registered kernel and
baseline; :mod:`repro.verify.fixtures` holds the injected faults that prove
each checker can actually fail.
"""

from repro.verify.driver import (
    verify_all,
    verify_bucket_sum,
    verify_byzantine,
    verify_fault_recovery,
    verify_kernel_schedules,
    verify_observability,
    verify_scatter_config,
    verify_spill_plans,
    verify_static_analysis,
)
from repro.verify.faultcheck import FaultCheckResult, verify_fault_timeline
from repro.verify.fixtures import FIXTURES, run_fixture
from repro.verify.integritycheck import IntegrityCheckResult, verify_msm_integrity
from repro.verify.observecheck import (
    ObserveCheckResult,
    verify_trace,
    verify_trace_against_timeline,
)
from repro.verify.races import (
    RaceCheckResult,
    detect_races,
    trace_bucket_sum,
    trace_hierarchical_scatter,
    trace_naive_scatter,
)
from repro.verify.report import CheckResult, VerificationReport
from repro.verify.schedule import (
    LiveInterval,
    ScheduleCheckResult,
    live_intervals,
    verify_schedule,
)
from repro.verify.spillcheck import (
    SpillCheckResult,
    spill_bytes_per_thread,
    verify_spill_plan,
)

__all__ = [
    "CheckResult",
    "FIXTURES",
    "FaultCheckResult",
    "IntegrityCheckResult",
    "LiveInterval",
    "ObserveCheckResult",
    "RaceCheckResult",
    "ScheduleCheckResult",
    "SpillCheckResult",
    "VerificationReport",
    "detect_races",
    "live_intervals",
    "run_fixture",
    "spill_bytes_per_thread",
    "trace_bucket_sum",
    "trace_hierarchical_scatter",
    "trace_naive_scatter",
    "verify_all",
    "verify_bucket_sum",
    "verify_byzantine",
    "verify_fault_recovery",
    "verify_fault_timeline",
    "verify_kernel_schedules",
    "verify_msm_integrity",
    "verify_observability",
    "verify_scatter_config",
    "verify_schedule",
    "verify_spill_plan",
    "verify_spill_plans",
    "verify_static_analysis",
    "verify_trace",
    "verify_trace_against_timeline",
]
