"""repro.analyze — whole-program static analysis for the repro codebase.

Four analysis families back the repo's determinism and correctness
guarantees *before anything runs*:

* **determinism** — AST lint against hidden global state (unseeded RNGs,
  wall-clock reads, hash-ordered set iteration, mutable defaults);
* **units** — a dataflow pass over ``_ms``/``_bytes``/``_count`` name
  suffixes that catches mixed-unit arithmetic, comparisons, assignments,
  calls, and returns;
* **intervals** — interval abstract interpretation of the PADD/PACC op
  DAGs proving every Montgomery intermediate stays within its register
  allocation, plus an independent re-derivation of the paper's §4.2
  register-liveness peaks (PADD 11 → 9, PACC 9 → 7);
* **plan** — model checking of engine task graphs (:func:`check_plan`)
  over the plan each production emitter builds: cycles, unreachable
  tasks, FIFO-stream deadlocks, ``requires_alive`` cascade consistency.
  At run time the engine is the one check on a plan; nothing on the
  run-time path imports this package.

CLI: ``python -m repro.analyze [paths...] [--json] [--list-rules]``;
exit 0 iff the tree is clean — findings are fixed, not suppressed.
"""

from repro.analyze.driver import (
    analyze_paths,
    analyze_source,
    collect_files,
    representative_plans,
)
from repro.analyze.finding import AnalysisReport, Finding
from repro.analyze.modelcheck import PlanCheckResult, PlanError, check_plan
from repro.analyze.registry import FAMILIES, Rule, all_rules

__all__ = [
    "AnalysisReport",
    "FAMILIES",
    "Finding",
    "PlanCheckResult",
    "PlanError",
    "Rule",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "check_plan",
    "collect_files",
    "representative_plans",
]
