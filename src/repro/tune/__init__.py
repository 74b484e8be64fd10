"""repro.tune — bottleneck oracle + deterministic plan auto-tuner.

Closes the loop from the observability layer back into plan choice:

* :mod:`repro.tune.oracle` folds trace spans per §3.2 phase into a typed
  :class:`BottleneckReport` (atomics-/memory-/sync-bound verdicts with
  utilization fractions), reconciled against the
  :mod:`repro.verify.observecheck` invariants;
* :mod:`repro.tune.search` runs a seeded, budget-capped coordinate
  search over the :class:`~repro.core.config.DistMsmConfig` knob space
  (and the serving batch triggers), scoring through the analytic backend;
* :mod:`repro.tune.seed` installs the winners into
  :class:`~repro.serve.plancache.PlanCache` so ``MsmProofServer`` routes
  with tuned rather than analytic defaults.

CLI: ``python -m repro tune --curve BN254 --log-n 18 --gpus 4``.
See DESIGN.md §16.
"""

from repro.tune.oracle import (
    BOUND_ATOMICS,
    BOUND_MEMORY,
    BOUND_SYNC,
    BottleneckReport,
    PhaseProfile,
    analyze_result,
    analyze_trace,
    classify_phase,
)
from repro.tune.search import (
    Knob,
    SearchResult,
    TunedPlan,
    TunedServePolicy,
    coordinate_search,
    evaluate_config,
    msm_knobs,
    tune_msm,
    tune_serve_policy,
)
from repro.tune.seed import (
    SeedEntry,
    SeedReport,
    seed_server,
    tuned_cached_plan,
)

__all__ = [
    "BOUND_ATOMICS",
    "BOUND_MEMORY",
    "BOUND_SYNC",
    "BottleneckReport",
    "Knob",
    "PhaseProfile",
    "SearchResult",
    "SeedEntry",
    "SeedReport",
    "TunedPlan",
    "TunedServePolicy",
    "analyze_result",
    "analyze_trace",
    "classify_phase",
    "coordinate_search",
    "evaluate_config",
    "msm_knobs",
    "seed_server",
    "tune_msm",
    "tune_serve_policy",
    "tuned_cached_plan",
]
