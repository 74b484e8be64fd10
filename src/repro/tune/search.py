"""Deterministic, budget-capped plan search over the DistMSM knob space.

The §3.1 planner picks the window size by minimizing the per-thread
workload model — one knob, one closed form.  The engine exposes more
policy than that (:class:`~repro.core.config.DistMsmConfig`): scatter
strategy, bucket-sum thread floor, host bucket-reduce offload, and the
serving layer adds batch-close triggers
(:class:`~repro.serve.batcher.ContinuousBatcher`).  These knobs interact —
e.g. dropping ``threads_per_bucket_min`` changes the optimal window —
so per-knob closed forms compose suboptimally.

The tuner closes the loop with the cheapest honest search that fits the
CI budget: **coordinate descent with seeded neighborhood restarts** over
an explicit finite grid per knob, scoring candidates through the
:class:`~repro.core.backends.AnalyticBackend` (every evaluation is a
full engine estimate, ~ms each, fully deterministic).  Three properties
are load-bearing and property-tested (``tests/tune``):

* **never worse** — the analytic default is evaluated first and the
  returned state is the argmin over *everything* evaluated, so under its
  own cost model the tuner cannot lose to the default;
* **deterministic per seed** — knob order is fixed, per-knob scans visit
  values in declaration order, ties keep the incumbent, and the only
  randomness (neighborhood restarts) comes from one ``random.Random(seed)``;
* **valid by construction** — candidate configs are built with
  ``dataclasses.replace`` on a validated :class:`DistMsmConfig`, so every
  emitted config re-runs ``__post_init__`` validation.

Tuning must only ever change the schedule, never the resulting group
element; ``tests/tune/test_tuned_bitexact.py`` checks winners bit-exactly
with the :class:`~repro.core.backends.FunctionalBackend`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import CurveParams
from repro.gpu.cluster import MultiGpuSystem

__all__ = [
    "Knob",
    "SearchResult",
    "TunedPlan",
    "coordinate_search",
    "msm_knobs",
    "evaluate_config",
    "tune_msm",
    "tune_serve_policy",
    "TunedServePolicy",
]

State = tuple[tuple[str, Any], ...]


@dataclass(frozen=True)
class Knob:
    """One search dimension: a name and its finite, ordered value grid."""

    name: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"knob {self.name!r} has an empty value grid")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(f"knob {self.name!r} has duplicate values")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one :func:`coordinate_search` run."""

    best_state: State
    best_cost: float
    initial_cost: float
    evaluations: int
    #: (state, cost) in first-evaluation order — the audit trail
    history: tuple[tuple[State, float], ...]


def _as_state(assignment: Mapping[str, Any], knobs: Sequence[Knob]) -> State:
    return tuple((k.name, assignment[k.name]) for k in knobs)


def coordinate_search(
    knobs: Sequence[Knob],
    initial: Mapping[str, Any],
    cost_fn: Callable[[dict[str, Any]], float],
    seed: int = 0,
    budget: int = 96,
    restarts: int = 4,
) -> SearchResult:
    """Coordinate descent + seeded neighborhood restarts, budget-capped.

    Starting from ``initial`` (which must assign every knob a value on
    its grid or not at all — missing knobs start at their first grid
    value), repeatedly sweep the knobs in declaration order; for each
    knob evaluate every grid value with the others held fixed and move
    to the strict argmin (ties keep the incumbent).  When a full sweep
    makes no move, perturb two knobs at seeded random and descend again
    (``restarts`` times).  ``budget`` caps *distinct* cost evaluations —
    revisits hit a memo and are free — so the search degrades gracefully
    rather than blowing the CI envelope.  Returns the argmin over every
    state evaluated, which is what makes the never-worse guarantee
    unconditional.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    names = [k.name for k in knobs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate knob names")
    grid = {k.name: k.values for k in knobs}
    current: dict[str, Any] = {
        k.name: initial.get(k.name, k.values[0]) for k in knobs
    }
    for k in knobs:
        if not any(current[k.name] == v for v in k.values):
            raise ValueError(
                f"initial value {current[k.name]!r} for knob {k.name!r} "
                f"is not on its grid"
            )

    memo: dict[State, float] = {}
    history: list[tuple[State, float]] = []

    def cost_of(assignment: dict[str, Any]) -> float | None:
        state = _as_state(assignment, knobs)
        if state in memo:
            return memo[state]
        if len(memo) >= budget:
            return None  # budget exhausted: unknown states stay unexplored
        cost = cost_fn(dict(assignment))
        memo[state] = cost
        history.append((state, cost))
        return cost

    initial_cost = cost_of(current)
    assert initial_cost is not None  # budget >= 1 guarantees the first eval
    rng = random.Random(seed)

    def descend(state: dict[str, Any]) -> dict[str, Any]:
        while True:
            moved = False
            for knob in knobs:
                incumbent = state[knob.name]
                best_value, best_cost = incumbent, cost_of(state)
                if best_cost is None:
                    return state
                for value in knob.values:
                    if value == incumbent:
                        continue
                    probe = cost_of({**state, knob.name: value})
                    if probe is not None and probe < best_cost:
                        best_value, best_cost = value, probe
                if best_value != incumbent:
                    state = {**state, knob.name: best_value}
                    moved = True
            if not moved:
                return state

    state = descend(current)
    for _ in range(restarts):
        if len(memo) >= budget:
            break
        perturbed = dict(state)
        for knob in rng.sample(list(knobs), k=min(2, len(knobs))):
            perturbed[knob.name] = rng.choice(grid[knob.name])
        candidate = descend(perturbed)
        state_cost = memo[_as_state(state, knobs)]
        cand_cost = memo.get(_as_state(candidate, knobs))
        if cand_cost is not None and cand_cost < state_cost:
            state = candidate

    best_state, best_cost = min(
        memo.items(), key=lambda item: (item[1], history_index(history, item[0]))
    )
    return SearchResult(
        best_state=best_state,
        best_cost=best_cost,
        initial_cost=initial_cost,
        evaluations=len(memo),
        history=tuple(history),
    )


def history_index(history: list[tuple[State, float]], state: State) -> int:
    for i, (s, _) in enumerate(history):
        if s == state:
            return i
    return len(history)


# -- MSM plan tuning ----------------------------------------------------------

#: feasible window grid: the union of both scatter strategies' auto-tune
#: ranges (hierarchical caps at 14 per Fig. 11, naive extends to 22);
#: ``None`` is the §3.1 analytic auto-pick itself
_WINDOW_GRID: tuple[Any, ...] = (None, *range(5, 17))


def msm_knobs(base: DistMsmConfig) -> tuple[Knob, ...]:
    """The default MSM search space, anchored at ``base``'s values.

    Every grid includes the base config's own value, so the search's
    initial state is always on-grid and the never-worse guarantee spans
    exactly the knobs being searched.
    """

    def with_base(name: str, values: tuple[Any, ...]) -> Knob:
        current = getattr(base, name)
        if not any(current == v for v in values):
            values = (current, *values)
        return Knob(name, values)

    return (
        with_base("window_size", _WINDOW_GRID),
        with_base("scatter", ("hierarchical", "naive")),
        with_base("threads_per_bucket_min", (1, 8, 32, 128)),
        with_base("bucket_reduce_on_cpu", (True, False)),
    )


def evaluate_config(
    system: MultiGpuSystem,
    curve: CurveParams,
    n: int,
    config: DistMsmConfig,
) -> float:
    """The tuner's cost model: the analytic end-to-end makespan (ms).

    Valid-but-infeasible points of the knob grid (e.g. a hierarchical
    scatter whose per-block counters overflow shared memory — the very
    cliff that caps the §3.1 auto-tune at s = 14) score ``inf`` rather
    than raising: the search walks around the cliff instead of dying on
    it, and an infeasible point can never be elected the winner because
    the finite default is always evaluated first.
    """
    from repro.gpu.device import SharedMemoryExceeded

    try:
        return DistMsm(system, config).estimate(curve, n).time_ms
    except SharedMemoryExceeded:
        return float("inf")


@dataclass(frozen=True)
class TunedPlan:
    """One tuning outcome: the winning config and its modelled gain."""

    curve: str
    n: int
    num_gpus: int
    config: DistMsmConfig
    window_size: int
    default_ms: float
    tuned_ms: float
    evaluations: int
    seed: int

    @property
    def speedup(self) -> float:
        """Modelled default/tuned makespan ratio (>= 1.0 by construction)."""
        return self.default_ms / self.tuned_ms if self.tuned_ms > 0 else 1.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "curve": self.curve,
            "n": self.n,
            "num_gpus": self.num_gpus,
            "window_size": self.window_size,
            "scatter": self.config.scatter,
            "threads_per_bucket_min": self.config.threads_per_bucket_min,
            "bucket_reduce_on_cpu": self.config.bucket_reduce_on_cpu,
            "default_ms": round(self.default_ms, 6),
            "tuned_ms": round(self.tuned_ms, 6),
            "tuned_speedup": round(self.speedup, 6),
            "evaluations": self.evaluations,
            "seed": self.seed,
        }


def tune_msm(
    system: MultiGpuSystem,
    curve: CurveParams,
    n: int,
    base: DistMsmConfig | None = None,
    knobs: Sequence[Knob] | None = None,
    seed: int = 0,
    budget: int = 96,
) -> TunedPlan:
    """Tune one (system, curve, n) workload; returns the winning plan.

    The search starts at ``base`` (the analytic default when omitted) and
    scores candidates with :func:`evaluate_config`; the result's
    ``default_ms`` is the base config's own score, so ``speedup`` is the
    honest tuned-vs-analytic ratio under the shared cost model.
    """
    base = base if base is not None else DistMsmConfig()
    knob_list = tuple(knobs) if knobs is not None else msm_knobs(base)
    initial = {k.name: getattr(base, k.name) for k in knob_list}

    def cost(assignment: dict[str, Any]) -> float:
        return evaluate_config(system, curve, n, replace(base, **assignment))

    result = coordinate_search(
        knob_list, initial, cost, seed=seed, budget=budget
    )
    tuned_config = replace(base, **dict(result.best_state))
    engine = DistMsm(system, tuned_config)
    return TunedPlan(
        curve=curve.name,
        n=n,
        num_gpus=system.num_gpus,
        config=tuned_config,
        window_size=engine.window_size_for(curve, n),
        default_ms=result.initial_cost,
        tuned_ms=result.best_cost,
        evaluations=result.evaluations,
        seed=seed,
    )


# -- serving-policy tuning ----------------------------------------------------


@dataclass(frozen=True)
class TunedServePolicy:
    """One batch-trigger tuning outcome for a serving deployment."""

    max_batch_size: int
    max_wait_ms: float
    default_p95_ms: float
    tuned_p95_ms: float
    evaluations: int
    seed: int

    @property
    def improvement(self) -> float:
        return (
            self.default_p95_ms / self.tuned_p95_ms if self.tuned_p95_ms > 0 else 1.0
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "max_batch_size": self.max_batch_size,
            "max_wait_ms": self.max_wait_ms,
            "default_p95_ms": round(self.default_p95_ms, 6),
            "tuned_p95_ms": round(self.tuned_p95_ms, 6),
            "p95_improvement": round(self.improvement, 6),
            "evaluations": self.evaluations,
            "seed": self.seed,
        }


def tune_serve_policy(
    num_gpus: int,
    curve: CurveParams,
    request_count: int = 12,
    rate_rps: float = 200.0,
    sizes: int | tuple[int, ...] = 1 << 14,
    seed: int = 0,
    budget: int = 16,
    config: DistMsmConfig | None = None,
) -> TunedServePolicy:
    """Tune the batcher's close triggers against a seeded Poisson workload.

    Searches ``ServeConfig.max_batch_size`` / ``max_wait_ms`` (the
    :class:`~repro.serve.batcher.ContinuousBatcher` size and age triggers),
    scoring each candidate by the served p95 latency of one reproducible
    open-loop trace.  Each evaluation runs a fresh
    :class:`~repro.serve.server.MsmProofServer` so plan caches never leak
    between candidates.
    """
    from repro.serve.queue import poisson_trace
    from repro.serve.server import MsmProofServer, ServeConfig

    system = MultiGpuSystem(num_gpus)
    base = ServeConfig()
    knob_list = (
        Knob("max_batch_size", (1, 2, 4, base.max_batch_size, 16)),
        Knob("max_wait_ms", (0.5, 1.0, base.max_wait_ms, 4.0, 8.0)),
    )
    workload = poisson_trace(curve, request_count, rate_rps, seed, sizes=sizes)

    def cost(assignment: dict[str, Any]) -> float:
        serve_config = replace(base, **assignment)
        server = MsmProofServer(
            system, config=config or DistMsmConfig(), serve_config=serve_config
        )
        metrics = server.serve(list(workload)).metrics
        return metrics.p95_ms

    result = coordinate_search(
        knob_list,
        {"max_batch_size": base.max_batch_size, "max_wait_ms": base.max_wait_ms},
        cost,
        seed=seed,
        budget=budget,
        restarts=1,
    )
    best = dict(result.best_state)
    return TunedServePolicy(
        max_batch_size=best["max_batch_size"],
        max_wait_ms=best["max_wait_ms"],
        default_p95_ms=result.initial_cost,
        tuned_p95_ms=result.best_cost,
        evaluations=result.evaluations,
        seed=seed,
    )
