"""Property tier for the plan auto-tuner (ISSUE 10 satellite).

Four invariants make a search trustworthy enough to seed serving plan
caches from, and all four are load-bearing:

* **never worse** — under its own cost model, the tuner's winner never
  scores above the initial/default state;
* **deterministic per seed** — same knobs, same cost table, same seed,
  same budget => identical result (plans seeded into a cluster must not
  depend on run order);
* **valid by construction** — every emitted config passes
  ``DistMsmConfig.__post_init__`` validation;
* **exact on small grids** — with a single window-size knob the search
  degenerates to brute force, so its answer must equal the literal
  argmin over the grid.

The generic :func:`coordinate_search` properties run against synthetic
deterministic cost tables (fast, fully explorable); the MSM-level
properties run the real analytic cost model on small budgets.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem
from repro.tune import Knob, coordinate_search, evaluate_config, msm_knobs, tune_msm

# -- synthetic cost tables -----------------------------------------------------

#: small knob spaces the search can fully explore within its budget
knob_space = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda kv: kv[0],
).map(lambda kvs: tuple(Knob(name, tuple(values)) for name, values in kvs))


def table_cost(table_seed: int):
    """A deterministic pseudo-random cost table over assignments."""

    def cost(assignment: dict) -> float:
        key = (table_seed, tuple(sorted(assignment.items())))
        return float(hash(key) % 10_000) / 100.0

    return cost


@given(knobs=knob_space, table_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_never_worse_than_initial(knobs, table_seed, seed):
    initial = {k.name: k.values[0] for k in knobs}
    result = coordinate_search(knobs, initial, table_cost(table_seed), seed=seed)
    assert result.best_cost <= result.initial_cost
    assert result.initial_cost >= result.best_cost


@given(knobs=knob_space, table_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16),
       budget=st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_deterministic_per_seed_and_budget_capped(knobs, table_seed, seed, budget):
    initial = {k.name: k.values[0] for k in knobs}
    cost = table_cost(table_seed)
    first = coordinate_search(knobs, initial, cost, seed=seed, budget=budget)
    second = coordinate_search(knobs, initial, cost, seed=seed, budget=budget)
    assert first == second
    assert first.evaluations <= budget
    # the winner is the argmin over everything actually evaluated
    assert first.best_cost == min(c for _, c in first.history)


@given(knobs=knob_space, table_seed=st.integers(0, 2**16), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_exhaustive_budget_finds_the_grid_optimum_single_knob(
    knobs, table_seed, seed
):
    # restrict to ONE knob: coordinate descent's first sweep IS brute force
    knob = knobs[0]
    cost = table_cost(table_seed)
    result = coordinate_search(
        (knob,), {knob.name: knob.values[0]}, cost, seed=seed, budget=len(knob.values)
    )
    brute = min(cost({knob.name: v}) for v in knob.values)
    assert result.best_cost == brute


# -- the real MSM knob space ---------------------------------------------------

GPUS = st.sampled_from([1, 2, 4])
LOG_N = st.sampled_from([14, 16, 18])


@given(gpus=GPUS, log_n=LOG_N, seed=st.integers(0, 99))
@settings(max_examples=8, deadline=None)
def test_tuned_config_is_valid_and_never_worse(gpus, log_n, seed):
    system = MultiGpuSystem(gpus)
    curve = curve_by_name("BN254")
    plan = tune_msm(system, curve, 1 << log_n, seed=seed, budget=24)
    # valid by construction: re-validating must not raise
    replace(plan.config)
    assert 1 <= plan.window_size <= 30
    assert plan.tuned_ms <= plan.default_ms
    assert plan.speedup >= 1.0
    # the reported scores are honest re-evaluations of the cost model
    assert plan.tuned_ms == pytest.approx(
        evaluate_config(system, curve, 1 << log_n, plan.config)
    )


@given(seed=st.integers(0, 99))
@settings(max_examples=5, deadline=None)
def test_tune_msm_deterministic_per_seed(seed):
    system = MultiGpuSystem(2)
    curve = curve_by_name("BN254")
    a = tune_msm(system, curve, 1 << 16, seed=seed, budget=24)
    b = tune_msm(system, curve, 1 << 16, seed=seed, budget=24)
    assert a.as_dict() == b.as_dict()
    assert a.config == b.config


@given(gpus=GPUS, log_n=LOG_N)
@settings(max_examples=6, deadline=None)
def test_window_knob_matches_brute_force_argmin(gpus, log_n):
    """On a window-only grid the tuner must return the literal argmin."""
    system = MultiGpuSystem(gpus)
    curve = curve_by_name("BLS12-381")
    n = 1 << log_n
    grid = (8, 10, 12, 14)
    base = DistMsmConfig()
    knob = Knob("window_size", grid)
    plan = tune_msm(
        system, curve, n, base=replace(base, window_size=grid[0]),
        knobs=(knob,), budget=len(grid),
    )
    brute = {
        s: evaluate_config(system, curve, n, replace(base, window_size=s))
        for s in grid
    }
    assert plan.tuned_ms == min(brute.values())
    assert brute[plan.config.window_size] == min(brute.values())


def test_default_grids_contain_the_base_values():
    base = DistMsmConfig(window_size=7, threads_per_bucket_min=3)
    for knob in msm_knobs(base):
        current = getattr(base, knob.name)
        assert any(current == v for v in knob.values)


def test_off_grid_initial_is_rejected():
    knob = Knob("x", (1, 2, 3))
    with pytest.raises(ValueError, match="not on its grid"):
        coordinate_search((knob,), {"x": 9}, lambda a: 0.0)


def test_infeasible_points_score_inf_not_crash():
    # s=16 hierarchical overflows shared memory: must not be elected
    system = MultiGpuSystem(2)
    curve = curve_by_name("BN254")
    cfg = DistMsmConfig(window_size=16, scatter="hierarchical")
    assert evaluate_config(system, curve, 1 << 16, cfg) == float("inf")
    plan = tune_msm(
        system, curve, 1 << 16,
        knobs=(Knob("window_size", (None, 12, 16)),), budget=8,
    )
    assert plan.tuned_ms < float("inf")
    assert plan.config.window_size != 16
