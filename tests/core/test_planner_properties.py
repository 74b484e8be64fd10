"""Property-based tier for the §3.1 cost model, planner, and re-planning.

Hypothesis searches the parameter space for counterexamples to the
invariants the analytic layers promise:

* :func:`repro.core.workload.optimal_window_size` is the exact argmin of
  :func:`repro.core.workload.per_thread_workload` over the searched range
  (first minimum wins on ties);
* the per-thread cost never *increases* when GPUs are added — pointwise at
  any fixed window size, and for the min-over-``s`` optimum;
* :func:`repro.core.planner.make_plan` always yields a validated plan with
  the balance each strategy promises;
* :func:`repro.faults.recovery.redistribute_assignments` preserves the
  covered (window, bucket-range, point-range) cells exactly and balances
  round-robin over the survivors;
* re-planning after a failure picks the same window size fresh planning
  would pick on the survivor set.

Note the *literal* "optimal s shrinks as GPUs are added" reading of §3.1 is
false in general (the ceil terms produce local plateaus where adding GPUs
can raise the optimum by a step); what holds — and what the paper's Fig. 3
shows — is the weak *cost* monotonicity tested here plus the concrete
regime regressions pinned at the bottom.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.core.planner import Assignment, make_plan
from repro.core.workload import optimal_window_size, per_thread_workload
from repro.curves.params import curve_by_name
from repro.engine.faults import FaultPlan, GpuFailure
from repro.faults.recovery import (
    FaultRecoveryError,
    detection_time_ms,
    redistribute_assignments,
)
from repro.gpu.cluster import MultiGpuSystem

# The cost model is exact integer/float arithmetic; tolerances only absorb
# float rounding in the second (shared-window) branch.
REL_EPS = 1e-12
ABS_EPS = 1e-9

log_n = st.integers(min_value=10, max_value=28)
scalar_bits = st.sampled_from([64, 128, 253, 255, 753])
num_gpus = st.integers(min_value=1, max_value=32)
threads = st.sampled_from([1 << 10, 1 << 13, 1 << 16, 1 << 17])
window = st.integers(min_value=4, max_value=24)


def max_gpu_load(plan) -> float:
    """The largest per-GPU share of total work (windows-equivalents)."""
    loads = [0.0] * plan.num_gpus
    for a in plan.assignments:
        loads[a.gpu] += a.bucket_share * a.point_share
    return max(loads)


class TestCostModelProperties:
    @given(log_n=log_n, bits=scalar_bits, gpus=num_gpus, nt=threads)
    @settings(max_examples=200, deadline=None)
    def test_optimal_window_size_is_exact_argmin(self, log_n, bits, gpus, nt):
        """Differential against a brute-force scan of the same range."""
        n = 1 << log_n
        chosen = optimal_window_size(n, bits, gpus, nt)
        costs = {
            s: per_thread_workload(n, bits, s, gpus, nt) for s in range(4, 25)
        }
        best = min(costs.values())
        assert costs[chosen] == best
        # first-minimum tie-break: no smaller s achieves the same cost
        assert chosen == min(s for s, c in costs.items() if c == best)

    @given(log_n=log_n, bits=scalar_bits, s=window, nt=threads)
    @settings(max_examples=200, deadline=None)
    def test_cost_pointwise_weakly_decreasing_in_gpus(self, log_n, bits, s, nt):
        """At any fixed window size, more GPUs never cost more per thread."""
        n = 1 << log_n
        prev = None
        for gpus in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32):
            cost = per_thread_workload(n, bits, s, gpus, nt)
            if prev is not None:
                assert cost <= prev * (1 + REL_EPS) + ABS_EPS
            prev = cost

    @given(log_n=log_n, bits=scalar_bits, nt=threads)
    @settings(max_examples=100, deadline=None)
    def test_optimal_cost_weakly_decreasing_in_gpus(self, log_n, bits, nt):
        """The min-over-s cost is weakly decreasing even where the argmin
        jumps around (the Fig. 3 'weak shrink' that actually holds)."""
        n = 1 << log_n
        prev = None
        for gpus in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32):
            best = min(
                per_thread_workload(n, bits, s, gpus, nt) for s in range(4, 25)
            )
            if prev is not None:
                assert best <= prev * (1 + REL_EPS) + ABS_EPS
            prev = best

    @given(
        n=st.integers(min_value=-4, max_value=0),
        bits=scalar_bits,
        gpus=num_gpus,
        nt=threads,
    )
    @settings(max_examples=20, deadline=None)
    def test_non_positive_inputs_rejected(self, n, bits, gpus, nt):
        with pytest.raises(ValueError):
            per_thread_workload(n, bits, 16, gpus, nt)


class TestPlanProperties:
    @given(
        num_windows=st.integers(min_value=1, max_value=40),
        gpus=st.integers(min_value=1, max_value=16),
        strategy=st.sampled_from(["bucket-split", "windows", "ndim"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_plan_validates_with_promised_balance(
        self, num_windows, gpus, strategy
    ):
        plan = make_plan(num_windows, gpus, strategy)  # validate() runs inside
        if strategy == "bucket-split":
            # perfectly even fractional split
            assert max_gpu_load(plan) == pytest.approx(num_windows / gpus)
        elif strategy == "windows":
            # whole windows only; surplus GPUs idle
            assert max_gpu_load(plan) == math.ceil(num_windows / gpus)
        else:  # ndim: every GPU takes 1/gpus of every window
            assert max_gpu_load(plan) == pytest.approx(num_windows / gpus)
            for w in range(num_windows):
                assert len({a.gpu for a in plan.for_window(w)}) == gpus

    @given(
        num_windows=st.integers(min_value=1, max_value=24),
        gpus=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_bucket_split_covers_each_window_once(self, num_windows, gpus):
        plan = make_plan(num_windows, gpus, "bucket-split")
        for w in range(num_windows):
            parts = sorted(plan.for_window(w), key=lambda a: a.bucket_lo)
            assert parts[0].bucket_lo == pytest.approx(0.0)
            assert parts[-1].bucket_hi == pytest.approx(1.0)
            for left, right in zip(parts, parts[1:]):
                assert left.bucket_hi == pytest.approx(right.bucket_lo)


# Strategy for random assignment lists: cells need not tile a window here —
# redistribute_assignments must preserve *whatever* cells it is given.
assignments_st = st.lists(
    st.builds(
        Assignment,
        gpu=st.integers(min_value=0, max_value=15),
        window=st.integers(min_value=0, max_value=30),
        bucket_lo=st.just(0.0),
        bucket_hi=st.floats(min_value=0.125, max_value=1.0, width=32),
    ),
    min_size=1,
    max_size=40,
)


class TestRedistributionProperties:
    @given(
        assignments=assignments_st,
        survivors=st.lists(
            st.integers(min_value=0, max_value=15),
            min_size=1,
            max_size=8,
            unique=True,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_cells_preserved_and_round_robin_balanced(
        self, assignments, survivors
    ):
        moved = redistribute_assignments(assignments, survivors)

        # Only the gpu field may change: the covered cells are identical.
        def cell(a):
            return (a.window, a.bucket_lo, a.bucket_hi, a.point_lo, a.point_hi)

        assert sorted(map(cell, moved)) == sorted(map(cell, assignments))
        # Every target is a survivor, and counts differ by at most one.
        counts = {g: 0 for g in survivors}
        for a in moved:
            assert a.gpu in counts
            counts[a.gpu] += 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_no_survivors_raises(self):
        with pytest.raises(FaultRecoveryError):
            redistribute_assignments([Assignment(gpu=0, window=0)], [])

    @given(
        at=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        hb=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_detection_is_the_next_heartbeat_tick(self, at, hb):
        detected = detection_time_ms(at, hb)
        assert detected > at - 1e-9
        assert detected <= at + hb + 1e-9
        # it is an integer number of ticks
        assert detected / hb == pytest.approx(round(detected / hb))


class TestReplanningMatchesFreshPlanning:
    def test_replanned_s_equals_fresh_autotune_on_survivors(self):
        """Killing a GPU and re-planning must agree with planning from
        scratch for the survivor count (DESIGN.md §9 policy)."""
        curve = curve_by_name("BLS12-381")
        config = DistMsmConfig()  # window_size=None -> auto-tune
        engine = DistMsm(MultiGpuSystem(8), config)
        result = engine.estimate(
            curve, 1 << 20, faults=FaultPlan.of(GpuFailure(0.0, 3))
        )
        report = result.fault_report
        assert report is not None and report.dead_gpus == (3,)
        fresh = DistMsm(MultiGpuSystem(len(report.surviving_gpus)), config)
        assert report.replanned_window_size == fresh.window_size_for(curve, 1 << 20)

    def test_fixed_window_size_is_never_replanned(self):
        """With an explicit s configured, faults keep it (partial bucket
        sums are s-bound; mixing sizes would discard them)."""
        curve = curve_by_name("BLS12-381")
        engine = DistMsm(MultiGpuSystem(4), DistMsmConfig(window_size=12))
        result = engine.estimate(
            curve, 1 << 18, faults=FaultPlan.of(GpuFailure(0.0, 1))
        )
        report = result.fault_report
        assert report is not None and report.dead_gpus
        assert report.window_size == 12
        assert report.replanned_window_size == 12


class TestFigure3Regimes:
    """Pinned regressions for the regimes Fig. 3 actually plots. These are
    the deterministic face of the 'weak shrink': within each regime the
    optimum is non-increasing, even though that is not a theorem globally."""

    def test_paper_figure3_column(self):
        series = [
            optimal_window_size(1 << 26, 253, g, 1 << 16) for g in (1, 2, 4, 8, 16)
        ]
        assert series == [20, 19, 16, 16, 16]
        assert series == sorted(series, reverse=True)

    def test_engine_autotune_column(self):
        curve = curve_by_name("BLS12-381")
        series = [
            DistMsm(MultiGpuSystem(g), DistMsmConfig()).window_size_for(
                curve, 1 << 22
            )
            for g in (1, 2, 4, 8, 16)
        ]
        assert series == [13, 13, 12, 11, 8]
        assert series == sorted(series, reverse=True)
