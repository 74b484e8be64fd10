"""Per-thread workload model (§3.1) and the multi-GPU work planner."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.planner import (
    Assignment,
    make_plan,
)
from repro.core.workload import (
    figure3_series,
    optimal_window_size,
    per_thread_workload,
)

from tests.core.test_planner_properties import max_gpu_load


class TestWorkloadFormulas:
    def test_inputs_validated(self):
        with pytest.raises(ValueError):
            per_thread_workload(0, 253, 11, 1, 1 << 16)

    def test_single_gpu_optimum_is_20(self):
        """Paper Fig. 3: with N=2^26, N_T=2^16, λ=253, one GPU prefers s=20."""
        assert optimal_window_size(1 << 26, 253, 1, 1 << 16) == 20

    def test_optimum_shrinks_with_gpus(self):
        """The qualitative Fig. 3 claim: more GPUs -> smaller optimal s.

        (The paper quotes s=11 for 16 GPUs; the published formulas as
        written give 16 — see EXPERIMENTS.md for the discussion.)
        """
        one = optimal_window_size(1 << 26, 253, 1, 1 << 16)
        sixteen = optimal_window_size(1 << 26, 253, 16, 1 << 16)
        assert sixteen < one

    def test_bucket_reduce_term_grows_linearly_in_s(self):
        """§3.1: bucket-reduce's per-thread cost rises with s and does not
        shrink with more GPUs."""
        big_s = per_thread_workload(1 << 26, 253, 22, 16, 1 << 16)
        big_s_more_gpus = per_thread_workload(1 << 26, 253, 22, 16 * 2, 1 << 16)
        # doubling GPUs at huge s barely helps: the reduce term dominates
        assert big_s_more_gpus > big_s / 2

    def test_bucket_split_branch(self):
        """With more GPUs than windows the modified formula applies."""
        cost = per_thread_workload(1 << 26, 253, 16, 32, 1 << 16)
        assert cost > 0
        # doubling GPUs in this regime halves the main term
        cost2 = per_thread_workload(1 << 26, 253, 16, 64, 1 << 16)
        assert cost2 < cost

    @given(st.integers(1, 32), st.integers(5, 22))
    @settings(max_examples=40, deadline=None)
    def test_workload_positive(self, gpus, s):
        assert per_thread_workload(1 << 20, 253, s, gpus, 1 << 16) > 0


class TestFigure3Series:
    def test_paper_parameters(self):
        series = figure3_series()
        assert [c.num_gpus for c in series] == [1, 2, 4, 8, 16]

    def test_normalised_to_global_minimum(self):
        series = figure3_series()
        assert min(min(c.normalised_costs) for c in series) == pytest.approx(1.0)

    def test_monotone_improvement_with_gpus(self):
        series = figure3_series()
        minima = [min(c.normalised_costs) for c in series]
        assert minima == sorted(minima, reverse=True)


class TestPlanner:
    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_plan(0, 4)
        with pytest.raises(ValueError):
            make_plan(4, 0)
        with pytest.raises(ValueError):
            make_plan(4, 2, "diagonal")

    @pytest.mark.parametrize("strategy", ["bucket-split", "windows", "ndim"])
    @pytest.mark.parametrize("windows,gpus", [(16, 1), (16, 8), (13, 8), (16, 32), (3, 2)])
    def test_full_coverage(self, strategy, windows, gpus):
        plan = make_plan(windows, gpus, strategy)
        plan.validate()  # exact coverage of every window

    def test_windows_strategy_leaves_surplus_gpus_idle(self):
        plan = make_plan(4, 16, "windows")
        used = {a.gpu for a in plan.assignments}
        assert len(used) == 4

    def test_bucket_split_uses_all_gpus(self):
        plan = make_plan(4, 16, "bucket-split")
        used = {a.gpu for a in plan.assignments}
        assert len(used) == 16
        assert len({a.gpu for a in plan.for_window(0)}) == 4

    def test_paper_fractional_example(self):
        """Three GPUs, two windows: every GPU ends up with 2/3 of a window's
        worth of buckets (the paper's flexible-distribution example; our
        slicing assigns contiguous ranges but the same balanced load)."""
        plan = make_plan(2, 3, "bucket-split")
        plan.validate()
        for g in range(3):
            load = sum(
                a.bucket_share * a.point_share for a in plan.assignments if a.gpu == g
            )
            assert load == pytest.approx(2 / 3)
        # the middle GPU straddles the window boundary: a piece of each
        assert {a.window for a in plan.assignments if a.gpu == 1} == {0, 1}

    def test_ndim_splits_points_not_buckets(self):
        plan = make_plan(4, 8, "ndim")
        for a in plan.assignments:
            assert a.bucket_share == 1.0
            assert a.point_share == pytest.approx(1 / 8)

    def test_balanced_load(self):
        plan = make_plan(13, 8, "bucket-split")
        assert max_gpu_load(plan) == pytest.approx(13 / 8, rel=1e-6)

    def test_validation_catches_gaps(self):
        plan = make_plan(2, 2, "windows")
        plan.assignments.pop()
        with pytest.raises(ValueError):
            plan.validate()

    def test_assignment_shares(self):
        a = Assignment(gpu=0, window=0, bucket_lo=0.25, bucket_hi=0.75)
        assert a.bucket_share == pytest.approx(0.5)
        assert a.point_share == 1.0
