"""End-to-end pipeline model: Table 4 reproduction."""

import pytest

from repro.zksnark.pipeline import (
    EndToEndEstimate,
    estimate_end_to_end,
    table4,
)
from repro.zksnark.workloads import OTTI_SGD, ZCASH_SPROUT, ZEN_LENET


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4()

    def test_three_rows(self, result):
        assert [r.workload for r in result.rows] == [
            "Zcash-Sprout", "Otti-SGD", "Zen_acc-LeNet",
        ]

    def test_paper_speedup_band(self, result):
        """Paper: ~25.5x average end-to-end speedup, 24.9-26.7x per row."""
        for row in result.rows:
            assert 22 <= row.speedup <= 29

    def test_absolute_times_close_to_paper(self, result):
        paper = {"Zcash-Sprout": 5.8, "Otti-SGD": 11.7, "Zen_acc-LeNet": 188.7}
        for row in result.rows:
            assert row.distmsm_seconds == pytest.approx(paper[row.workload], rel=0.15)

    def test_others_dominates_gpu_time(self, result):
        """Amdahl: with MSM on 8 GPUs, the un-accelerated 'others' share
        dominates the remaining proving time."""
        for row in result.rows:
            assert row.others_seconds > row.msm_seconds
            assert row.others_seconds > row.ntt_seconds

    def test_render_contains_rows(self, result):
        text = result.render()
        assert "Zcash-Sprout" in text
        assert "libsnark" in text


class TestEstimates:
    def test_more_gpus_less_msm_time(self):
        t8 = estimate_end_to_end(ZEN_LENET, num_gpus=8)
        t32 = estimate_end_to_end(ZEN_LENET, num_gpus=32)
        assert t32.msm_seconds < t8.msm_seconds

    def test_estimate_fields(self):
        est = estimate_end_to_end(ZCASH_SPROUT)
        assert isinstance(est, EndToEndEstimate)
        assert est.distmsm_seconds == pytest.approx(
            est.msm_seconds + est.ntt_seconds + est.others_seconds
        )
