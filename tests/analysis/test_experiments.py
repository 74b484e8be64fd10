"""Experiment runners: structure checks plus paper-anchored assertions.

Full-grid reproductions run in ``benchmarks/``; tests here use reduced grids
so the suite stays fast while still pinning the headline shapes.
"""

import pytest

from repro.analysis.experiments import (
    Table3Result,
    Table3Row,
    figure3,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    no_opt_config,
    table1,
    table2,
    table3,
)
from repro.analysis.tables import format_table


class TestFormatting:
    def test_basic_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 10000.0]])
        assert "10,000" in text
        assert "2.50" in text

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])


class TestTable1:
    def test_matches_paper(self):
        rows = table1().rows
        assert rows[0] == ["BN254", 254, 254, 8]
        assert rows[3] == ["MNT4753", 753, 753, 24]

    def test_render(self):
        assert "Table 1" in table1().render()


class TestTable2:
    def test_six_baselines(self):
        result = table2()
        assert len(result.rows) == 6
        assert "BLS12-381" in result.render()


class TestFigure3:
    def test_optimal_window_shrinks(self):
        result = figure3()
        optima = [c.optimal_s for c in result.curves]
        assert optima[0] == 20  # paper: single GPU prefers s=20
        assert optima[-1] < optima[0]
        assert "Figure 3" in result.render()


class TestTable3:
    @pytest.fixture(scope="class")
    def full(self):
        return table3()

    @pytest.fixture(scope="class")
    def result(self, full):
        """BN254 and MNT4753 at 2^24 and 2^26 on 1 and 8 GPUs, picked out
        of the full grid (each cell is computed on its own)."""
        rows = [
            Table3Row(row.curve, row.log_n, [c for c in row.cells if c.gpus in (1, 8)])
            for row in full.rows
            if row.curve in ("BN254", "MNT4753") and row.log_n in (24, 26)
        ]
        return Table3Result(rows, (1, 8))

    def test_structure(self, full, result):
        assert len(full.rows) == 16
        assert all(len(r.cells) == 4 for r in full.rows)
        assert len(result.rows) == 4
        assert all(len(r.cells) == 2 for r in result.rows)

    def test_distmsm_wins_multi_gpu(self, result):
        for row in result.rows:
            multi = row.cells[-1]
            assert multi.speedup > 1.0

    def test_mnt_speedups_largest(self, result):
        mnt = [r for r in result.rows if r.curve == "MNT4753"]
        bn = [r for r in result.rows if r.curve == "BN254"]
        assert min(c.speedup for r in mnt for c in r.cells) > max(
            c.speedup for r in bn for c in r.cells
        )

    def test_render(self, result):
        text = result.render()
        assert "2^24" in text
        assert "average multi-GPU speedup" in text


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8()

    def test_distmsm_scales_best_at_32(self, result):
        by_name = {s.method: s for s in result.series}
        dist_32 = by_name["DistMSM"].speedups[-1]
        for name, series in by_name.items():
            if name != "DistMSM":
                assert series.speedups[-1] <= dist_32 * 1.05

    def test_yrrid_scales_worst(self, result):
        """Paper: 'Yrrid, despite its superior single-GPU performance,
        scales the least effectively'."""
        by_name = {s.method: s for s in result.series}
        others = [
            s.speedups[-1] for n, s in by_name.items() if n not in ("Yrrid",)
        ]
        assert by_name["Yrrid"].speedups[-1] <= min(others) * 1.3

    def test_baseline_speedup_bands(self, result):
        """Paper: at 8 GPUs the best baseline hits ~7.2x, DistMSM ~7.9x."""
        by_name = {s.method: s for s in result.series}
        dist = by_name["DistMSM"]
        assert dist.speedups[dist.gpu_counts.index(8)] == pytest.approx(7.9, rel=0.25)

    def test_render(self, result):
        assert "8 GPUs" in result.render()


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return figure9(log_n=24)

    def test_three_gpus(self, result):
        assert [r.gpu for r in result.rows] == [
            "NVIDIA A100 80GB", "NVIDIA RTX 4090", "AMD Radeon 6900XT",
        ]

    def test_distmsm_beats_bellperson_everywhere(self, result):
        for row in result.rows:
            assert row.speedup > 5

    def test_amd_speedup_lower(self, result):
        """Paper: 16.5x on the NVIDIA GPUs but only 9.4x on the 6900XT."""
        a100, rtx, amd = result.rows
        assert amd.speedup < a100.speedup
        assert amd.speedup < rtx.speedup

    def test_rtx_beats_a100(self, result):
        """Paper: RTX4090's int throughput gives DistMSM 1.89x over A100."""
        a100, rtx, _ = result.rows
        ratio = a100.distmsm_ms / rtx.distmsm_ms
        assert 1.3 < ratio < 2.5

    def test_render(self, result):
        assert "Bellperson" in result.render()


class TestFigure10:
    @pytest.fixture(scope="class")
    def result(self):
        return figure10(log_n=24)

    @pytest.fixture(scope="class")
    def by_gpus(self, result):
        return {r.gpus: r for r in result.rows}

    def test_one_grid(self, by_gpus):
        assert list(by_gpus) == [1, 2, 4, 8, 16, 32]

    def test_algo_speedup_grows_with_gpus(self, by_gpus):
        assert by_gpus[16].algo_speedup > by_gpus[1].algo_speedup

    def test_kernel_benefit_diminishes_with_gpus(self, by_gpus):
        """Paper: PADD-optimisation gains shrink as GPU count grows under
        the single-GPU algorithm (bucket-reduce dominates)."""
        assert by_gpus[16].kernel_speedup < by_gpus[1].kernel_speedup * 1.1

    def test_observed_exceeds_calculated_at_scale(self, by_gpus):
        """The paper's synergy effect."""
        assert by_gpus[16].observed > by_gpus[16].calculated * 0.9

    def test_no_opt_config_shape(self):
        cfg = no_opt_config("BN254", 1 << 24)
        assert cfg.scatter == "naive"
        assert cfg.multi_gpu == "ndim"  # the paper's N-dim augmentation
        assert cfg.gpu_reduce == "simd"
        assert cfg.window_size is not None

    def test_render(self, result):
        assert "observed" in result.render()


class TestFigure11:
    @pytest.fixture(scope="class")
    def result(self):
        return figure11(log_n=26)

    def test_fails_above_14(self, result):
        """Paper: 's > 14 ... leads to execution failures'."""
        for row in result.rows:
            if row.window_size > 14:
                assert row.hierarchical_ms is None
            else:
                assert row.hierarchical_ms is not None

    def test_hierarchical_wins_small_windows(self, result):
        """Paper: 6.71x at s=11, 18.3x at s=9."""
        by_s = {r.window_size: r for r in result.rows}
        assert by_s[11].speedup == pytest.approx(6.71, rel=0.35)
        assert by_s[9].speedup == pytest.approx(18.3, rel=0.35)

    def test_naive_wins_large_windows(self, result):
        by_s = {r.window_size: r for r in result.rows}
        assert by_s[14].speedup < by_s[9].speedup
        assert by_s[14].speedup < 1.5

    def test_render_marks_failures(self, result):
        assert "FAIL" in result.render()


class TestFigure12:
    @pytest.fixture(scope="class")
    def result(self):
        return figure12()

    def test_stage_order(self, result):
        stages = [r.stage for r in result.rows if r.curve == "BN254"]
        assert stages == [
            "baseline", "PADD->PACC", "Optimal Exec Order",
            "Explicit Spill", "MontMul with TC", "On-the-fly Compact",
        ]

    def test_total_speedups_near_paper(self, result):
        """Paper: 1.61x for the small curves, 1.94x for MNT4753."""
        totals = result.totals()
        assert totals["MNT4753"] == pytest.approx(1.94, rel=0.10)
        small = [totals[c] for c in ("BN254", "BLS12-377", "BLS12-381")]
        assert sum(small) / 3 == pytest.approx(1.61, rel=0.10)

    def test_pacc_stage_saves_about_40_percent(self, result):
        rows = [r for r in result.rows if r.curve == "BLS12-377"]
        pacc = next(r for r in rows if r.stage == "PADD->PACC")
        assert pacc.cumulative_speedup == pytest.approx(1.45, rel=0.1)

    def test_naive_tc_slows_down(self, result):
        """Paper: -6.8% before on-the-fly compaction."""
        for curve in ("BLS12-377", "BLS12-381"):
            rows = {r.stage: r for r in result.rows if r.curve == curve}
            assert (
                rows["MontMul with TC"].cumulative_speedup
                < rows["Explicit Spill"].cumulative_speedup
            )
            assert (
                rows["On-the-fly Compact"].cumulative_speedup
                > rows["MontMul with TC"].cumulative_speedup
            )

    def test_compaction_hurts_mnt(self, result):
        """Paper: -8.2% for MNT4753 (zero-padding register pressure)."""
        rows = {r.stage: r for r in result.rows if r.curve == "MNT4753"}
        assert (
            rows["On-the-fly Compact"].cumulative_speedup
            < rows["MontMul with TC"].cumulative_speedup
        )

    def test_register_counts(self, result):
        rows = {r.stage: r for r in result.rows if r.curve == "BLS12-377"}
        assert rows["baseline"].registers == 132
        assert rows["Explicit Spill"].registers == 60
