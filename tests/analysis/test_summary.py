"""The reproduction scorecard against the committed ``results/summary.txt``."""

from pathlib import Path

import pytest

from repro.analysis.experiments import figure8
from repro.analysis.summary import SummaryRow, render_summary, run_summary

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.fixture(scope="module")
def rows():
    return run_summary()


def test_render_matches_the_committed_scorecard(rows):
    committed = (RESULTS / "summary.txt").read_text().rstrip("\n")
    assert render_summary(rows) == committed


def test_every_row_is_filled_in(rows):
    assert rows and all(isinstance(r, SummaryRow) for r in rows)
    for row in rows:
        assert row.experiment and row.quantity and row.paper and row.measured


def test_fig8_cell_reads_figure8_at_8_gpus(rows):
    (cell,) = [
        r for r in rows
        if r.experiment == "Fig 8" and r.quantity == "DistMSM speedup at 8 GPUs"
    ]
    (dist,) = [s for s in figure8().series if s.method == "DistMSM"]
    speedup_at_8 = dict(zip(dist.gpu_counts, dist.speedups))[8]
    assert cell.measured == f"{speedup_at_8:.2f}x"
