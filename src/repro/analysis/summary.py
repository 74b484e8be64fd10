"""The reproduction scorecard: paper numbers vs this repository's, computed.

``run_summary()`` executes every experiment at its paper configuration and
emits one table of headline comparisons — the machine-checked counterpart
of EXPERIMENTS.md.  The benchmark suite writes it to
``results/summary.txt``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.analysis import paper_data
from repro.analysis.experiments import (
    figure3,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table3,
)
from repro.analysis.tables import format_table


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    quantity: str
    paper: str
    measured: str


def run_summary() -> list:
    """Compute every headline comparison; returns :class:`SummaryRow` s."""
    rows: list[SummaryRow] = []

    fig3 = figure3()
    rows.append(
        SummaryRow(
            "Fig 3", "single-GPU optimal window",
            "s = 20", f"s = {fig3.curves[0].optimal_s}",
        )
    )

    t3 = table3()
    dist_ratios, bg_ratios, ident = [], [], 0
    for row in t3.rows:
        pbg, pd, pids = paper_data.TABLE3[(row.curve, row.log_n)]
        for i, cell in enumerate(row.cells):
            dist_ratios.append(cell.dist_ms / pd[i])
            bg_ratios.append(cell.bg_ms / pbg[i])
            ident += cell.bg_ident == pids[i]
    rows.append(
        SummaryRow(
            "Table 3", "median DistMSM time ratio (ours/paper)",
            "1.0", f"{statistics.median(dist_ratios):.2f}",
        )
    )
    rows.append(
        SummaryRow(
            "Table 3", "median Best-GPU time ratio",
            "1.0", f"{statistics.median(bg_ratios):.2f}",
        )
    )
    rows.append(
        SummaryRow(
            "Table 3", "Best-GPU winner identity matches", "64/64", f"{ident}/64"
        )
    )
    rows.append(
        SummaryRow(
            "Table 3", "average multi-GPU speedup over BG",
            f"{paper_data.AVERAGE_MULTI_GPU_SPEEDUP}x",
            f"{t3.average_multi_gpu_speedup:.2f}x",
        )
    )

    fig8 = figure8()
    by_name = {s.method: dict(zip(s.gpu_counts, s.speedups)) for s in fig8.series}
    rows.append(
        SummaryRow(
            "Fig 8", "DistMSM speedup at 8 GPUs",
            "7.94x", f"{by_name['DistMSM'][8]:.2f}x",
        )
    )
    worst = min(by_name, key=lambda method: by_name[method][32])
    rows.append(
        SummaryRow("Fig 8", "worst-scaling method at 32 GPUs", "Yrrid", worst)
    )

    fig9 = figure9(log_n=26)
    rows.append(
        SummaryRow(
            "Fig 9", "speedup over Bellperson (A100 / RTX / AMD)",
            "16.5x / 16.5x / 9.4x",
            " / ".join(f"{r.speedup:.1f}x" for r in fig9.rows),
        )
    )

    fig10 = figure10(log_n=26, gpu_counts=(1, 8, 32))
    last = fig10.rows[-1]
    rows.append(
        SummaryRow(
            "Fig 10", "observed vs calculated combined speedup (32 GPUs)",
            "observed > calculated",
            f"{last.observed:.2f}x vs {last.calculated:.2f}x",
        )
    )

    fig11 = figure11(log_n=26)
    by_s = {r.window_size: r for r in fig11.rows}
    rows.append(
        SummaryRow(
            "Fig 11", "hierarchical scatter speedup at s=11 / s=9",
            "6.71x / 18.3x",
            f"{by_s[11].speedup:.2f}x / {by_s[9].speedup:.2f}x",
        )
    )
    first_fail = next(r.window_size for r in fig11.rows if r.hierarchical_ms is None)
    rows.append(
        SummaryRow("Fig 11", "hierarchical failure threshold", "s > 14", f"s >= {first_fail}")
    )

    fig12 = figure12()
    totals = fig12.totals()
    small = statistics.mean(
        totals[c] for c in ("BN254", "BLS12-377", "BLS12-381")
    )
    rows.append(
        SummaryRow(
            "Fig 12", "kernel speedup (small curves / MNT4753)",
            "1.61x / 1.94x", f"{small:.2f}x / {totals['MNT4753']:.2f}x",
        )
    )

    from repro.zksnark.pipeline import table4

    t4 = table4()
    rows.append(
        SummaryRow(
            "Table 4", "end-to-end speedup band",
            "24.9x - 26.7x",
            f"{min(r.speedup for r in t4.rows):.1f}x - "
            f"{max(r.speedup for r in t4.rows):.1f}x",
        )
    )

    from repro.kernels.dag import build_pacc_dag, build_padd_dag, peak_live
    from repro.kernels.scheduler import find_optimal_schedule
    from repro.kernels.spill import schedule_and_spill

    rows.append(
        SummaryRow(
            "§4.2", "PADD/PACC live big integers (written -> optimal)",
            "11->9 / 9->7",
            f"{peak_live(build_padd_dag())}->"
            f"{find_optimal_schedule(build_padd_dag()).peak} / "
            f"{peak_live(build_pacc_dag())}->"
            f"{find_optimal_schedule(build_pacc_dag()).peak}",
        )
    )
    transfers, _ = schedule_and_spill(build_pacc_dag(), 5)
    rows.append(
        SummaryRow(
            "§4.2.2", "big integers transferred (PACC in 5 registers)",
            "4", f"{transfers // 2} (x2 moves)",
        )
    )
    return rows


def render_summary(rows: list | None = None) -> str:
    rows = rows if rows is not None else run_summary()
    return format_table(
        ["experiment", "quantity", "paper", "measured"],
        [[r.experiment, r.quantity, r.paper, r.measured] for r in rows],
        title="Reproduction scorecard (paper vs measured)",
    )
