"""Regenerate paper Fig. 8: multi-GPU speedup over single GPU per method."""

from conftest import save_result

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.experiments import figure8


def test_figure8(benchmark):
    result = benchmark.pedantic(figure8, rounds=1, iterations=1)
    plot = ascii_plot(
        {s.method: list(s.speedups) for s in result.series},
        title="speedup over one GPU (log scale)",
        log_y=True,
        x_labels=list(result.gpu_counts),
    )
    save_result("figure8", result.render() + "\n\n" + plot)

    by_name = {s.method: dict(zip(s.gpu_counts, s.speedups)) for s in result.series}
    # paper: most methods scale well to 4 GPUs (~3.54x average)
    four_gpu = [speedups[4] for speedups in by_name.values()]
    assert sum(four_gpu) / len(four_gpu) > 2.5
    # paper: Yrrid scales the least effectively
    final = {n: speedups[32] for n, speedups in by_name.items()}
    assert final["Yrrid"] == min(final.values())
    # paper: DistMSM maintains near-linear scalability
    assert final["DistMSM"] == max(final.values())
