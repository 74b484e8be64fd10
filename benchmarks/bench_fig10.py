"""Regenerate paper Fig. 10: optimisation breakdown vs the NO-OPT baseline."""

from conftest import save_result

from repro.analysis.experiments import figure10


def test_figure10(benchmark):
    result = benchmark.pedantic(
        figure10,
        kwargs={"log_n": 26},
        rounds=1,
        iterations=1,
    )
    save_result("figure10", result.render())

    first, last = result.rows[0], result.rows[-1]
    # the multi-GPU algorithm's advantage grows with GPU count
    assert last.algo_speedup > first.algo_speedup
    # PADD optimisations alone lose steam at scale (paper's observation)
    assert last.kernel_speedup <= first.kernel_speedup * 1.2
    # full DistMSM beats NO-OPT everywhere
    assert all(r.observed > 1.0 for r in result.rows)
