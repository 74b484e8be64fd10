"""Per-thread workload model (paper §3.1) and window-size selection.

The paper's central algorithmic observation: execution time is governed by
the workload of each *thread*, not total work.  With ``N_win = ceil(λ/s)``
windows over ``N_gpu`` GPUs and ``N_T`` concurrent threads per GPU, the
per-thread EC-operation count is

    ceil(N_win/N_gpu) * ceil((N + 2^s)/N_T)
      + ceil(2^s/N_T) * 2s
      + min(ceil(2^s/N_T) + log2(N_T), s)

when every GPU owns at least one full window, and

    (N + 2^s * 2s) / (floor(N_gpu/N_win) * N_T)
      + log2(2^s / floor(N_gpu/N_win))

when a window's buckets are split over several GPUs.  Minimising this over
``s`` reproduces Fig. 3: the optimal window shrinks from ~20 on one GPU to
~11 on sixteen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def per_thread_workload(
    n: int,
    scalar_bits: int,
    window_size: int,
    num_gpus: int,
    threads_per_gpu: int,
) -> float:
    """EC operations executed by each thread (paper §3.1 formulas)."""
    if min(n, scalar_bits, window_size, num_gpus, threads_per_gpu) <= 0:
        raise ValueError("all workload parameters must be positive")
    s = window_size
    n_win = math.ceil(scalar_bits / s)
    n_t = threads_per_gpu
    buckets = 1 << s

    if num_gpus <= n_win:
        windows_per_gpu = math.ceil(n_win / num_gpus)
        scatter_and_sum = windows_per_gpu * math.ceil((n + buckets) / n_t)
        reduce_weighted = math.ceil(buckets / n_t) * 2 * s
        reduce_tree = min(math.ceil(buckets / n_t) + math.log2(n_t), s)
        return scatter_and_sum + reduce_weighted + reduce_tree

    gpus_per_window = num_gpus // n_win
    main = (n + buckets * 2 * s) / (gpus_per_window * n_t)
    tree = math.log2(max(2.0, buckets / gpus_per_window))
    return main + tree


def optimal_window_size(n: int, scalar_bits: int, num_gpus: int, threads_per_gpu: int) -> int:
    """The window size in 4..24 minimising the per-thread workload."""
    best_s, best_cost = 4, float("inf")
    for s in range(4, 25):
        cost = per_thread_workload(n, scalar_bits, s, num_gpus, threads_per_gpu)
        if cost < best_cost:
            best_s, best_cost = s, cost
    return best_s


@dataclass(frozen=True)
class WorkloadCurve:
    """One series of Fig. 3: normalised workload vs window size."""

    num_gpus: int
    window_sizes: tuple
    normalised_costs: tuple

    @property
    def optimal_s(self) -> int:
        return self.window_sizes[self.normalised_costs.index(min(self.normalised_costs))]


def figure3_series() -> list[WorkloadCurve]:
    """The per-thread workload curves of paper Fig. 3.

    The figure's one configuration: N = 2^26 points with 253-bit scalars,
    2^16 threads per GPU, 1 to 16 GPUs and windows of 4 to 22 bits.  Costs
    are normalised by the global minimum across all series, matching the
    figure's presentation.
    """
    n, scalar_bits, threads_per_gpu = 1 << 26, 253, 1 << 16
    gpu_counts = (1, 2, 4, 8, 16)
    sizes = tuple(range(4, 23))
    raw = {
        g: [per_thread_workload(n, scalar_bits, s, g, threads_per_gpu) for s in sizes]
        for g in gpu_counts
    }
    global_min = min(min(costs) for costs in raw.values())
    return [
        WorkloadCurve(
            num_gpus=g,
            window_sizes=sizes,
            normalised_costs=tuple(c / global_min for c in raw[g]),
        )
        for g in gpu_counts
    ]
