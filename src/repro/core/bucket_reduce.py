"""Bucket-reduce and window-reduce, on CPU (DistMSM) or GPU (baselines).

Paper §3.2.3: executed serially, bucket-reduce is only a few thousand PADDs
— trivially cheap on a CPU — while the parallel GPU version pays
``2s * ceil(2^s / N_T)`` weighted-doubling operations per thread plus a
globally synchronised tree.  DistMSM therefore ships bucket sums to the host
and pipelines the reduce with the GPUs' next window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import XyzzPoint, pdbl, weighted_bucket_sum, xyzz_add
from repro.gpu.counters import EventCounters


@dataclass
class ReduceOutput:
    """Functional reduce result with its event counts."""

    result: XyzzPoint
    counters: EventCounters


def cpu_bucket_reduce(bucket_sums: list, curve: CurveParams) -> ReduceOutput:
    """Serial ``sum(i * B_i)`` via the running suffix-sum trick.

    2 PADDs per bucket — the count the paper's CPU-offload argument uses.
    The fold is :func:`~repro.curves.point.weighted_bucket_sum`, which takes
    the affine bucket sums of production curves with PACC; the counters
    stay structural.
    """
    return ReduceOutput(
        weighted_bucket_sum(bucket_sums, curve),
        cpu_bucket_reduce_counts(len(bucket_sums)),
    )


def cpu_window_reduce(
    window_results: list,
    window_size: int,
    curve: CurveParams,
) -> ReduceOutput:
    """Fold per-window results with ``s`` doublings between windows."""
    counters = EventCounters()
    acc = XyzzPoint.identity()
    for result in reversed(window_results):
        for _ in range(window_size):
            acc = pdbl(acc, curve)
            counters.cpu_pdbl += 1
        acc = xyzz_add(acc, result, curve)
        counters.cpu_padd += 1
    return ReduceOutput(acc, counters)


# -- analytic counts ---------------------------------------------------------


def cpu_bucket_reduce_counts(num_buckets: int) -> EventCounters:
    counters = EventCounters()
    counters.cpu_padd = 2 * max(0, num_buckets - 1)
    return counters


def gpu_bucket_reduce_counts(
    num_buckets: int,
    window_size: int,
    threads_per_gpu: int,
    mode: str = "scan",
) -> EventCounters:
    """Per-GPU event counts of the *parallel* bucket-reduce.

    Two schemes:

    * ``"scan"`` — the work-efficient weighted-suffix scan competitive
      implementations use: O(B) total PADDs (upsweep + downsweep + the
      weighting pass), tree-depth synchronisation.
    * ``"simd"`` — the naive SIMD formulation of the paper's §3.1 analysis:
      each thread computes ``2^i B_i`` for its buckets (``s`` PADD + ``s``
      PDBL each) before a global tree; per-thread cost
      ``2s * ceil(B/N_T) + min(ceil(B/N_T) + log2(N_T), s)``.  This is what
      makes bucket-reduce "notably inefficient" at scale and motivates the
      CPU offload.
    """
    counters = EventCounters()
    counters.kernel_launches = 1
    if mode == "scan":
        counters.padd = 4 * max(0, num_buckets - 1)
        counters.block_syncs = 2 * int(math.log2(max(2, num_buckets)))
        return counters
    if mode != "simd":
        raise ValueError(f"unknown bucket-reduce mode {mode!r}")
    active = min(num_buckets, threads_per_gpu)
    per_thread = gpu_bucket_reduce_per_thread_ops(
        num_buckets, window_size, threads_per_gpu
    )
    weighted = per_thread - window_size  # the PADD share
    counters.padd = int(round(active * weighted))
    counters.pdbl = int(round(active * window_size))
    counters.block_syncs = int(math.log2(max(2, threads_per_gpu)))
    return counters


def gpu_bucket_reduce_per_thread_ops(
    num_buckets: int,
    window_size: int,
    threads_per_gpu: int,
) -> float:
    """Per-thread EC ops of the naive SIMD bucket-reduce (§3.1 formula)."""
    per_thread_buckets = math.ceil(num_buckets / threads_per_gpu)
    return 2 * window_size * per_thread_buckets + min(
        per_thread_buckets + math.log2(max(2, threads_per_gpu)), window_size
    )
