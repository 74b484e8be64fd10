"""Bucket scatter: naive and hierarchical (paper §3.2.1, Algorithm 3).

Both strategies are implemented twice, sharing one cost vocabulary:

* *functionally* — executed block by block against the simulated GPU's
  shared memory, producing the actual bucket contents plus measured event
  counts; used for correctness tests and small inputs;
* *analytically* — closed-form expected event counts for paper-scale inputs;
  property tests check the two agree.

The hierarchical scheme stages scatters in shared memory so each non-empty
local bucket commits to global memory with a single atomic, cutting global
atomics by roughly the per-block point capacity over the bucket count
(the paper's 1/64 example: 64K points per block, 1024 buckets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import DistMsmConfig
from repro.gpu.atomics import scatter_atomic_time_ms
from repro.gpu.counters import EventCounters
from repro.gpu.device import SharedMemoryExceeded, SimulatedGpu
from repro.gpu.specs import GpuSpec
from repro.gpu.trace import Kind, Space
from repro.gpu.timing import launch_overhead_ms, memory_read_time_ms

#: bytes read per point per window (the window's scalar segment, coalesced)
COEFF_BYTES = 8
#: bytes written per scattered point id
POINT_ID_BYTES = 4


@dataclass
class ScatterOutput:
    """Functional scatter result: bucket membership plus measured events."""

    buckets: list  # bucket id -> list of point ids
    counters: EventCounters


#: the naive scatter's launch geometry
NAIVE_THREADS_PER_BLOCK = 1024


def naive_scatter(
    gpu: SimulatedGpu,
    digits: list[int],
    num_buckets: int,
    use_atomics: bool = True,
) -> ScatterOutput:
    """One global atomic per non-zero coefficient (the baseline scheme).

    One thread per point, :data:`NAIVE_THREADS_PER_BLOCK` to a block.
    ``use_atomics=False`` replaces the bucket-counter atomic with a plain
    read-modify-write — a deliberate data race that exists only so the
    ``repro.verify`` race detector has a known-broken configuration to
    catch; the engine never runs it.
    """
    counters = EventCounters()
    gpu.launch()
    counters.kernel_launches += 1
    n = len(digits)
    bucket_sizes = [0] * num_buckets
    buckets: list[list[int]] = [[] for _ in range(num_buckets)]
    bump = gpu.global_atomic_add if use_atomics else gpu.global_unsynced_add
    for point_id, digit in enumerate(digits):
        if digit == 0:
            continue
        blk, thread = divmod(point_id, NAIVE_THREADS_PER_BLOCK)
        slot = bump(bucket_sizes, digit, 1, "bucket_sizes", blk, thread)
        buckets[digit].append(point_id)
        if gpu.tracer is not None:
            # the reserved slot of the bucket's point-id segment
            gpu.tracer.record(
                Space.GLOBAL,
                "bucket_points",
                digit * n + slot,
                Kind.WRITE,
                atomic=False,
                block=blk,
                thread=thread,
            )
        counters.global_atomics += 1 if use_atomics else 0
        counters.device_bytes += POINT_ID_BYTES
        assert slot == len(buckets[digit]) - 1
    counters.device_bytes += len(digits) * COEFF_BYTES
    return ScatterOutput(buckets, counters)


def hierarchical_scatter(
    gpu: SimulatedGpu,
    digits: list[int],
    num_buckets: int,
    config: DistMsmConfig,
) -> ScatterOutput:
    """Three-level hierarchical scatter (Algorithm 3), block by block.

    Raises :class:`SharedMemoryExceeded` when the per-block counter array
    plus point-id cache cannot fit — the execution-failure regime the paper
    reports for ``s > 14``.
    """
    before = gpu.counters.as_dict()
    gpu.launch()
    threads = config.threads_per_block
    k = config.points_per_thread
    capacity = threads * k

    global_sizes = [0] * num_buckets
    buckets: list[list[int]] = [[] for _ in range(num_buckets)]

    n = len(digits)
    num_blocks = max(1, math.ceil(n / capacity))
    for bid in range(num_blocks):
        block = gpu.new_block(bid, threads)
        # shared allocations: bucket counters + the point-id cache; offsets
        # reuse the counter array (prefix sum in place)
        shm_counts = block.shared.alloc_words(num_buckets, name="bucket_counts")
        shm_cache = block.shared.alloc_words(threads * k, name="point_cache")

        chunk = digits[bid * capacity : (bid + 1) * capacity]
        reg_cache = []
        for local_id, digit in enumerate(chunk):
            reg_cache.append(digit)
            if digit != 0:
                block.shared.atomic_inc(shm_counts, digit, thread=local_id % threads)
        block.syncthreads()
        shm_off = block.parallel_prefix_sum(shm_counts)
        block.syncthreads()

        # threads claim positions by atomically bumping a working copy of
        # the offsets (which reuses the offset array's storage)
        shm_claim = block.shared.alias(list(shm_off), shm_off)
        for local_id, digit in enumerate(reg_cache):
            if digit == 0:
                continue
            t = local_id % threads
            pos = block.shared.atomic_inc(shm_claim, digit, thread=t)
            block.shared.write(shm_cache, pos, local_id, thread=t)
        block.syncthreads()

        for bucket_id in range(num_buckets):
            t = bucket_id % threads
            count = block.shared.read(shm_counts, bucket_id, thread=t)
            if count == 0:
                continue
            base = block.shared.read(shm_off, bucket_id, thread=t)
            start = gpu.global_atomic_add(
                global_sizes, bucket_id, count, "bucket_sizes", bid, t
            )
            for i in range(count):
                local_id = block.shared.read(shm_cache, base + i, thread=t)
                buckets[bucket_id].append(bid * capacity + local_id)
                if gpu.tracer is not None:
                    gpu.tracer.record(
                        Space.GLOBAL,
                        "bucket_points",
                        bucket_id * n + start + i,
                        Kind.WRITE,
                        atomic=False,
                        block=bid,
                        thread=t,
                    )
            gpu.counters.device_bytes += count * POINT_ID_BYTES

    # report the delta accrued on the gpu-level counters during this scatter
    counters = EventCounters()
    after = gpu.counters.as_dict()
    for name in after:
        setattr(counters, name, after[name] - before[name])
    counters.device_bytes += len(digits) * COEFF_BYTES
    return ScatterOutput(buckets, counters)


# -- analytic counterparts ----------------------------------------------------


def expected_nonempty_buckets(points: int, num_buckets: int) -> float:
    """E[#non-empty buckets] with uniform digits (balls in bins)."""
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    if points <= 0:
        return 0.0
    return num_buckets * (1.0 - (1.0 - 1.0 / num_buckets) ** points)


def naive_scatter_counts(n_points: int, num_buckets: int) -> EventCounters:
    """Expected event counts of the naive scatter for one window."""
    counters = EventCounters()
    nonzero = n_points * (num_buckets - 1) / num_buckets
    counters.global_atomics = int(round(nonzero))
    counters.device_bytes = int(round(nonzero * POINT_ID_BYTES + n_points * COEFF_BYTES))
    counters.kernel_launches = 1
    return counters


def hierarchical_scatter_counts(
    n_points: int,
    num_buckets: int,
    config: DistMsmConfig,
) -> EventCounters:
    """Expected event counts of the hierarchical scatter for one window."""
    check_shared_memory_fit(num_buckets, config)
    counters = EventCounters()
    capacity = config.threads_per_block * config.points_per_thread
    blocks = max(1, math.ceil(n_points / capacity))
    nonzero = n_points * (num_buckets - 1) / num_buckets
    per_block_points = min(n_points, capacity) * (num_buckets - 1) / num_buckets
    counters.shared_atomics = int(round(2 * nonzero))  # count + position
    counters.global_atomics = int(
        round(blocks * expected_nonempty_buckets(per_block_points, num_buckets))
    )
    counters.prefix_sums = blocks
    counters.block_syncs = 3 * blocks
    counters.device_bytes = int(round(nonzero * POINT_ID_BYTES + n_points * COEFF_BYTES))
    counters.kernel_launches = 1
    return counters


#: shared memory the hierarchical scatter's counters and point cache may use
SCATTER_SHARED_MEMORY_BYTES = 128 * 1024


def check_shared_memory_fit(num_buckets: int, config: DistMsmConfig) -> None:
    """Raise when the hierarchical scheme cannot fit in shared memory."""
    needed = 4 * (num_buckets + config.threads_per_block * config.points_per_thread)
    if needed > SCATTER_SHARED_MEMORY_BYTES:
        raise SharedMemoryExceeded(
            f"hierarchical scatter needs {needed} B of shared memory "
            f"({num_buckets} counters + point cache), capacity "
            f"{SCATTER_SHARED_MEMORY_BYTES} B"
        )


def scatter_time_ms(
    spec: GpuSpec,
    counts: EventCounters,
    num_buckets: int,
    active_threads: int,
    threads_per_block: int = 1024,
) -> float:
    """Wall time of one GPU's scatter work from its event counts."""
    atomic_ms = scatter_atomic_time_ms(
        spec,
        counts.global_atomics,
        counts.shared_atomics,
        active_threads,
        num_buckets,
        threads_per_block,
    )
    traffic_ms = memory_read_time_ms(counts.device_bytes, spec)
    launch_ms = launch_overhead_ms(counts.kernel_launches, spec)
    # prefix sums: each scans num_buckets words across the block
    prefix_ms = memory_read_time_ms(counts.prefix_sums * num_buckets * 4, spec)
    return atomic_ms + traffic_ms + launch_ms + prefix_ms
