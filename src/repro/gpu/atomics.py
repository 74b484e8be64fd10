"""Atomic-operation contention model (paper §3.1 / §3.2.1).

The cost of an atomic RMW "generally scales with the number of simultaneous
writes to a memory address" (the paper cites Elteir et al.).  Two regimes
matter for the scatter step:

* *throughput-limited*: plenty of distinct addresses — each atomic costs its
  base latency, hidden by massive parallelism;
* *serialisation-limited*: many writers per address — same-address atomics
  retry at roughly the L2 round-trip latency, so a window with ``2^s``
  buckets serialises ``N / 2^s`` operations per counter.

The second regime is exactly why the naive scatter collapses at the small
window sizes multi-GPU scaling wants (Fig. 11), and why the hierarchical
scheme stages traffic through shared memory where the serialisation unit is
a thread block, not the whole GPU.
"""

from __future__ import annotations

from repro.gpu.specs import (
    GLOBAL_ATOMIC_BASE_NS,
    GLOBAL_ATOMIC_SERIAL_NS,
    SHARED_ATOMIC_BASE_NS,
    SHARED_ATOMIC_SERIAL_NS,
    GpuSpec,
)


def _require_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _require_non_negative(name: str, value: float) -> None:
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def validate_contention(
    num_addresses: int,
    active_threads: int | None = None,
    global_atomics: float | None = None,
    shared_atomics: float | None = None,
    threads_per_block: int | None = None,
) -> None:
    """Shared input validation for every contention-model entry point.

    Each helper divides by ``num_addresses`` (and some by
    ``threads_per_block``); all of them silently accepted inconsistent
    combinations before this guard existed, which then crashed or produced
    nonsense downstream.
    """
    _require_positive("num_addresses", num_addresses)
    if active_threads is not None:
        _require_non_negative("active_threads", active_threads)
    if global_atomics is not None:
        _require_non_negative("global_atomics", global_atomics)
    if shared_atomics is not None:
        _require_non_negative("shared_atomics", shared_atomics)
    if threads_per_block is not None:
        _require_positive("threads_per_block", threads_per_block)


def global_serialization_ms(global_atomics: float, num_addresses: int) -> float:
    """Serialisation-limited time: per-address queue at L2 latency."""
    validate_contention(num_addresses, global_atomics=global_atomics)
    return (global_atomics / num_addresses) * GLOBAL_ATOMIC_SERIAL_NS * 1e-6


def scatter_atomic_time_ms(
    spec: GpuSpec,
    global_atomics: float,
    shared_atomics: float,
    active_threads: int,
    num_buckets: int,
    threads_per_block: int = 1024,
) -> float:
    """Wall time of the scatter step's atomics on one GPU.

    The global-atomic cost is the max of the throughput-limited and
    serialisation-limited regimes; shared atomics serialise per block, and
    blocks proceed in parallel waves across the SMs.
    """
    validate_contention(
        num_buckets,
        active_threads=active_threads,
        global_atomics=global_atomics,
        shared_atomics=shared_atomics,
        threads_per_block=threads_per_block,
    )
    concurrency = max(1, min(active_threads, spec.concurrent_threads))
    throughput_ms = (
        (global_atomics * GLOBAL_ATOMIC_BASE_NS + shared_atomics * SHARED_ATOMIC_BASE_NS)
        / concurrency
    ) * 1e-6
    global_ms = max(
        throughput_ms, global_serialization_ms(global_atomics, num_buckets)
    )
    resident_blocks = max(1, concurrency // threads_per_block)
    shared_ms = (
        (shared_atomics / num_buckets) * SHARED_ATOMIC_SERIAL_NS / resident_blocks
    ) * 1e-6
    return global_ms + shared_ms
