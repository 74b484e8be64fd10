"""Happens-before race detection over simulated memory traces (paper §3.2.1).

The hierarchical bucket scatter (Alg. 3) is only correct because every
same-address conflicting access is either atomic or separated by a block
barrier; SZKP's bucket-conflict analysis identifies exactly this as the
central correctness risk of Pippenger-style GPU designs.  This module
rebuilds the happens-before relation from a :class:`~repro.gpu.trace.
MemoryTrace` and flags every unsynchronised conflicting pair.

The memory model:

* *program order* — accesses of one (block, thread) are ordered;
* *barriers* — a block-wide barrier orders everything its block did before
  it with everything the block does after (``epoch`` in the trace);
* *atomics* — two atomic RMWs to the same address never race with each
  other (the hardware serialises them); an atomic against a plain access
  still races;
* *warp scope* — optionally, accesses of one warp are treated as
  lockstep-ordered (the legacy warp-synchronous assumption; off by
  default, since post-Volta independent thread scheduling voids it);
* *address spaces* — shared memory is per block: identical addresses in
  different blocks are distinct locations; global memory is device-wide,
  and no inter-block ordering exists short of kernel boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bucket_sum import bucket_sum
from repro.core.config import DistMsmConfig
from repro.core.scatter import hierarchical_scatter, naive_scatter
from repro.gpu.device import SimulatedGpu
from repro.gpu.specs import NVIDIA_A100, GpuSpec
from repro.gpu.trace import MemoryEvent, MemoryTrace, Space
from repro.verify.report import CheckResult


@dataclass
class RaceCheckResult(CheckResult):
    """Outcome of race-checking one trace."""

    checker = "race"
    events: int = 0
    locations: int = 0


def _location_key(event: MemoryEvent) -> tuple:
    if event.space is Space.SHARED:
        # shared memory is physically per block
        return (event.space, event.block, event.region, event.address)
    return (event.space, event.region, event.address)


def _ordered(a: MemoryEvent, b: MemoryEvent, warp_lockstep: bool) -> bool:
    """Happens-before between two accesses (``a.seq < b.seq``)."""
    if a.block == b.block:
        if a.thread == b.thread:
            return True  # program order
        if a.epoch != b.epoch:
            return True  # a block barrier fell between them
        if warp_lockstep and a.warp == b.warp:
            return True
    return False


def detect_races(
    trace: MemoryTrace,
    subject: str = "trace",
    warp_lockstep: bool = False,
    max_violations_per_location: int = 1,
) -> RaceCheckResult:
    """Find every unsynchronised same-address conflicting access pair.

    Reports at most ``max_violations_per_location`` violations per memory
    location (one racing pair is enough to condemn a location; the full
    pair count would drown the diagnostic).
    """
    result = RaceCheckResult(subject=subject, events=len(trace.events))
    by_location: dict[tuple, list[MemoryEvent]] = {}
    for event in trace.events:
        by_location.setdefault(_location_key(event), []).append(event)
    result.locations = len(by_location)

    for events in by_location.values():
        if len(events) < 2:
            continue
        reported = 0
        for j in range(1, len(events)):
            b = events[j]
            for i in range(j):
                a = events[i]
                if not (a.kind.writes or b.kind.writes):
                    continue  # two reads never conflict
                if a.block == b.block and a.thread == b.thread:
                    continue
                if a.atomic and b.atomic:
                    continue
                if _ordered(a, b, warp_lockstep):
                    continue
                result.add(
                    f"unsynchronised {a.kind.value}"
                    f"{'' if a.atomic else ' (plain)'} by block "
                    f"{a.block} thread {a.thread} conflicts with "
                    f"{b.kind.value}"
                    f"{'' if b.atomic else ' (plain)'} by block "
                    f"{b.block} thread {b.thread} in the same "
                    "barrier epoch",
                    address=a.location(),
                )
                reported += 1
                if reported >= max_violations_per_location:
                    break
            if reported >= max_violations_per_location:
                break
    return result


# -- trace builders for the shipped configurations ---------------------------


def trace_naive_scatter(
    digits: list[int],
    num_buckets: int,
    use_atomics: bool = True,
    spec: GpuSpec = NVIDIA_A100,
    threads_per_block: int = 1024,
) -> MemoryTrace:
    """Run the naive scatter under a tracer and return its trace."""
    tracer = MemoryTrace()
    gpu = SimulatedGpu(spec, tracer=tracer)
    naive_scatter(
        gpu,
        digits,
        num_buckets,
        threads_per_block=threads_per_block,
        use_atomics=use_atomics,
    )
    return tracer


def trace_hierarchical_scatter(
    digits: list[int],
    num_buckets: int,
    config: DistMsmConfig | None = None,
    spec: GpuSpec = NVIDIA_A100,
) -> MemoryTrace:
    """Run the hierarchical scatter under a tracer and return its trace."""
    config = config or DistMsmConfig(threads_per_block=32, points_per_thread=4)
    tracer = MemoryTrace()
    gpu = SimulatedGpu(spec, tracer=tracer)
    hierarchical_scatter(gpu, digits, num_buckets, config)
    return tracer


def trace_bucket_sum(
    buckets: list[list[int]],
    points: list,
    curve,
    n_threads: int,
) -> MemoryTrace:
    """Run the parallel bucket-sum under a tracer and return its trace."""
    tracer = MemoryTrace()
    bucket_sum(buckets, points, curve, n_threads, tracer=tracer)
    return tracer
