"""Functional GPU execution contexts: thread blocks and shared memory.

These classes give the algorithm implementations (hierarchical bucket
scatter, bucket-sum) real block/shared-memory semantics to run against:
capacity limits are enforced and every atomic / sync / prefix-sum is
counted.  They execute the actual computation — the outputs feed the same
code paths as the serial reference, so correctness is testable end to end.

When a :class:`~repro.gpu.trace.MemoryTrace` is attached to the GPU, every
shared/global access additionally records *which simulated thread of which
block* performed it and whether it was atomic, and every ``syncthreads``
records a barrier.  The ``repro.verify`` race detector replays those traces
to prove the scatter and bucket-sum schemes free of unsynchronised
same-address conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.counters import EventCounters
from repro.gpu.specs import GpuSpec
from repro.gpu.trace import Kind, MemoryTrace, Space


class SharedMemoryExceeded(Exception):
    """Raised when a block's shared-memory allocations exceed capacity.

    The paper hits exactly this wall: the hierarchical scatter "fails to
    execute" for window sizes above 14 (Fig. 11).
    """


@dataclass
class SharedMemory:
    """A thread block's shared memory: capacity-checked word allocations."""

    capacity_bytes: int
    counters: EventCounters
    block_id: int = 0
    tracer: MemoryTrace | None = None
    _allocated: int = 0
    #: id(array) -> (region name, base word offset); aliased arrays share
    #: a region so the race detector sees them as the same storage
    _regions: dict[int, tuple[str, int]] = field(default_factory=dict)

    def alloc_words(self, count: int, name: str = "shm") -> list[int]:
        """Allocate ``count`` 32-bit words, zero-initialised."""
        needed = 4 * count
        if self._allocated + needed > self.capacity_bytes:
            raise SharedMemoryExceeded(
                f"requested {needed} B with {self._allocated} B in use "
                f"(capacity {self.capacity_bytes} B)"
            )
        base = self._allocated // 4
        self._allocated += needed
        array = [0] * count
        self._regions[id(array)] = (name, base)
        return array

    def alias(self, clone: list[int], source: list[int]) -> list[int]:
        """Register ``clone`` as occupying ``source``'s storage.

        Real kernels reuse the counter array for derived values (the prefix
        sum runs in place); the serial simulator keeps them as separate
        Python lists but the trace must show one region, or the race
        detector would miss conflicts between the two views.
        """
        region = self._regions.get(id(source))
        if region is not None:
            self._regions[id(clone)] = region
        return clone

    def _trace(self, array: list[int], index: int, kind: Kind, atomic: bool, thread: int) -> None:
        if self.tracer is None:
            return
        region, base = self._regions.get(id(array), ("shm", 0))
        self.tracer.record(
            Space.SHARED,
            region,
            base + index,
            kind,
            atomic=atomic,
            block=self.block_id,
            thread=thread,
        )

    def atomic_inc(self, array: list[int], index: int, thread: int = 0) -> int:
        """Shared-memory atomic increment; returns the previous value."""
        old = array[index]
        array[index] = old + 1
        self.counters.shared_atomics += 1
        self._trace(array, index, Kind.RMW, True, thread)
        return old

    def write(self, array: list[int], index: int, value: int, thread: int = 0) -> None:
        """Plain (non-atomic) shared-memory store."""
        array[index] = value
        self._trace(array, index, Kind.WRITE, False, thread)

    def read(self, array: list[int], index: int, thread: int = 0) -> int:
        """Plain shared-memory load."""
        self._trace(array, index, Kind.READ, False, thread)
        return array[index]


@dataclass
class ThreadBlock:
    """One thread block of the functional simulator."""

    block_id: int
    num_threads: int
    shared: SharedMemory
    counters: EventCounters
    tracer: MemoryTrace | None = None

    def syncthreads(self) -> None:
        self.counters.block_syncs += 1
        if self.tracer is not None:
            self.tracer.barrier(self.block_id)

    def parallel_prefix_sum(self, array: list[int]) -> list[int]:
        """Exclusive prefix sum across the block (one counted primitive).

        The result aliases the input array's storage — real kernels scan in
        place — so the trace keeps both views in one region.
        """
        self.counters.prefix_sums += 1
        out = []
        total = 0
        for v in array:
            out.append(total)
            total += v
        return self.shared.alias(out, array)


@dataclass
class SimulatedGpu:
    """One GPU of the cluster: spec, counters, and block factory."""

    spec: GpuSpec
    gpu_id: int = 0
    counters: EventCounters = field(default_factory=EventCounters)
    #: shared memory available to one scatter block; the paper's example
    #: uses 128 KB for point-id storage in a 1024-thread block.
    scatter_shm_bytes: int = 128 * 1024
    #: optional memory-access recorder consumed by ``repro.verify``
    tracer: MemoryTrace | None = None

    def new_block(self, block_id: int, num_threads: int) -> ThreadBlock:
        if num_threads <= 0 or num_threads % self.spec.warp_size:
            raise ValueError("block size must be a positive warp multiple")
        shm = SharedMemory(
            self.scatter_shm_bytes,
            self.counters,
            block_id=block_id,
            tracer=self.tracer,
        )
        return ThreadBlock(block_id, num_threads, shm, self.counters, tracer=self.tracer)

    def _trace_global(
        self, region: str, address: int, kind: Kind, atomic: bool, block: int, thread: int
    ) -> None:
        if self.tracer is not None:
            self.tracer.record(
                Space.GLOBAL, region, address, kind, atomic=atomic, block=block, thread=thread
            )

    def global_atomic_add(
        self,
        array: list[int],
        index: int,
        value: int = 1,
        region: str = "global",
        block: int = 0,
        thread: int = 0,
    ) -> int:
        """Device-memory atomic add; returns the previous value."""
        old = array[index]
        array[index] = old + value
        self.counters.global_atomics += 1
        self._trace_global(region, index, Kind.RMW, True, block, thread)
        return old

    def global_unsynced_add(
        self,
        array: list[int],
        index: int,
        value: int = 1,
        region: str = "global",
        block: int = 0,
        thread: int = 0,
    ) -> int:
        """A *plain* read-modify-write on device memory — a data race.

        Exists only as a fault-injection path for the ``repro.verify`` race
        detector (the "naive scatter without atomics" fixture); nothing in
        the engine itself calls it.
        """
        old = array[index]
        array[index] = old + value
        self._trace_global(region, index, Kind.RMW, False, block, thread)
        return old

    def launch(self) -> None:
        """Record one kernel launch (fixed host-side overhead each)."""
        self.counters.kernel_launches += 1
