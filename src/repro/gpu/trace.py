"""Memory-access traces of the functional GPU simulator.

The simulator executes scatter and bucket-sum serially, but the algorithms
it executes are massively parallel: every shared/global access belongs to a
specific (block, thread) and is ordered against other accesses only by the
synchronisation the kernel actually performs.  A :class:`MemoryTrace`
records that structure — who touched which address, atomically or not, and
where the barriers fell — so an independent checker (``repro.verify``) can
rebuild the happens-before relation and prove the absence of data races,
instead of trusting that the serial execution order was a coincidence-free
stand-in for the parallel one.

Address model: every traced array lives in a named *region* of an address
space (``"shared"`` is per-block, ``"global"`` is device-wide); an address
is ``(space, region, index)``.  Regions keep unrelated allocations from
aliasing without a full pointer model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Space(str, Enum):
    """Address space of one access."""

    SHARED = "shared"
    GLOBAL = "global"


class Kind(str, Enum):
    """What the access does to the location."""

    READ = "read"
    WRITE = "write"
    RMW = "rmw"  # read-modify-write (atomic or a racy plain equivalent)

    @property
    def writes(self) -> bool:
        return self is not Kind.READ


@dataclass(frozen=True)
class MemoryEvent:
    """One memory access by one simulated thread.

    ``seq`` is the global serial position in the trace; within a thread it
    is also the program order.  ``epoch`` counts the block-wide barriers the
    owning block has executed before this access.
    """

    seq: int
    space: Space
    region: str
    address: int
    kind: Kind
    atomic: bool
    block: int
    thread: int
    epoch: int

    @property
    def warp(self) -> int:
        return self.thread // 32

    def location(self) -> str:
        return f"{self.space.value}:{self.region}[{self.address}]"

    def __repr__(self) -> str:
        tag = "atomic " if self.atomic else ""
        return (
            f"<{tag}{self.kind.value} {self.location()} "
            f"by block {self.block} thread {self.thread} epoch {self.epoch}>"
        )


@dataclass(frozen=True)
class BarrierEvent:
    """One block-wide barrier (``__syncthreads``)."""

    seq: int
    block: int
    epoch: int  # the epoch this barrier *closes*


@dataclass
class MemoryTrace:
    """Recorder for the simulator's shared/global memory activity."""

    events: list[MemoryEvent] = field(default_factory=list)
    barriers: list[BarrierEvent] = field(default_factory=list)
    _seq: int = 0
    _epochs: dict[int, int] = field(default_factory=dict)

    def record(
        self,
        space: Space,
        region: str,
        address: int,
        kind: Kind,
        *,
        atomic: bool,
        block: int,
        thread: int,
    ) -> None:
        self.events.append(
            MemoryEvent(
                seq=self._seq,
                space=space,
                region=region,
                address=address,
                kind=kind,
                atomic=atomic,
                block=block,
                thread=thread,
                epoch=self._epochs.get(block, 0),
            )
        )
        self._seq += 1

    def barrier(self, block: int) -> None:
        """Advance ``block``'s epoch: a block-wide execution barrier."""
        epoch = self._epochs.get(block, 0)
        self.barriers.append(BarrierEvent(seq=self._seq, block=block, epoch=epoch))
        self._seq += 1
        self._epochs[block] = epoch + 1

    def __len__(self) -> int:
        return len(self.events)
