"""Host speed, sampled while the measured code runs.

Shared hosts change speed by up to 2x, for a fraction of a second or
for tens of seconds, with CPU time moving with wall time; neither clock
alone is steady enough to compare two commits.  While a measured block
runs, :class:`HostSpeed` interrupts it every ``PERIOD_S`` (``SIGALRM``)
and times a small fixed kernel — an integer loop, dict and allocation
traffic, 381-bit modular multiplication, and class creation plus object
churn, the kinds of work the workloads do.  The object part matters
most: in the host's slow phases Python-object code slows down more than
plain arithmetic does.  The block's wall time is then rescaled by
``NOMINAL_S / median(kernel time)``.  The kernel runs twice per sample
and only the second, cache-warm run is timed, so the sample does not
depend on how much cache the interrupted code was using.  The kernel is
stdlib-only and never changes with the code under test, so a faster
call still reads faster.  Sampling adds about 0.6% to the block.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Any

PERIOD_S = 0.04

#: the kernel's time on an uncontended core of the machine the suite was
#: calibrated on (a 2 GHz x86-64 VM vCPU); rescaled times read as wall
#: seconds on a host running the kernel this fast
NOMINAL_S = 117e-6

#: any odd 381-bit modulus works; this is the BLS12-381 base field prime
_P = int(
    "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241"
    "eabfffeb153ffffb9feffffffffaaab",
    16,
)


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(200):
        acc += (i * i) % 7
    table = {}
    for i in range(30):
        table[i] = (i, str(i), [i])
    x = 0x1234567890ABCDEF
    for _ in range(30):
        x = (x * x + 7) % _P
    for _ in range(3):

        class Node:
            __slots__ = ("key", "value")

            def __init__(self, key: int, value: int) -> None:
                self.key = key
                self.value = value

    nodes = [Node(-i, i) for i in range(80)]
    nodes.sort(key=lambda node: node.key)
    total = sum(node.value for node in nodes)
    elapsed = time.perf_counter() - start
    if acc < 0 or len(table) != 30 or x >= _P or total != 3160:
        raise RuntimeError("host kernel computed a wrong value")
    return elapsed


def sample() -> float:
    """One host-speed sample: a warm-up run, then a timed run.

    The collector is off meanwhile: the kernel's allocations would
    otherwise trigger collections whose cost depends on the caller's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        return kernel()
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Sample host speed during a ``with`` block (and once on each side)."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def __enter__(self) -> "HostSpeed":
        self.samples = [sample()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.samples.append(sample())

    @property
    def kernel_s(self) -> float:
        """Median kernel time over the block."""
        return statistics.median(self.samples)

    def normalized(self, wall_s: float) -> float:
        """``wall_s`` rescaled to a host whose kernel takes NOMINAL_S."""
        return wall_s * NOMINAL_S / self.kernel_s
