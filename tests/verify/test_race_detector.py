"""The race detector: the shipped kernels are clean, the broken one is not."""

from unittest import mock

import pytest

from repro.core import bucket_sum
from repro.core.config import DistMsmConfig
from repro.curves.sampling import sample_points
from repro.curves.toy import toy_curve
from repro.gpu.trace import Kind, MemoryTrace, Space
from repro.verify import (
    detect_races,
    trace_bucket_sum,
    trace_hierarchical_scatter,
    trace_naive_scatter,
)
from repro.verify.fixtures import broken_scatter_check

DIGITS = [1 + (i % 3) for i in range(96)]


class TestMemoryModel:
    """Unit tests of the happens-before relation on hand-built traces."""

    def test_same_thread_accesses_never_race(self):
        t = MemoryTrace()
        t.record(Space.GLOBAL, "g", 0, Kind.WRITE, atomic=False, block=0, thread=0)
        t.record(Space.GLOBAL, "g", 0, Kind.WRITE, atomic=False, block=0, thread=0)
        assert detect_races(t).ok

    def test_two_reads_never_race(self):
        t = MemoryTrace()
        t.record(Space.GLOBAL, "g", 0, Kind.READ, atomic=False, block=0, thread=0)
        t.record(Space.GLOBAL, "g", 0, Kind.READ, atomic=False, block=1, thread=5)
        assert detect_races(t).ok

    def test_plain_cross_thread_writes_race(self):
        t = MemoryTrace()
        t.record(Space.GLOBAL, "g", 7, Kind.WRITE, atomic=False, block=0, thread=0)
        t.record(Space.GLOBAL, "g", 7, Kind.WRITE, atomic=False, block=0, thread=1)
        result = detect_races(t)
        assert not result.ok
        assert result.violations[0].address == "global:g[7]"

    def test_atomic_pair_does_not_race(self):
        t = MemoryTrace()
        t.record(Space.GLOBAL, "g", 7, Kind.RMW, atomic=True, block=0, thread=0)
        t.record(Space.GLOBAL, "g", 7, Kind.RMW, atomic=True, block=3, thread=9)
        assert detect_races(t).ok

    def test_atomic_against_plain_still_races(self):
        t = MemoryTrace()
        t.record(Space.GLOBAL, "g", 7, Kind.RMW, atomic=True, block=0, thread=0)
        t.record(Space.GLOBAL, "g", 7, Kind.WRITE, atomic=False, block=0, thread=1)
        assert not detect_races(t).ok

    def test_block_barrier_orders_accesses(self):
        t = MemoryTrace()
        t.record(Space.SHARED, "s", 0, Kind.WRITE, atomic=False, block=0, thread=0)
        t.barrier(0)
        t.record(Space.SHARED, "s", 0, Kind.READ, atomic=False, block=0, thread=1)
        assert detect_races(t).ok

    def test_barrier_does_not_order_other_blocks(self):
        t = MemoryTrace()
        t.record(Space.GLOBAL, "g", 0, Kind.WRITE, atomic=False, block=0, thread=0)
        t.barrier(0)  # block 0's barrier is irrelevant to block 1
        t.record(Space.GLOBAL, "g", 0, Kind.WRITE, atomic=False, block=1, thread=0)
        assert not detect_races(t).ok

    def test_shared_memory_is_per_block(self):
        t = MemoryTrace()
        t.record(Space.SHARED, "s", 0, Kind.WRITE, atomic=False, block=0, thread=0)
        t.record(Space.SHARED, "s", 0, Kind.WRITE, atomic=False, block=1, thread=0)
        assert detect_races(t).ok  # same address, different physical memory

    def test_one_violation_per_racing_location(self):
        t = MemoryTrace()
        for address in (0, 1):
            for thread in range(8):
                t.record(
                    Space.GLOBAL, "g", address, Kind.WRITE,
                    atomic=False, block=0, thread=thread,
                )
        result = detect_races(t)
        assert [v.address for v in result.violations] == [
            e.location() for e in t.events[::8]
        ]


class TestShippedKernels:
    def test_naive_scatter_with_atomics_is_race_free(self):
        trace = trace_naive_scatter(DIGITS, num_buckets=4)
        result = detect_races(trace, subject="naive scatter")
        assert result.ok, [str(v) for v in result.violations]
        assert result.events > 0

    def test_hierarchical_scatter_is_race_free(self):
        trace = trace_hierarchical_scatter(DIGITS, num_buckets=4)
        result = detect_races(trace, subject="hierarchical scatter")
        assert result.ok, [str(v) for v in result.violations]
        assert result.events > 0

    def test_hierarchical_scatter_multi_block_is_race_free(self):
        config = DistMsmConfig(
            scatter="hierarchical", threads_per_block=32, points_per_thread=2
        )
        trace = trace_hierarchical_scatter(DIGITS, num_buckets=4, config=config)
        result = detect_races(trace)
        assert result.ok, [str(v) for v in result.violations]

    def test_bucket_sum_tree_reduction_is_race_free(self):
        curve = toy_curve()
        points = sample_points(curve, 12, seed=5)
        buckets = [[0, 1, 2, 3], [4, 5, 6, 7, 8], [9, 10, 11]]
        for n_threads in (2, 4):
            trace = trace_bucket_sum(buckets, points, curve, n_threads)
            result = detect_races(trace)
            assert result.ok, [str(v) for v in result.violations]

    @pytest.mark.parametrize("n_threads", [1, 2, 4, 32])
    def test_bucket_sum_trace_is_kernel_neutral(self, n_threads):
        """Batched affine or XYZZ: the same accesses, the same verdict."""
        curve = toy_curve()
        points = sample_points(curve, 12, seed=5)
        buckets = [[0, 1, 2, 3], [], [4, 5, 6, 7, 8], [9, 10, 11]]
        runs = {}
        for affine in (False, True):
            with mock.patch.object(
                bucket_sum, "uses_affine_kernel", lambda c, affine=affine: affine
            ):
                trace = trace_bucket_sum(buckets, points, curve, n_threads)
            runs[affine] = (trace.events, detect_races(trace))
        (xyzz_events, xyzz_check), (affine_events, affine_check) = runs.values()
        assert xyzz_events == affine_events
        assert xyzz_check.ok and affine_check.ok
        assert (xyzz_check.events, xyzz_check.locations) == (
            affine_check.events,
            affine_check.locations,
        )


class TestBrokenScatter:
    def test_scatter_without_atomics_is_caught_with_address(self):
        result = broken_scatter_check()
        assert not result.ok
        violation = result.violations[0]
        assert violation.address is not None
        assert violation.address.startswith("global:bucket_sizes[")

    def test_diagnostic_names_the_conflicting_threads(self):
        result = broken_scatter_check()
        message = result.violations[0].message
        assert "thread" in message
        assert "rmw" in message or "write" in message


class TestTraceRecords:
    def test_length_counts_accesses_not_barriers(self):
        trace = MemoryTrace()
        trace.record(Space.SHARED, "buckets", 3, Kind.RMW, atomic=True, block=0, thread=1)
        trace.barrier(0)
        trace.record(Space.GLOBAL, "points", 7, Kind.READ, atomic=False, block=0, thread=2)
        assert len(trace) == 2
        assert len(trace.barriers) == 1

    def test_event_repr_names_kind_location_and_epoch(self):
        trace = MemoryTrace()
        trace.barrier(1)
        trace.record(Space.SHARED, "buckets", 3, Kind.RMW, atomic=True, block=1, thread=4)
        trace.record(Space.GLOBAL, "points", 7, Kind.READ, atomic=False, block=0, thread=2)
        atomic, plain = trace.events
        assert repr(atomic) == "<atomic rmw shared:buckets[3] by block 1 thread 4 epoch 1>"
        assert repr(plain) == "<read global:points[7] by block 0 thread 2 epoch 0>"
