"""Atomics contention model, event counters, devices and the cluster."""

import pytest

from repro.gpu.atomics import (
    global_serialization_ms,
    scatter_atomic_time_ms,
)
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.counters import EventCounters
from repro.gpu.device import SharedMemoryExceeded, SimulatedGpu
from repro.gpu.specs import NVIDIA_A100


class TestAtomicsModel:
    def test_serialization_grows_as_buckets_shrink(self):
        """The paper's core scatter observation: fewer buckets -> more
        concurrent writers per counter -> slower atomics."""
        n = 1 << 26
        t_small_s = global_serialization_ms(n, 1 << 9)
        t_large_s = global_serialization_ms(n, 1 << 16)
        assert t_small_s > 100 * t_large_s

    def test_scatter_time_positive_and_monotonic_in_ops(self):
        t1 = scatter_atomic_time_ms(NVIDIA_A100, 10_000, 0, 1 << 16, 1 << 11)
        t2 = scatter_atomic_time_ms(NVIDIA_A100, 1_000_000, 0, 1 << 16, 1 << 11)
        assert 0 < t1 < t2

    def test_shared_atomics_cheaper_than_global(self):
        kwargs = dict(active_threads=1 << 16, num_buckets=1 << 11)
        t_global = scatter_atomic_time_ms(NVIDIA_A100, 1 << 20, 0, **kwargs)
        t_shared = scatter_atomic_time_ms(NVIDIA_A100, 0, 1 << 20, **kwargs)
        assert t_shared < t_global


class TestEventCounters:
    def test_merge(self):
        a = EventCounters(pacc=1, global_atomics=5)
        b = EventCounters(pacc=2, padd=7)
        a.merge(b)
        assert a.pacc == 3
        assert a.padd == 7
        assert a.global_atomics == 5

    def test_merge_returns_self(self):
        a = EventCounters()
        assert a.merge(EventCounters(pdbl=1)) is a

    def test_scaled(self):
        c = EventCounters(pacc=100, padd=10)
        half = c.scaled(0.5)
        assert half.pacc == 50
        assert half.padd == 5
        assert c.pacc == 100  # original untouched

    def test_repr_shows_only_nonzero(self):
        assert "pacc" in repr(EventCounters(pacc=5))
        assert "padd" not in repr(EventCounters(pacc=5))


class TestSimulatedGpu:
    def test_global_atomic_counts_and_returns_old(self):
        gpu = SimulatedGpu(NVIDIA_A100)
        arr = [0, 0]
        assert gpu.global_atomic_add(arr, 1, 5) == 0
        assert gpu.global_atomic_add(arr, 1, 2) == 5
        assert arr[1] == 7
        assert gpu.counters.global_atomics == 2

    def test_block_shared_memory_capacity(self):
        gpu = SimulatedGpu(NVIDIA_A100, scatter_shm_bytes=1024)
        block = gpu.new_block(0, 32)
        block.shared.alloc_words(200)
        with pytest.raises(SharedMemoryExceeded):
            block.shared.alloc_words(200)

    def test_block_size_must_be_warp_multiple(self):
        gpu = SimulatedGpu(NVIDIA_A100)
        with pytest.raises(ValueError):
            gpu.new_block(0, 100)

    def test_shared_atomic_inc(self):
        gpu = SimulatedGpu(NVIDIA_A100)
        block = gpu.new_block(0, 32)
        arr = block.shared.alloc_words(4)
        assert block.shared.atomic_inc(arr, 2) == 0
        assert block.shared.atomic_inc(arr, 2) == 1
        assert gpu.counters.shared_atomics == 2

    def test_prefix_sum(self):
        gpu = SimulatedGpu(NVIDIA_A100)
        block = gpu.new_block(0, 32)
        assert block.parallel_prefix_sum([1, 2, 3]) == [0, 1, 3]
        assert gpu.counters.prefix_sums == 1

    def test_launch_counted(self):
        gpu = SimulatedGpu(NVIDIA_A100)
        gpu.launch()
        assert gpu.counters.kernel_launches == 1


class TestCluster:
    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            MultiGpuSystem(0)

    def test_node_counting(self):
        assert MultiGpuSystem(1).nodes == 1
        assert MultiGpuSystem(8).nodes == 1
        assert MultiGpuSystem(9).nodes == 2
        assert MultiGpuSystem(32).nodes == 4

    def test_counter_aggregation(self):
        system = MultiGpuSystem(2)
        system.gpus[0].counters.pacc = 3
        system.gpus[1].counters.pacc = 4
        assert sum(gpu.counters.pacc for gpu in system.gpus) == 7
        system.reset_counters()
        assert sum(gpu.counters.pacc for gpu in system.gpus) == 0

    def test_cpu_rate_uses_paper_ratio(self):
        system = MultiGpuSystem(1)
        from repro.gpu.timing import reference_gpu_padd_rate

        expected = reference_gpu_padd_rate(system.spec) / 128.0
        assert system.cpu_padd_rate() == pytest.approx(expected)

    def test_repr(self):
        assert "A100" in repr(MultiGpuSystem(4))
