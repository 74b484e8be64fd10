"""Edge-case tests for the unified atomic contention-model validation."""

import pytest

from repro.gpu.atomics import (
    global_serialization_ms,
    scatter_atomic_time_ms,
    validate_contention,
)
from repro.gpu.specs import NVIDIA_A100


class TestValidateContention:
    def test_accepts_minimal_valid_inputs(self):
        validate_contention(1)
        validate_contention(1, active_threads=0, global_atomics=0.0, shared_atomics=0.0)

    def test_rejects_zero_addresses(self):
        with pytest.raises(ValueError, match="num_addresses"):
            validate_contention(0)

    def test_rejects_negative_addresses(self):
        with pytest.raises(ValueError, match="num_addresses"):
            validate_contention(-4)

    def test_rejects_negative_threads(self):
        with pytest.raises(ValueError, match="active_threads"):
            validate_contention(16, active_threads=-1)

    def test_rejects_negative_atomic_counts(self):
        with pytest.raises(ValueError, match="global_atomics"):
            validate_contention(16, global_atomics=-0.5)
        with pytest.raises(ValueError, match="shared_atomics"):
            validate_contention(16, shared_atomics=-1.0)

    def test_rejects_zero_threads_per_block(self):
        with pytest.raises(ValueError, match="threads_per_block"):
            validate_contention(16, threads_per_block=0)


class TestEntryPoints:
    def test_serialization_zero_atomics_is_free(self):
        assert global_serialization_ms(0.0, 256) == 0.0

    def test_serialization_rejects_negative_atomics(self):
        with pytest.raises(ValueError):
            global_serialization_ms(-1.0, 256)

    def test_scatter_time_rejects_zero_buckets(self):
        with pytest.raises(ValueError, match="num_addresses"):
            scatter_atomic_time_ms(
                NVIDIA_A100,
                global_atomics=1e6,
                shared_atomics=1e6,
                active_threads=1 << 16,
                num_buckets=0,
            )

    def test_scatter_time_rejects_zero_block_size(self):
        with pytest.raises(ValueError, match="threads_per_block"):
            scatter_atomic_time_ms(
                NVIDIA_A100,
                global_atomics=1e6,
                shared_atomics=1e6,
                active_threads=1 << 16,
                num_buckets=256,
                threads_per_block=0,
            )

    def test_scatter_time_zero_work_is_free(self):
        ms = scatter_atomic_time_ms(
            NVIDIA_A100,
            global_atomics=0.0,
            shared_atomics=0.0,
            active_threads=0,
            num_buckets=256,
        )
        assert ms == 0.0

    def test_more_buckets_never_slower(self):
        few = scatter_atomic_time_ms(NVIDIA_A100, 1e7, 1e7, 1 << 20, 64)
        many = scatter_atomic_time_ms(NVIDIA_A100, 1e7, 1e7, 1 << 20, 4096)
        assert many <= few
