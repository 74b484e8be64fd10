"""DistMSM engine: bit-exact correctness and model consistency."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.curves.sampling import msm_instance
from repro.gpu.cluster import MultiGpuSystem
from repro.kernels.padd_kernel import KernelOptimisations
from repro.msm.naive import naive_msm

from tests.conftest import TOY_CURVE

BN254 = curve_by_name("BN254")

FAST_SCATTER = dict(threads_per_block=32, points_per_thread=4)


class TestConfig:
    def test_defaults_are_distmsm(self):
        cfg = DistMsmConfig()
        assert cfg.scatter == "hierarchical"
        assert cfg.bucket_reduce_on_cpu
        assert cfg.multi_gpu == "bucket-split"
        assert cfg.kernel_opts == KernelOptimisations.all()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scatter": "telepathic"},
            {"multi_gpu": "diagonal"},
            {"window_size": 0},
            {"efficiency": 0.0},
            {"efficiency": 1.5},
            {"gpu_reduce": "magic"},
            {"threads_per_block": 0},
            {"points_per_thread": -1},
            {"threads_per_bucket_min": 0},
            {"max_retries": -1},
            {"backoff_base_ms": 0.0},
            {"verify_chunks": "sometimes"},
            {"window_size": 31},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DistMsmConfig(**kwargs)


class TestFunctionalCorrectness:
    """Every engine configuration must agree with the naive reference."""

    @pytest.fixture(scope="class")
    def instance(self):
        scalars, points = msm_instance(TOY_CURVE, 32, seed=41)
        return scalars, points, naive_msm(scalars, points, TOY_CURVE)

    @pytest.mark.parametrize("gpus", [1, 2, 5, 8])
    def test_default_config(self, instance, gpus):
        scalars, points, expected = instance
        engine = DistMsm(
            MultiGpuSystem(gpus), DistMsmConfig(window_size=4, **FAST_SCATTER)
        )
        assert engine.execute(scalars, points, TOY_CURVE).point == expected

    @pytest.mark.parametrize("scatter", ["naive", "hierarchical"])
    @pytest.mark.parametrize("multi_gpu", ["bucket-split", "windows", "ndim"])
    def test_strategy_matrix(self, instance, scatter, multi_gpu):
        scalars, points, expected = instance
        cfg = DistMsmConfig(
            window_size=3, scatter=scatter, multi_gpu=multi_gpu, **FAST_SCATTER
        )
        engine = DistMsm(MultiGpuSystem(3), cfg)
        assert engine.execute(scalars, points, TOY_CURVE).point == expected

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("precompute", [False, True])
    def test_recoding_matrix(self, instance, signed, precompute):
        scalars, points, expected = instance
        cfg = DistMsmConfig(
            window_size=3, signed_digits=signed, precompute=precompute, **FAST_SCATTER
        )
        engine = DistMsm(MultiGpuSystem(2), cfg)
        assert engine.execute(scalars, points, TOY_CURVE).point == expected

    def test_gpu_bucket_reduce_path(self, instance):
        scalars, points, expected = instance
        cfg = DistMsmConfig(
            window_size=3, bucket_reduce_on_cpu=False, **FAST_SCATTER
        )
        engine = DistMsm(MultiGpuSystem(2), cfg)
        assert engine.execute(scalars, points, TOY_CURVE).point == expected

    def test_empty_input(self):
        engine = DistMsm(MultiGpuSystem(1))
        assert engine.execute([], [], TOY_CURVE).point.infinity

    def test_length_mismatch(self):
        engine = DistMsm(MultiGpuSystem(1))
        with pytest.raises(ValueError):
            engine.execute([1], [], TOY_CURVE)

    def test_bn254_small_instance(self):
        scalars, points = msm_instance(BN254, 12, seed=17)
        expected = naive_msm(scalars, points, BN254)
        engine = DistMsm(
            MultiGpuSystem(4), DistMsmConfig(window_size=8, **FAST_SCATTER)
        )
        assert engine.execute(scalars, points, BN254).point == expected

    @given(st.integers(1, 6), st.integers(2, 40))
    @settings(max_examples=15, deadline=None)
    def test_property_gpus_and_sizes(self, gpus, n):
        scalars, points = msm_instance(TOY_CURVE, n, seed=n * 31 + gpus)
        expected = naive_msm(scalars, points, TOY_CURVE)
        engine = DistMsm(
            MultiGpuSystem(gpus), DistMsmConfig(window_size=4, **FAST_SCATTER)
        )
        assert engine.execute(scalars, points, TOY_CURVE).point == expected


class TestCounters:
    def test_pacc_counts_match_nonzero_digits(self):
        scalars, points = msm_instance(TOY_CURVE, 50, seed=5)
        from repro.curves.scalar import num_windows, unsigned_windows

        s = 3
        n_win = num_windows(TOY_CURVE.scalar_bits, s)
        nonzero = sum(
            1 for k in scalars for d in unsigned_windows(k, s, n_win) if d
        )
        engine = DistMsm(
            MultiGpuSystem(2), DistMsmConfig(window_size=s, **FAST_SCATTER)
        )
        result = engine.execute(scalars, points, TOY_CURVE)
        assert result.counters.pacc == nonzero

    def test_functional_vs_analytic_counts(self):
        """The analytic estimator must track functional event counts."""
        n = 512
        scalars, points = msm_instance(TOY_CURVE, n, seed=6)
        cfg = DistMsmConfig(window_size=4, **FAST_SCATTER)
        engine = DistMsm(MultiGpuSystem(2), cfg)
        functional = engine.execute(scalars, points, TOY_CURVE)
        analytic = engine.estimate(TOY_CURVE, n)
        assert analytic.counters.pacc == pytest.approx(
            functional.counters.pacc, rel=0.1
        )
        assert analytic.counters.shared_atomics == pytest.approx(
            functional.counters.shared_atomics, rel=0.15
        )
        assert analytic.counters.cpu_padd == pytest.approx(
            functional.counters.cpu_padd, rel=0.25
        )

    def test_phase_times_reported(self):
        scalars, points = msm_instance(TOY_CURVE, 16, seed=7)
        engine = DistMsm(
            MultiGpuSystem(1), DistMsmConfig(window_size=4, **FAST_SCATTER)
        )
        result = engine.execute(scalars, points, TOY_CURVE)
        assert result.time_ms == pytest.approx(result.times.total)
        assert set(result.times.as_dict()) == {
            "scatter", "bucket_sum", "bucket_reduce", "window_reduce",
            "transfer", "launch", "total",
        }


class TestEstimator:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            DistMsm(MultiGpuSystem(1)).estimate(BN254, 0)

    def test_time_grows_with_n(self):
        engine = DistMsm(MultiGpuSystem(8))
        t_small = engine.estimate(BN254, 1 << 22).time_ms
        t_large = engine.estimate(BN254, 1 << 26).time_ms
        assert t_large > 4 * t_small

    def test_time_shrinks_with_gpus(self):
        n = 1 << 26
        t1 = DistMsm(MultiGpuSystem(1)).estimate(BN254, n).time_ms
        t8 = DistMsm(MultiGpuSystem(8)).estimate(BN254, n).time_ms
        t32 = DistMsm(MultiGpuSystem(32)).estimate(BN254, n).time_ms
        assert t8 < t1 / 4
        assert t32 < t8

    def test_near_linear_scaling_at_large_n(self):
        """Paper: at N=2^28, 32 GPUs reach ~31x over one GPU."""
        n = 1 << 28
        t1 = DistMsm(MultiGpuSystem(1)).estimate(BN254, n).time_ms
        t32 = DistMsm(MultiGpuSystem(32)).estimate(BN254, n).time_ms
        assert t1 / t32 > 20

    def test_window_autotune_adapts_to_gpus(self):
        engine1 = DistMsm(MultiGpuSystem(1))
        engine32 = DistMsm(MultiGpuSystem(32))
        s1 = engine1.window_size_for(BN254, 1 << 26)
        s32 = engine32.window_size_for(BN254, 1 << 26)
        assert s32 <= s1
        assert s1 <= 14  # hierarchical scatter feasibility

    def test_window_cache_stable(self):
        engine = DistMsm(MultiGpuSystem(4))
        assert engine.window_size_for(BN254, 1 << 24) == engine.window_size_for(
            BN254, 1 << 24
        )

    def test_mnt_slower_than_bn254(self):
        mnt = curve_by_name("MNT4753")
        n = 1 << 24
        t_mnt = DistMsm(MultiGpuSystem(8)).estimate(mnt, n).time_ms
        t_bn = DistMsm(MultiGpuSystem(8)).estimate(BN254, n).time_ms
        assert t_mnt > 10 * t_bn
