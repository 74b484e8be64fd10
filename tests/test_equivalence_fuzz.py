"""Cross-implementation fuzzing: every MSM path must agree, always.

One hypothesis-driven suite that throws randomly shaped instances at every
MSM implementation in the repository — serial Pippenger (both recodings),
precomputation, batched-affine, the DistMSM engine under random
configurations, and the baselines — and insists they all equal the naive
reference.  This is the repository's strongest single invariant.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.sampling import sample_points
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.msm.pippenger import pippenger_msm
from repro.msm.precompute import msm_with_precompute, precompute_tables

from tests.conftest import TOY_CURVE

# pools of deterministic points, reused across hypothesis examples
POINTS = sample_points(TOY_CURVE, 64, seed=123)

instance = st.builds(
    lambda n, seed: (n, seed),
    st.integers(1, 48),
    st.integers(0, 10_000),
)


def _make_instance(n, seed):
    import random

    rng = random.Random(seed)
    scalars = [rng.randrange(TOY_CURVE.r) for _ in range(n)]
    points = [POINTS[rng.randrange(len(POINTS))] for _ in range(n)]
    return scalars, points


@given(instance, st.integers(2, 6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_pippenger_always_matches_naive(inst, window, signed):
    scalars, points = _make_instance(*inst)
    expected = naive_msm(scalars, points, TOY_CURVE)
    assert pippenger_msm(scalars, points, TOY_CURVE, window, signed) == expected


@given(instance, st.integers(2, 5), st.booleans())
@settings(max_examples=12, deadline=None)
def test_precompute_always_matches_naive(inst, window, signed):
    scalars, points = _make_instance(*inst)
    expected = naive_msm(scalars, points, TOY_CURVE)
    from repro.curves.scalar import num_windows

    windows = num_windows(TOY_CURVE.scalar_bits, window) + 1
    tables = precompute_tables(points, TOY_CURVE, window, windows)
    got = msm_with_precompute(scalars, tables, TOY_CURVE, window, signed)
    assert got == expected


engine_config = st.builds(
    DistMsmConfig,
    window_size=st.integers(3, 6),
    scatter=st.sampled_from(["hierarchical", "naive"]),
    bucket_reduce_on_cpu=st.booleans(),
    multi_gpu=st.sampled_from(["bucket-split", "windows", "ndim"]),
    signed_digits=st.booleans(),
    precompute=st.booleans(),
    gpu_reduce=st.sampled_from(["scan", "simd"]),
    threads_per_block=st.just(32),
    points_per_thread=st.just(4),
)


@given(instance, engine_config, st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_engine_always_matches_naive(inst, config, gpus):
    scalars, points = _make_instance(*inst)
    expected = naive_msm(scalars, points, TOY_CURVE)
    engine = DistMsm(MultiGpuSystem(gpus), config)
    assert engine.execute(scalars, points, TOY_CURVE).point == expected


@given(instance, st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_baselines_always_match_naive(inst, gpus):
    """Every Table 2 baseline configuration computes correct results."""
    from dataclasses import replace

    from repro.baselines.registry import all_baselines
    from repro.curves.params import curve_by_name

    curve = curve_by_name("BN254")
    import random

    rng = random.Random(inst[1])
    n = min(inst[0], 6)  # keep BN254 instances tiny
    from repro.curves.sampling import sample_points as sp

    points = sp(curve, n, seed=inst[1] % 7)
    scalars = [rng.randrange(1 << 32) for _ in range(n)]
    expected = naive_msm(scalars, points, curve)
    system = MultiGpuSystem(gpus)
    for baseline in all_baselines():
        if not baseline.supports(curve):
            continue
        small = replace(baseline, config=replace(baseline.config, window_size=5))
        engine = small.engine(curve, len(scalars), system)
        assert engine.execute(scalars, points, curve).point == expected
