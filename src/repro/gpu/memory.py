"""Device-memory footprint model: does an MSM instance even fit?

Capacity is the silent constraint behind several of the paper's design
points: precomputation multiplies the point storage by the window count
(fine for Yrrid at BLS12-377, ruinous for 753-bit curves at N = 2^28), and
bucket storage scales with ``2^s`` per resident window.  This model says
whether a configuration fits a GPU's memory; no layer of ``repro`` consults
it yet, so an oversized configuration is not rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import DistMsmConfig
from repro.curves.params import CurveParams
from repro.curves.scalar import num_windows
from repro.gpu.specs import GpuSpec, NVIDIA_A100

#: device memory of the evaluation GPUs (bytes); A100 80GB
DEVICE_MEMORY_BYTES = {
    "NVIDIA A100 80GB": 80 << 30,
    "NVIDIA RTX 4090": 24 << 30,
    "AMD Radeon 6900XT": 16 << 30,
}


@dataclass(frozen=True)
class MemoryFootprint:
    """Byte budget of one GPU's share of an MSM."""

    points_bytes: int
    scalars_bytes: int
    buckets_bytes: int
    scratch_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.points_bytes
            + self.scalars_bytes
            + self.buckets_bytes
            + self.scratch_bytes
        )

    def fits(self, spec: GpuSpec = NVIDIA_A100) -> bool:
        capacity = DEVICE_MEMORY_BYTES.get(spec.name)
        if capacity is None:
            raise KeyError(f"no memory capacity recorded for {spec.name}")
        return self.total_bytes <= capacity


def affine_point_bytes(curve: CurveParams) -> int:
    """Two base-field coordinates."""
    return 2 * curve.num_limbs * 4


def xyzz_point_bytes(curve: CurveParams) -> int:
    """Four base-field coordinates."""
    return 4 * curve.num_limbs * 4


def msm_footprint(
    curve: CurveParams,
    n: int,
    config: DistMsmConfig | None = None,
    num_gpus: int = 1,
    window_size: int | None = None,
) -> MemoryFootprint:
    """Per-GPU memory footprint of an MSM under a configuration.

    Points are replicated per GPU for window-distributed strategies and
    sliced for the N-dim strategy; precomputation multiplies the point
    storage by the window count.
    """
    if n <= 0 or num_gpus <= 0:
        raise ValueError("n and num_gpus must be positive")
    config = config or DistMsmConfig()
    s = window_size if window_size is not None else (config.window_size or 14)
    n_win = num_windows(curve.scalar_bits, s)
    buckets = ((1 << (s - 1)) + 1) if config.signed_digits else (1 << s)

    points_per_gpu = math.ceil(n / num_gpus) if config.multi_gpu == "ndim" else n
    point_copies = (n_win + 1) if config.precompute else 1
    points_bytes = points_per_gpu * point_copies * affine_point_bytes(curve)

    scalars_bytes = points_per_gpu * math.ceil(curve.scalar_bits / 8)
    # scattered point ids (one uint32 per point per resident window) plus
    # the bucket accumulators
    resident_windows = 1 if config.precompute else max(1, math.ceil(n_win / num_gpus))
    buckets_bytes = (
        buckets * resident_windows * xyzz_point_bytes(curve)
        + points_per_gpu * 4
    )
    scratch_bytes = points_per_gpu * 4  # digit staging
    return MemoryFootprint(points_bytes, scalars_bytes, buckets_bytes, scratch_bytes)


def max_feasible_log_n(
    curve: CurveParams,
    config: DistMsmConfig | None = None,
    num_gpus: int = 1,
    spec: GpuSpec = NVIDIA_A100,
) -> int:
    """Largest ``log2(N)`` that fits in device memory."""
    log_n = 1
    while log_n < 40:
        fp = msm_footprint(curve, 1 << (log_n + 1), config, num_gpus)
        if not fp.fits(spec):
            break
        log_n += 1
    return log_n
