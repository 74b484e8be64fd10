"""GPU NTT model: the proof pipeline's second kernel (§5.1.1).

The paper accelerates the NTT on a single GPU (898x over the CPU) but
leaves it out of the multi-GPU redesign; Table 4's post-acceleration stage
distribution (NTT becomes dominant) follows directly.  This module gives
the repository an executable GPU-style NTT:

* a *functional* simulation that runs the radix-2 butterfly network in the
  stage-parallel order a GPU kernel uses — all ``n/2`` butterflies of a
  stage in parallel, a barrier between stages — validating against the
  serial NTT and counting butterflies / syncs / traffic;
* an *analytic* timing model built on the same throughput substrate as the
  EC kernels, used by the pipeline when modelled NTT times are requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.occupancy import occupancy_for
from repro.gpu.specs import KERNEL_EFFICIENCY, GpuSpec, NVIDIA_A100
from repro.gpu.timing import occupancy_efficiency
from repro.zksnark.ntt import NttDomain, _bit_reverse_permute


@dataclass
class NttGpuCounters:
    """Work tallies of one stage-parallel NTT execution."""

    butterflies: int = 0
    stages: int = 0
    global_syncs: int = 0
    device_bytes: int = 0
    kernel_launches: int = 0


def simulate_gpu_ntt(
    domain: NttDomain,
    values: list[int],
    threads_per_block: int = 256,
) -> tuple[list[int], NttGpuCounters]:
    """Execute the NTT in GPU stage order; returns (result, counters).

    Stages with butterfly span inside one block need only block barriers;
    wider spans force a grid-wide synchronisation (kernel relaunch) — the
    structure real GPU NTTs (and the paper's Sppark NTT) have.
    """
    n = domain.size
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    p = domain.modulus
    counters = NttGpuCounters()
    a = _bit_reverse_permute([v % p for v in values])

    length = 2
    while length <= n:
        w_step = pow(domain.omega, n // length, p)
        half = length // 2
        # one parallel stage: n/2 independent butterflies
        for start in range(0, n, length):
            w = 1
            for k in range(start, start + half):
                even, odd = a[k], a[k + half] * w % p
                a[k] = (even + odd) % p
                a[k + half] = (even - odd) % p
                w = w * w_step % p
        counters.butterflies += n // 2
        counters.stages += 1
        counters.device_bytes += 2 * n * 32  # read + write the vector
        if half >= threads_per_block:
            counters.global_syncs += 1
            counters.kernel_launches += 1
        length *= 2
    if counters.kernel_launches == 0:
        counters.kernel_launches = 1
    return a, counters


def ntt_counts(log_n: int, threads_per_block: int = 256) -> NttGpuCounters:
    """Closed-form counters for a size-``2^log_n`` NTT."""
    n = 1 << log_n
    counters = NttGpuCounters()
    counters.stages = log_n
    counters.butterflies = log_n * (n // 2)
    counters.device_bytes = log_n * 2 * n * 32
    wide_stages = max(0, log_n - int(math.log2(threads_per_block)))
    counters.global_syncs = wide_stages
    counters.kernel_launches = max(1, wide_stages)
    return counters


#: word operations of one butterfly over an 8-limb scalar field: one
#: Montgomery multiplication (2N^2 + N muls plus adds) and two additions.
def _butterfly_word_ops(limbs: int = 8) -> float:
    muls = 2 * limbs * limbs + limbs
    adds = 4 * limbs * limbs + 2 * limbs  # reduction adds + the two sums
    return muls + adds / 2.0


#: registers of the butterfly kernel: ~4 live scalars plus addressing
NTT_REGS_PER_THREAD = 40


def ntt_time_ms(log_n: int, spec: GpuSpec = NVIDIA_A100, limbs: int = 8) -> float:
    """Modelled single-GPU NTT time (the paper's Sppark-style kernel)."""
    counters = ntt_counts(log_n)
    occ = occupancy_for(spec, NTT_REGS_PER_THREAD)
    eff = occupancy_efficiency(occ.occupancy)
    rate = spec.int32_tops * 1e12 * eff * KERNEL_EFFICIENCY
    compute_s = counters.butterflies * _butterfly_word_ops(limbs) / rate
    mem_s = counters.device_bytes / (spec.mem_bw_gbps * 1e9)
    launch_s = counters.kernel_launches * spec.kernel_launch_us * 1e-6
    return (max(compute_s, mem_s) + launch_s) * 1e3
