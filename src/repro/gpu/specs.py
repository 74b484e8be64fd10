"""Hardware specifications for the GPUs and hosts the paper evaluates.

Figures mirror the hardware panel of the paper's Fig. 9 (A100 vs RTX4090 vs
AMD 6900XT) and the DGX host used in §5.1.  Calibration constants that map
modelled work to wall-clock time live at the bottom; they are the *only*
free parameters of the timing model and are documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GpuSpec:
    """One GPU model.

    Attributes
    ----------
    sms: streaming multiprocessors (compute units for AMD).
    max_threads_per_sm / registers_per_sm / shared_mem_per_sm_kb:
        occupancy limits per SM.
    int32_tops: CUDA-core int32 throughput, tera-ops/s.
    tc_int8_tops: tensor-core int8 throughput (0 = no int8 MMA units).
    mem_bw_gbps: device memory bandwidth.
    shm_bw_factor: shared-memory bandwidth relative to device memory.
    pcie_gbps: host link bandwidth (for result collection).
    kernel_launch_us: host-side launch + sync latency per kernel.
    max_regs_per_thread: the ISA cap; exceeding it forces local-memory spill.
    platform: "cuda" | "hip" — the paper notes a HIP efficiency penalty.
    """

    name: str
    sms: int
    max_threads_per_sm: int
    registers_per_sm: int
    shared_mem_per_sm_kb: int
    int32_tops: float
    tc_int8_tops: float
    mem_bw_gbps: float
    pcie_gbps: float = 25.0
    shm_bw_factor: float = 10.0
    kernel_launch_us: float = 12.0
    max_regs_per_thread: int = 255
    warp_size: int = 32
    platform: str = "cuda"

    @property
    def concurrent_threads(self) -> int:
        """N_T: threads the whole GPU can keep resident at full occupancy."""
        return self.sms * self.max_threads_per_sm


@dataclass(frozen=True)
class HostCpuSpec:
    """The host CPU that runs bucket-reduce and window-reduce for DistMSM."""

    name: str
    cores: int
    # paper §3.2.3: "a GPU could be up to 128x faster than a high-end CPU";
    # we express the CPU as a PADD rate relative to one A100.
    gpu_padd_speed_ratio: float = 128.0


NVIDIA_A100 = GpuSpec(
    name="NVIDIA A100 80GB",
    sms=108,
    max_threads_per_sm=2048,
    registers_per_sm=65536,
    shared_mem_per_sm_kb=164,
    int32_tops=19.5,
    tc_int8_tops=624.0,
    mem_bw_gbps=2039.0,
    platform="cuda",
)

RTX_4090 = GpuSpec(
    name="NVIDIA RTX 4090",
    sms=128,
    max_threads_per_sm=1536,
    registers_per_sm=65536,
    shared_mem_per_sm_kb=100,
    int32_tops=41.3,  # paper: 2.12x the A100's CUDA-core integer throughput
    tc_int8_tops=660.6,
    mem_bw_gbps=1008.0,
    platform="cuda",
)

AMD_6900XT = GpuSpec(
    name="AMD Radeon 6900XT",
    sms=80,
    max_threads_per_sm=2048,
    registers_per_sm=65536,
    shared_mem_per_sm_kb=64,
    int32_tops=11.5,  # markedly lower integer throughput (paper Fig. 9)
    tc_int8_tops=0.0,  # no int8 matrix units usable for this workload
    mem_bw_gbps=512.0,
    platform="hip",
)

AMD_ROME_7742 = HostCpuSpec(name="2x AMD Rome 7742", cores=128)

#: The evaluation platform: an NVIDIA DGX with 8 A100s and dual Rome CPUs.
DGX_A100 = {
    "gpu": NVIDIA_A100,
    "cpu": AMD_ROME_7742,
    "gpus_per_node": 8,
}


# -- calibration constants (the timing model's only free parameters) --------

#: Occupancy -> efficiency saturation constant: eff = occ / (occ + K).
OCC_SATURATION_K = 0.1285

#: Penalty slope when a kernel exceeds the per-thread register cap and the
#: compiler spills to local (device) memory.
REG_CAP_PENALTY_COEF = 3.3

#: Fraction of peak integer throughput a hand-tuned big-integer kernel
#: sustains (instruction mix, dependencies, memory stalls).  Calibrated so
#: modelled compute-bound Table 3 cells track the paper's DistMSM column.
KERNEL_EFFICIENCY = 0.686

#: Fraction of the tensor-core-offloaded multiplies that actually leave the
#: CUDA cores' critical path.  The m x n product depends on the reduction
#: multiplier m, which is word-serial, so the theoretical ~48% offload
#: realises only a small net gain (paper Fig. 12: ~5%).
TC_UTILIZATION = 0.105

#: Fraction of the raw tensor-core fragment traffic that is visible as HBM
#: stall time on the naive (uncompacted) path; the rest hits L2 / overlaps
#: with compute.  Calibrated to Fig. 12's -6.8% naive-TC slowdown.
TC_TRAFFIC_VISIBLE = 0.019

#: HIP platform efficiency relative to CUDA/OpenCL (paper Fig. 9 discussion).
HIP_EFFICIENCY = 0.82

#: Fraction of explicit-spill shared-memory traffic visible as stall time
#: (LDS/STS dual-issues with the integer pipe).
SPILL_TRAFFIC_VISIBLE = 0.35

#: Atomic cost model: amortised throughput cost per op, plus the
#: serialisation latency paid when many writers hit the *same* address —
#: a contended global atomic retries at roughly the L2 round-trip latency.
GLOBAL_ATOMIC_BASE_NS = 0.35
GLOBAL_ATOMIC_SERIAL_NS = 180.0
SHARED_ATOMIC_BASE_NS = 0.06
SHARED_ATOMIC_SERIAL_NS = 30.0
