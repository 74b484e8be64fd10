"""End-to-end proving time model (paper Table 4 and §5.1.1).

The paper decomposes CPU proof generation as 78.2% MSM, 17.9% NTT, 3.9%
"others", with single-GPU accelerations of 871x (MSM) and 898x (NTT) while
"others" stays on the CPU.  DistMSM parallelises the MSM share over 8 GPUs
(the NTT remains single-GPU, per the paper's setup), so the end-to-end
speedup is an Amdahl's-law consequence — about 25.5x.

Our model: take the paper's CPU column, split it by the published shares,
accelerate the MSM share with *our* DistMSM estimate for the workload's MSM
sizes, and the NTT share by the published factor.  Small instances of the
same workloads run for real through :mod:`repro.zksnark.groth16`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis import paper_data
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.engine.resources import GPU_COMPUTE, HOST_CPU, Resource
from repro.engine.timeline import Task, Timeline, simulate
from repro.gpu.cluster import MultiGpuSystem
from repro.zksnark.workloads import ALL_WORKLOADS, WorkloadSpec

BN254 = curve_by_name("BN254")

#: G1 MSM instances per Groth16 proof, in multiples of the constraint count:
#: A-query, B-query, L-query, H-query (the G2 MSM is folded into the MSM
#: share the same way the paper's 78.2% figure does)
MSM_INSTANCES_PER_PROOF = 4


@dataclass(frozen=True)
class EndToEndEstimate:
    """Modelled end-to-end proving times for one workload."""

    workload: str
    constraints: int
    cpu_seconds: float
    distmsm_seconds: float
    msm_seconds: float
    ntt_seconds: float
    others_seconds: float
    #: the engine schedule of the proof's stages; its makespan (in ms) is
    #: ``distmsm_seconds * 1e3``
    timeline: Timeline | None = None

    @property
    def speedup(self) -> float:
        return self.cpu_seconds / self.distmsm_seconds


def proof_stage_timeline(
    msm_seconds: float, ntt_seconds: float, others_seconds: float
) -> Timeline:
    """The proof's stage sequence as an engine schedule (times in seconds).

    Groth16 stages are dependent (MSM inputs come from the NTT-extended
    witness; "others" finalises the proof), so this is a serial chain over
    the accelerator and host resources — but as engine tasks, so the same
    totals now carry utilization and critical-path structure.
    """
    gpu = Resource("gpu-cluster", GPU_COMPUTE)
    cpu = Resource("cpu", HOST_CPU)
    return simulate(
        [
            Task("msm", gpu, msm_seconds * 1e3, stage="msm"),
            Task("ntt", gpu, ntt_seconds * 1e3, deps=("msm",), stage="ntt"),
            Task("others", cpu, others_seconds * 1e3, deps=("ntt",), stage="others"),
        ]
    )


def estimate_end_to_end(
    spec: WorkloadSpec,
    num_gpus: int = 8,
) -> EndToEndEstimate:
    """Model one Table 4 row from the paper's libsnark CPU time.

    The NTT share is the CPU share divided by the published 898x factor.
    """
    constraints = spec.paper_constraints
    cpu = spec.paper_libsnark_seconds
    shares = paper_data.STAGE_SHARES_CPU
    cpu_msm = cpu * shares["msm"]
    cpu_ntt = cpu * shares["ntt"]
    cpu_others = cpu * shares["others"]

    # MSM share on the multi-GPU system: our DistMSM estimate for the
    # proof's MSM instances at the workload's size
    system = MultiGpuSystem(num_gpus)
    engine = DistMsm(system)
    msm_n = 1 << max(8, math.ceil(math.log2(constraints)))
    one_msm_ms = engine.estimate(BN254, msm_n).time_ms
    gpu_msm = MSM_INSTANCES_PER_PROOF * one_msm_ms / 1e3

    # NTT: single-GPU implementation
    gpu_ntt = cpu_ntt / paper_data.GPU_SPEEDUP_NTT

    # the serial stage chain on the engine: makespan == gpu_msm + gpu_ntt +
    # cpu_others (same associativity — the spans accumulate left to right)
    timeline = proof_stage_timeline(gpu_msm, gpu_ntt, cpu_others)
    total = timeline.total_ms / 1e3
    return EndToEndEstimate(
        workload=spec.name,
        constraints=constraints,
        cpu_seconds=cpu,
        distmsm_seconds=total,
        msm_seconds=gpu_msm,
        ntt_seconds=gpu_ntt,
        others_seconds=cpu_others,
        timeline=timeline,
    )


@dataclass
class Table4Result:
    rows: list

    def render(self) -> str:
        from repro.analysis.tables import format_table

        out = [
            [
                r.workload,
                f"{r.constraints:,}",
                f"{r.cpu_seconds:.1f}",
                f"{r.distmsm_seconds:.1f}",
                f"{r.speedup:.1f}x",
            ]
            for r in self.rows
        ]
        return format_table(
            ["Application", "Size", "libsnark (s)", "DistMSM (s)", "speedup"],
            out,
            title="Table 4: end-to-end proof generation",
        )


def table4(num_gpus: int = 8) -> Table4Result:
    """Reproduce Table 4 for all three workloads."""
    return Table4Result(
        [estimate_end_to_end(spec, num_gpus=num_gpus) for spec in ALL_WORKLOADS]
    )
