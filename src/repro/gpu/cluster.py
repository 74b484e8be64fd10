"""The multi-GPU system: N simulated GPUs plus the host CPU.

Mirrors the paper's platform model: DGX nodes of 8 A100s with dual Rome
CPUs; configurations beyond one node are handled the way the paper's §5.1
does (node-sized slices execute independently; the slowest slice's time is
reported).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.counters import EventCounters
from repro.gpu.device import SimulatedGpu
from repro.gpu.specs import AMD_ROME_7742, GpuSpec, HostCpuSpec, NVIDIA_A100


@dataclass
class MultiGpuSystem:
    """A cluster of identical GPUs with one host CPU per 8-GPU node."""

    num_gpus: int
    spec: GpuSpec = NVIDIA_A100
    cpu: HostCpuSpec = AMD_ROME_7742
    gpus_per_node: int = 8
    gpus: list = field(init=False)

    def __post_init__(self):
        if self.num_gpus <= 0:
            raise ValueError(f"need at least one GPU, got {self.num_gpus}")
        if self.gpus_per_node <= 0:
            raise ValueError(f"need at least one GPU per node, got {self.gpus_per_node}")
        self.gpus = [SimulatedGpu(self.spec, gpu_id=i) for i in range(self.num_gpus)]

    @property
    def nodes(self) -> int:
        """DGX nodes involved (``gpus_per_node`` GPUs each)."""
        return -(-self.num_gpus // self.gpus_per_node)

    @property
    def concurrent_threads_per_gpu(self) -> int:
        return self.spec.concurrent_threads

    def reset_counters(self) -> None:
        for gpu in self.gpus:
            gpu.counters = EventCounters()

    def resources(self):
        """The engine's typed resource set for this cluster.

        One compute stream per GPU, one transfer channel per DGX node, one
        host CPU — the units :func:`repro.engine.timeline.simulate`
        schedules tasks onto.  Imported lazily: engine depends on core,
        which depends on this module.
        """
        from repro.engine.resources import system_resources

        return system_resources(self.num_gpus, self.gpus_per_node)

    def cpu_padd_rate(self) -> float:
        """Host PADD throughput (ops/s), from the paper's 128x GPU:CPU ratio.

        One A100 sustains roughly ``N_T`` concurrent PADD chains; we anchor
        the CPU rate to the modelled GPU PACC rate for BLS12-381 divided by
        the paper's ratio.  The circular import with timing is avoided by
        deferring the lookup.
        """
        from repro.gpu.timing import reference_gpu_padd_rate

        return reference_gpu_padd_rate(self.spec) / self.cpu.gpu_padd_speed_ratio

    def __repr__(self):
        return f"MultiGpuSystem({self.num_gpus} x {self.spec.name})"
