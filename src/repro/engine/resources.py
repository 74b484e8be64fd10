"""Typed execution resources for the event-driven timeline (paper §3.2).

The paper's performance story is about distinct hardware resources racing:
each GPU's compute stream, each DGX node's host link (PCIe/NVLink), and the
host CPU that runs bucket-reduce.  A :class:`Resource` names one such unit;
:func:`system_resources` builds the standard set for an ``N``-GPU cluster
(one compute stream per GPU, one transfer channel per 8-GPU node, one host
CPU).  Resources behave like in-order queues — a resource executes one task
at a time, FIFO in readiness order — mirroring CUDA-stream semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

#: resource kinds understood by the timeline renderers / checkers
GPU_COMPUTE = "gpu-compute"
TRANSFER = "transfer"
HOST_CPU = "cpu"

#: GPUs per DGX node (fixes the transfer-channel grouping)
GPUS_PER_NODE = 8


@dataclass(frozen=True)
class Resource:
    """One serially-executing hardware unit on the timeline.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"gpu0"``, ``"node0-link"``, ``"cpu"``.
    kind:
        One of :data:`GPU_COMPUTE`, :data:`TRANSFER`, :data:`HOST_CPU` (free
        strings are allowed for ad-hoc models, e.g. the two-machine flow
        shop's ``"gpu"`` / ``"cpu"``).
    index:
        Ordinal within its kind (GPU id, node id); purely informational.
    """

    name: str
    kind: str
    index: int = 0

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SystemResources:
    """The resource set of one multi-GPU system."""

    gpus: tuple[Resource, ...]
    channels: tuple[Resource, ...]
    cpu: Resource
    gpus_per_node: int = GPUS_PER_NODE

    def gpu(self, i: int) -> Resource:
        return self.gpus[i]

    def channel_for_gpu(self, i: int) -> Resource:
        """The transfer channel (per-node host link) GPU ``i`` uses."""
        return self.channels[i // self.gpus_per_node]


def system_resources(num_gpus: int, gpus_per_node: int = GPUS_PER_NODE) -> SystemResources:
    """Build the standard resource set for an ``num_gpus``-GPU cluster."""
    if num_gpus <= 0:
        raise ValueError(f"need at least one GPU, got {num_gpus}")
    if gpus_per_node <= 0:
        raise ValueError(f"need at least one GPU per node, got {gpus_per_node}")
    nodes = -(-num_gpus // gpus_per_node)
    return SystemResources(
        gpus=tuple(
            Resource(f"gpu{i}", GPU_COMPUTE, index=i) for i in range(num_gpus)
        ),
        channels=tuple(
            Resource(f"node{j}-link", TRANSFER, index=j) for j in range(nodes)
        ),
        cpu=Resource("cpu", HOST_CPU),
        gpus_per_node=gpus_per_node,
    )
