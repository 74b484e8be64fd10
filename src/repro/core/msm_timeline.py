"""MSM phase timings and their task-graph emission onto the engine.

:class:`MsmTimingBreakdown` is the single timing artifact both DistMSM
paths (functional and analytic) produce: per-GPU phase milliseconds plus
the host-side components.  From it:

* :meth:`MsmTimingBreakdown.phase_times` reproduces the legacy
  :class:`PhaseTimes` report (per-phase maxima, CPU reduce overlapped by
  the §3.2.3 flow-shop closed form) — the numbers every figure/table
  reproduction is calibrated against;
* :func:`build_msm_timeline` emits the same work as tasks on the
  event-driven engine: a phase-barrier schedule whose makespan equals
  ``PhaseTimes.total`` (the CPU reduce overlap folded in via the
  flow-shop closed form, exactly as the legacy model did).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.resources import SystemResources
from repro.engine.timeline import Timeline, TimelineBuilder


@dataclass
class PhaseTimes:
    """Modelled wall time per pipeline phase, milliseconds."""

    scatter: float = 0.0
    bucket_sum: float = 0.0
    bucket_reduce: float = 0.0
    window_reduce: float = 0.0
    transfer: float = 0.0
    launch: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.scatter
            + self.bucket_sum
            + self.bucket_reduce
            + self.window_reduce
            + self.transfer
            + self.launch
        )

    def as_dict(self) -> dict:
        return {
            "scatter": self.scatter,
            "bucket_sum": self.bucket_sum,
            "bucket_reduce": self.bucket_reduce,
            "window_reduce": self.window_reduce,
            "transfer": self.transfer,
            "launch": self.launch,
            "total": self.total,
        }


@dataclass(frozen=True)
class GpuPhaseMs:
    """One GPU's modelled milliseconds per pipeline phase."""

    scatter: float = 0.0
    bucket_sum: float = 0.0
    reduce: float = 0.0
    transfer: float = 0.0
    launch: float = 0.0

    @property
    def total(self) -> float:
        return self.scatter + self.bucket_sum + self.reduce + self.transfer + self.launch


@dataclass
class MsmTimingBreakdown:
    """The complete timing decomposition of one MSM on one system."""

    per_gpu: list[GpuPhaseMs]
    #: host bucket-reduce time visible after the intra-MSM flow-shop overlap
    visible_cpu_ms: float
    window_reduce_ms: float
    #: inter-node host coordination (sync per DGX node)
    coordination_ms: float

    def _phase_max(self, attr: str) -> float:
        return max((getattr(g, attr) for g in self.per_gpu), default=0.0)

    def phase_times(self) -> PhaseTimes:
        """The legacy per-phase report (maxima across GPUs, serial sum)."""
        return PhaseTimes(
            scatter=self._phase_max("scatter"),
            bucket_sum=self._phase_max("bucket_sum"),
            bucket_reduce=self._phase_max("reduce") + self.visible_cpu_ms,
            window_reduce=self.window_reduce_ms,
            transfer=self._phase_max("transfer") + self.coordination_ms,
            launch=self._phase_max("launch"),
        )


def _emit_builder(
    breakdown: MsmTimingBreakdown, resources: SystemResources
) -> "TimelineBuilder":
    """Phase-serial schedule: each phase is a barrier over all resources."""
    if len(breakdown.per_gpu) > len(resources.gpus):
        raise ValueError(
            f"breakdown covers {len(breakdown.per_gpu)} GPUs but the resource "
            f"set has only {len(resources.gpus)}"
        )
    b = TimelineBuilder()
    per_gpu = breakdown.per_gpu

    b.barrier_stage("scatter")
    for g, ph in enumerate(per_gpu):
        b.add(f"msm:scatter:g{g}", resources.gpu(g), ph.scatter)
    b.barrier_stage("bucket-sum")
    for g, ph in enumerate(per_gpu):
        b.add(f"msm:bucket-sum:g{g}", resources.gpu(g), ph.bucket_sum)
    b.barrier_stage("bucket-reduce-gpu")
    for g, ph in enumerate(per_gpu):
        b.add(f"msm:bucket-reduce:g{g}", resources.gpu(g), ph.reduce)
    b.barrier_stage("bucket-reduce-cpu")
    b.add("msm:bucket-reduce:cpu", resources.cpu, breakdown.visible_cpu_ms)
    b.barrier_stage("window-reduce")
    b.add("msm:window-reduce", resources.cpu, breakdown.window_reduce_ms)
    b.barrier_stage("transfer")
    # the legacy model treats per-GPU device-to-host copies as concurrent
    # (phase time = max); emit one task per node channel at the node's max
    node_transfer: dict[int, float] = {}
    for g, ph in enumerate(per_gpu):
        node = resources.channel_for_gpu(g).index
        node_transfer[node] = max(node_transfer.get(node, 0.0), ph.transfer)
    for node, ms in sorted(node_transfer.items()):
        b.add(f"msm:transfer:node{node}", resources.channels[node], ms)
    b.barrier_stage("node-sync")
    b.add("msm:node-sync", resources.cpu, breakdown.coordination_ms)
    b.barrier_stage("launch-overhead")
    for g, ph in enumerate(per_gpu):
        b.add(f"msm:launch:g{g}", resources.gpu(g), ph.launch)
    return b


def build_msm_timeline(
    breakdown: MsmTimingBreakdown, resources: SystemResources
) -> Timeline:
    """Emit one MSM's work as tasks on the engine and schedule it.

    The engine is the run-time check on the plan; the analyzer's ``plan``
    family checks this emitter's shape in CI (:func:`emit_msm_tasks`).
    """
    return _emit_builder(breakdown, resources).build()


def emit_msm_tasks(breakdown: MsmTimingBreakdown, resources: SystemResources) -> list:
    """The task list :func:`build_msm_timeline` would schedule, unsimulated.

    This is the hook the static analyzer's ``plan`` family uses to
    check the production emission shape on its own.
    """
    return _emit_builder(breakdown, resources).tasks
