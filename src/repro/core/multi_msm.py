"""Cross-MSM pipelining (paper §3.2.3).

"Proof generation involves several MSM calculations and other GPU tasks,
which means that bucket-reduce can be efficiently pipelined": while the CPU
reduces MSM *i*'s buckets, the GPUs already run MSM *i+1*.  This module
models that pipeline — a classic two-machine flow shop — on the
event-driven timeline (:mod:`repro.engine`), with a closed form for
identical jobs.  The same scheduler serves a batch of independent requests
by splitting the GPUs into groups that share the one host CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distmsm import DistMsm
from repro.curves.params import CurveParams
from repro.engine.resources import GPU_COMPUTE, HOST_CPU, Resource
from repro.engine.timeline import Task, Timeline, simulate
from repro.gpu.timing import cpu_ec_time_ms

#: the flow shop's CPU machine, shared by every GPU group
CPU_STAGE = Resource("cpu", HOST_CPU)


@dataclass(frozen=True)
class MsmJob:
    """One MSM of a proof: its GPU time and its (un-overlapped) CPU time."""

    label: str
    gpu_ms: float
    cpu_ms: float


@dataclass
class PipelineSchedule:
    """Outcome of scheduling a job sequence over the GPU+CPU pipeline."""

    jobs: list[MsmJob]
    #: makespan of the whole schedule
    pipelined_ms: float
    serial_ms: float
    #: per job: (label, GPU start, GPU end, CPU start, CPU end)
    timeline: list[tuple[str, float, float, float, float]]
    #: the underlying engine schedule (same spans as ``timeline``)
    engine_timeline: Timeline

    @property
    def speedup(self) -> float:
        if self.pipelined_ms == 0:
            return 1.0
        return self.serial_ms / self.pipelined_ms

    @property
    def throughput_rps(self) -> float:
        """Jobs per second at the schedule's steady rate."""
        if self.pipelined_ms == 0:
            return 0.0
        return len(self.jobs) / self.pipelined_ms * 1e3

    @property
    def mean_latency_ms(self) -> float:
        """Mean job completion time (its CPU end), from the schedule start."""
        if not self.timeline:
            return 0.0
        return sum(c_end for (*_, c_end) in self.timeline) / len(self.timeline)


def schedule_pipeline(jobs: list[MsmJob], gpu_groups: int = 1) -> PipelineSchedule:
    """Flow shop on the engine: GPU stage then CPU stage per job.

    Each job becomes two tasks — its GPU stage on the least-loaded of
    ``gpu_groups`` GPU resources (accumulated GPU time, ties to the lowest
    index), its bucket-reduce on the one shared CPU, dependent on the GPU
    stage.  The engine's FIFO resources reproduce the classic recurrence:
    a group starts its next job as soon as its previous GPU stage ends,
    while the CPU processes reduce stages in readiness order.  With one
    group that is the paper's single-proof pipeline; more groups trade
    per-job latency for batch throughput.
    """
    if gpu_groups < 1:
        raise ValueError(f"gpu_groups must be >= 1, got {gpu_groups}")
    gpus = [Resource(f"gpu{g}", GPU_COMPUTE, index=g) for g in range(gpu_groups)]
    load = [0.0] * gpu_groups
    tasks: list[Task] = []
    for i, job in enumerate(jobs):
        if job.gpu_ms < 0 or job.cpu_ms < 0:
            raise ValueError(f"negative stage time in job {job.label!r}")
        group = min(range(gpu_groups), key=load.__getitem__)
        load[group] += job.gpu_ms
        gpu_name = f"{job.label}#{i}:gpu"
        tasks.append(Task(gpu_name, gpus[group], job.gpu_ms, stage=job.label))
        tasks.append(
            Task(
                f"{job.label}#{i}:cpu",
                CPU_STAGE,
                job.cpu_ms,
                deps=(gpu_name,),
                stage=job.label,
            )
        )
    engine_timeline = simulate(tasks)
    timeline: list[tuple[str, float, float, float, float]] = []
    for i, job in enumerate(jobs):
        g = engine_timeline.span(f"{job.label}#{i}:gpu")
        c = engine_timeline.span(f"{job.label}#{i}:cpu")
        timeline.append((job.label, g.start_ms, g.end_ms, c.start_ms, c.end_ms))
    serial = sum(j.gpu_ms + j.cpu_ms for j in jobs)
    return PipelineSchedule(
        list(jobs), engine_timeline.total_ms, serial, timeline, engine_timeline
    )


def msm_job_from_estimate(engine: DistMsm, curve: CurveParams, n: int, label: str = "msm") -> MsmJob:
    """Split one engine estimate into GPU and raw-CPU stage times.

    The engine's own estimate already overlaps the CPU reduce *within* the
    MSM; here we want the raw split so the cross-MSM scheduler owns all the
    overlap accounting.
    """
    est = engine.estimate(curve, n)
    cpu_raw_ms = cpu_ec_time_ms(
        est.counters.cpu_padd, est.counters.cpu_pdbl, engine.system.cpu_padd_rate()
    )
    gpu_ms = (
        est.times.scatter
        + est.times.bucket_sum
        + est.times.transfer
        + est.times.launch
    )
    return MsmJob(label=label, gpu_ms=gpu_ms, cpu_ms=cpu_raw_ms)


def groth16_msm_jobs(
    engine: DistMsm, curve: CurveParams, constraints: int
) -> list[MsmJob]:
    """The MSM sequence of one Groth16 proof: A, B, C queries plus H.

    A/B/C queries run over the witness length (~constraints), the H query
    over the quotient degree (~domain size); the G2 MSM is folded into B's
    cost at 3x (Fp2 arithmetic).
    """
    if constraints <= 0:
        raise ValueError("constraint count must be positive")
    n = max(2, constraints)
    jobs = [
        msm_job_from_estimate(engine, curve, n, "A-query"),
        msm_job_from_estimate(engine, curve, n, "B-query(G1)"),
    ]
    b2 = msm_job_from_estimate(engine, curve, n, "B-query(G2)")
    jobs.append(MsmJob("B-query(G2)", b2.gpu_ms * 3, b2.cpu_ms * 3))
    jobs.append(msm_job_from_estimate(engine, curve, n, "C-query"))
    jobs.append(msm_job_from_estimate(engine, curve, n, "H-query"))
    return jobs


def proof_msm_schedule(engine: DistMsm, curve: CurveParams, constraints: int) -> PipelineSchedule:
    """Pipelined schedule for one proof's MSMs (paper's pipelining claim)."""
    return schedule_pipeline(groth16_msm_jobs(engine, curve, constraints))


#: characters across :func:`render_gantt`'s time axis
GANTT_WIDTH = 60


def render_gantt(schedule: PipelineSchedule) -> str:
    """An ASCII Gantt chart of the GPU/CPU pipeline timeline."""
    width = GANTT_WIDTH
    if not schedule.timeline:
        return "(empty schedule)"
    end = max(c_end for (_, _, _, _, c_end) in schedule.timeline) or 1.0

    def bar(start: float, stop: float, mark: str) -> str:
        lo = round(start / end * width)
        hi = max(lo + 1, round(stop / end * width))
        return " " * lo + mark * (hi - lo)

    label_w = max(len(lbl) for (lbl, *_rest) in schedule.timeline)
    lines = [
        f"pipeline makespan {schedule.pipelined_ms:.2f} ms "
        f"(serial {schedule.serial_ms:.2f} ms, {schedule.speedup:.2f}x)"
    ]
    for label, g0, g1, c0, c1 in schedule.timeline:
        gpu_bar = bar(g0, g1, "#")
        cpu_bar = bar(c0, c1, "~")
        merged = "".join(
            c if c != " " else cpu_bar[i] if i < len(cpu_bar) else " "
            for i, c in enumerate(gpu_bar.ljust(width))
        )
        lines.append(f"{label:>{label_w}} |{merged}")
    lines.append(" " * label_w + " +" + "-" * width)
    lines.append(" " * label_w + "  # = GPU stage, ~ = CPU bucket-reduce")
    return "\n".join(lines)
