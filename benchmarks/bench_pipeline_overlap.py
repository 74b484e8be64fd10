"""Pipeline overlap study: serial vs overlapped vs batched MSM serving.

Quantifies the §3.2.3 claim on the engine's timelines:

* **serial** — every stage back to back (no CPU/GPU overlap anywhere);
* **overlapped** — the cross-MSM flow shop (one proof's MSM sequence, the
  CPU reducing MSM *i* while the GPUs run MSM *i+1*);
* **batched** — the same scheduler over GPU groups
  (``schedule_pipeline(jobs, gpu_groups=k)``), interleaving an independent
  request stream with the shared host CPU.

Writes the comparison to ``results/pipeline_overlap.txt`` and the
machine-readable metrics to ``results/BENCH_pipeline_overlap.json`` (the
``benchmarks/compare_bench.py`` regression gate reads the latter).  Runs
under pytest-benchmark (``make bench``) and standalone:

    PYTHONPATH=src python benchmarks/bench_pipeline_overlap.py [--smoke]

``--smoke`` (the ``make bench-smoke`` CI hook) skips the timer harness and
just regenerates the table while asserting the pipelining invariants.
"""

from __future__ import annotations

import sys

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.core.multi_msm import (
    groth16_msm_jobs,
    msm_job_from_estimate,
    render_gantt,
    schedule_pipeline,
)
from repro.curves.params import curve_by_name
from repro.gpu.cluster import MultiGpuSystem

CURVE = curve_by_name("BLS12-381")
NUM_GPUS = 8
CONSTRAINTS = 1 << 20
BATCH_REQUESTS = 8

#: fixed window so the study measures scheduling, not the autotune sweep
CONFIG = DistMsmConfig(window_size=12)


def pipeline_overlap_report() -> tuple[str, dict]:
    """Build the three schedules and render the comparison table."""
    system = MultiGpuSystem(NUM_GPUS)
    engine = DistMsm(system, CONFIG)

    jobs = groth16_msm_jobs(engine, CURVE, CONSTRAINTS)
    flow = schedule_pipeline(jobs)

    lines = [
        f"Pipeline overlap study — {NUM_GPUS}x {system.spec.name}, "
        f"{CURVE.name}, 2^{CONSTRAINTS.bit_length() - 1} constraints",
        "",
        f"one proof, {len(jobs)} MSMs (Groth16 A/B/B-G2/C/H):",
        f"  serial (no overlap)      : {flow.serial_ms:9.2f} ms",
        f"  overlapped (flow shop)   : {flow.pipelined_ms:9.2f} ms  "
        f"({flow.speedup:.2f}x)",
        "",
        render_gantt(flow),
    ]

    metrics = {
        "serial_ms": flow.serial_ms,
        "pipelined_ms": flow.pipelined_ms,
        "flow_speedup": flow.speedup,
    }

    lines += ["", f"batched serving, {BATCH_REQUESTS} independent requests:"]
    for groups in (1, 2, 4):
        group_engine = DistMsm(MultiGpuSystem(NUM_GPUS // groups), CONFIG)
        request = msm_job_from_estimate(group_engine, CURVE, CONSTRAINTS, label="req")
        batch = schedule_pipeline([request] * BATCH_REQUESTS, gpu_groups=groups)
        lines.append(
            f"  {groups} GPU group(s): makespan {batch.pipelined_ms:9.2f} ms  "
            f"({batch.speedup:.2f}x over serial, "
            f"{batch.throughput_rps:.1f} req/s, "
            f"mean latency {batch.mean_latency_ms:.2f} ms)"
        )
        metrics[f"batch{groups}_makespan_ms"] = batch.pipelined_ms
        metrics[f"batch{groups}_speedup"] = batch.speedup

    busiest = max(
        batch.engine_timeline.utilization().items(), key=lambda kv: kv[1]
    )
    lines.append(
        f"  busiest resource at 4 groups: {busiest[0]} ({busiest[1]:.0%} busy)"
    )
    return "\n".join(lines), metrics


def check_invariants(metrics: dict) -> None:
    """The pipelining claims the paper (and this PR) stand on."""
    # pipelined multi-MSM execution is strictly faster than serial
    assert metrics["pipelined_ms"] < metrics["serial_ms"], metrics
    assert metrics["flow_speedup"] > 1.0, metrics
    # batched serving beats running its stages back to back at every group
    # count (more groups raise the relative speedup — cross-request GPU
    # overlap — even where per-request GPU stages slow down)
    for groups in (1, 2, 4):
        assert metrics[f"batch{groups}_speedup"] > 1.0, (groups, metrics)
    assert metrics["batch4_speedup"] >= metrics["batch1_speedup"], metrics


def bench_record(metrics: dict) -> dict:
    """The BENCH json record: deterministic model metrics, gate-ready."""
    return {
        "bench": "pipeline_overlap",
        "curve": CURVE.name,
        "num_gpus": NUM_GPUS,
        "log2_constraints": CONSTRAINTS.bit_length() - 1,
        "batch_requests": BATCH_REQUESTS,
        "smoke": True,  # metrics are model outputs; one mode fits all
        **{k: round(v, 4) for k, v in metrics.items()},
    }


def write_bench_json(metrics: dict) -> "pathlib.Path":
    import json
    import pathlib

    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    path = results / "BENCH_pipeline_overlap.json"
    path.write_text(
        json.dumps(bench_record(metrics), indent=2, sort_keys=True) + "\n"
    )
    return path


def test_pipeline_overlap(benchmark):
    text, metrics = benchmark.pedantic(
        pipeline_overlap_report, rounds=1, iterations=1
    )
    from conftest import save_result

    save_result("pipeline_overlap", text)
    check_invariants(metrics)
    write_bench_json(metrics)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    text, metrics = pipeline_overlap_report()
    check_invariants(metrics)
    if smoke:
        print(
            f"bench-smoke: pipelined {metrics['pipelined_ms']:.2f} ms < "
            f"serial {metrics['serial_ms']:.2f} ms "
            f"({metrics['flow_speedup']:.2f}x); invariants hold"
        )
    import pathlib

    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    out = results / "pipeline_overlap.txt"
    out.write_text(text + "\n")
    json_path = write_bench_json(metrics)
    if not smoke:
        print(text)
    print(f"[saved to {out} and {json_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
