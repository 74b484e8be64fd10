"""Kernel-model memo benchmark: warm against cold ``DistMsm.estimate``.

Usage::

    PYTHONPATH=src python benchmarks/bench_estimate.py

Times one set of estimates two ways in one process and writes
``results/BENCH_estimate.json`` for the CI regression gate
(``benchmarks/compare_bench.py``):

* *warm*: the kernel model's per-process memos
  (``repro.gpu.timing.MODEL_CACHES``: spill plans, per-op costs,
  occupancy) hold every figure, as they do for every call after a
  process's first at a configuration;
* *cold*: the same estimates with every memo cleared before each of its
  calls — each memoized function is replaced by the function it wraps —
  so every model call plans its spills and derives its costs again, as
  each did before the memos existed.

Clearing the memos only once per estimate would time something else:
each estimate refills them at its first model call, and the ratio then
read 1.25-1.30x, so a build without any memo (1.0x) would still pass a
floor that the gate's 25% tolerance leaves below such a baseline.

The set is four honest estimates — four curves, 2 to 8 GPUs, their
window sizes already tuned — plus one recovered 8-GPU BLS12-381 estimate
(a death, a cheater and a straggler).  The window-size cache,
``_schedule_info`` and ``_montmul_word_ops`` stay warm on both sides.
Every cold estimate is asserted equal to its warm one (time, phases,
total and per-GPU counters, fault and Byzantine reports) before anything
is timed.

``estimate_speedup`` is the cold time over the warm time, medians over
rounds that alternate the two sides, with the collector off.
"""

from __future__ import annotations

import gc
import json
import pathlib
import statistics
import sys
import time
from contextlib import ExitStack
from unittest import mock

from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.engine.faults import ByzantineWorker, FaultPlan, GpuFailure, Straggler
from repro.gpu.cluster import MultiGpuSystem
from repro.gpu.timing import MODEL_CACHES

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: (curve, log2 n, GPUs, fault plan) per timed estimate
ESTIMATES = (
    ("BLS12-381", 16, 4, None),
    ("BN254", 20, 8, None),
    ("BLS12-377", 18, 2, None),
    ("MNT4753", 16, 4, None),
    (
        "BLS12-381", 16, 8,
        FaultPlan.of(GpuFailure(0.05, 5), ByzantineWorker(2, seed=1), Straggler(3, 2.0)),
    ),
)
ROUNDS = 15


def _memos_bypassed() -> ExitStack:
    """Every model memo swapped, in the module that calls it, for the
    function it wraps."""
    stack = ExitStack()
    for memo in MODEL_CACHES:
        module = sys.modules[memo.__module__]
        stack.enter_context(mock.patch.object(module, memo.__name__, memo.__wrapped__))
    return stack


def _outputs(result) -> tuple:
    return (
        result.window_size,
        result.time_ms,
        result.times,
        result.counters,
        result.per_gpu_counters,
        result.fault_report and result.fault_report.to_json(),
        result.byzantine_report and result.byzantine_report.to_json(),
    )


def _run(calls, cold: bool) -> tuple[float, list]:
    """Wall seconds of every estimate, and their outputs."""
    elapsed, outputs = 0.0, []
    with _memos_bypassed() if cold else ExitStack():
        for engine, curve, n, faults in calls:
            start = time.perf_counter()
            result = engine.estimate(curve, n, faults=faults)
            elapsed += time.perf_counter() - start
            outputs.append(_outputs(result))
    return elapsed, outputs


def bench_estimate() -> dict:
    calls = [
        (DistMsm(MultiGpuSystem(gpus)), curve_by_name(curve), 1 << log_n, faults)
        for curve, log_n, gpus, faults in ESTIMATES
    ]
    _, warm_outputs = _run(calls, cold=False)  # tunes every window
    _, cold_outputs = _run(calls, cold=True)
    assert cold_outputs == warm_outputs, "a cold estimate differs from its warm one"

    warm, cold = [], []
    gc.collect()
    gc.disable()
    try:
        for r in range(ROUNDS):
            first, second = (False, True) if r % 2 else (True, False)
            for side in (first, second):
                (cold if side else warm).append(_run(calls, cold=side)[0])
    finally:
        gc.enable()
    warm_s, cold_s = statistics.median(warm), statistics.median(cold)
    return {
        "bench": "estimate",
        "estimates": len(calls),
        "rounds": ROUNDS,
        "gc_disabled": True,
        "warm_ms": round(warm_s * 1e3, 3),
        "cold_ms": round(cold_s * 1e3, 3),
        "estimate_speedup": round(cold_s / warm_s, 2),
    }


def main(argv: list[str]) -> int:
    payload = bench_estimate()
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_estimate.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"estimate: {payload['estimates']} estimates, cold memos "
        f"{payload['cold_ms']:.2f} ms -> warm {payload['warm_ms']:.2f} ms "
        f"({payload['estimate_speedup']:.2f}x)"
    )
    print(f"[saved to {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
