"""Golden DistMsm outputs across strategies, reduce placements and faults.

``tests/core/golden/distmsm_outputs.json`` pins, to the last float digit,
what each case's ``DistMsm.execute`` (toy curve) or ``DistMsm.estimate``
(BLS12-381) call returns: the point, ``time_ms``, the per-phase times, the
total and per-GPU counters, the fault and Byzantine reports, and a SHA-256
of the timeline (every span with its resource and stage label, every
failure and retry attempt).  Traced cases add a SHA-256 of the Chrome
trace.  The cases cross the three multi-GPU strategies with the host and
both GPU bucket-reduce schemes, signed digits, precompute and always-on
chunk verification, on 3 and 16 GPUs (uneven bucket splits), under five
fault plans: none, a death at t=0, a death with a straggler and transient
and permanent transfer errors, a ``wrong-result`` cheater, and a
``bit-flip`` cheater with a death.  Modelled time is deterministic, so any drift is a
behaviour change.  Regenerate after an intentional change with::

    PYTHONPATH=src python tests/core/test_golden_distmsm.py regen
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import curve_by_name
from repro.curves.sampling import msm_instance
from repro.curves.toy import toy_curve
from repro.engine.faults import (
    ByzantineWorker,
    FaultPlan,
    GpuFailure,
    Straggler,
    TransferError,
)
from repro.gpu.cluster import MultiGpuSystem
from repro.observe.tracer import Tracer

GOLDEN = Path(__file__).parent / "golden" / "distmsm_outputs.json"

TOY_N = 32
BLS_N = 1 << 14

#: the time unit the fault plans are scaled by: toy-curve executions
#: model sub-millisecond runs, the BLS12-381 estimates a few milliseconds
UNIT_MS = {"execute": 0.2, "estimate": 1.0}

STRATEGIES = ("bucket-split", "windows", "ndim")
REDUCES = ("cpu", "scan", "simd")
FAULTS = ("none", "death", "chaos", "cheat", "flip-death")


def fault_plan(mode: str, fault: str) -> FaultPlan:
    unit = UNIT_MS[mode]
    return {
        "none": FaultPlan(),
        "death": FaultPlan.of(GpuFailure(0.0, 1)),
        "chaos": FaultPlan.of(
            GpuFailure(0.5 * unit, 1),
            Straggler(0, 2.0),
            *(TransferError(0, t * unit) for t in (0.105, 0.285, 0.53, 1.045, 1.7)),
            TransferError(0, 3.2 * unit, transient=False),
        ),
        "cheat": FaultPlan.of(ByzantineWorker(2, mode="wrong-result", seed=5)),
        "flip-death": FaultPlan.of(
            ByzantineWorker(2, mode="bit-flip", seed=7), GpuFailure(0.0, 1)
        ),
    }[fault]


def _cases() -> list[tuple]:
    """``(mode, strategy, reduce, extra, gpus, fault)`` per case."""
    cases = []
    for mode in ("execute", "estimate"):
        for strategy in STRATEGIES:
            cases += [(mode, strategy, r, "", 3, f) for r in REDUCES for f in FAULTS]
            cases += [
                (mode, strategy, r, "", 16, f)
                for r in ("cpu", "simd") for f in ("none", "chaos")
            ]
            cases += [(mode, strategy, "simd", "", 16, f) for f in ("cheat", "flip-death")]
            for extra in ("signed", "precompute", "verify"):
                for reduce in ("cpu", "simd"):
                    cases += [
                        (mode, strategy, reduce, extra, 3, f)
                        for f in ("none", "flip-death")
                    ]
        cases += [(mode, "bucket-split", "cpu", "trace", 3, f) for f in ("none", "chaos")]
    # the auto-tuned window: a death also re-tunes for the survivors
    cases += [("estimate", "bucket-split", "cpu", "auto", 3, f) for f in ("none", "death")]
    return cases


CASES = {"-".join(str(part) for part in case if part != ""): case for case in _cases()}


@lru_cache(maxsize=1)
def _toy_instance():
    curve = toy_curve()
    return (curve, *msm_instance(curve, TOY_N, seed=61))


def _engine(mode, strategy, reduce, extra, gpus) -> DistMsm:
    config = dict(
        window_size=(4 if mode == "execute" else 10) if extra != "auto" else None,
        multi_gpu=strategy,
        bucket_reduce_on_cpu=reduce == "cpu",
        gpu_reduce="scan" if reduce == "cpu" else reduce,
        signed_digits=extra == "signed",
        precompute=extra == "precompute",
        verify_chunks=True if extra == "verify" else "auto",
    )
    if mode == "execute":
        config.update(threads_per_block=32, points_per_thread=4)
    return DistMsm(MultiGpuSystem(gpus), DistMsmConfig(**config))


def _timeline_digest(timeline) -> str:
    digest = hashlib.sha256()
    for s in timeline.spans.values():
        digest.update(repr((s.task, s.resource.name, s.start_ms, s.end_ms, s.stage)).encode())
    for f in timeline.failures:
        digest.update(
            repr((f.task, f.resource.name, f.at_ms, f.reason, f.start_ms, f.attempt)).encode()
        )
    for a in timeline.attempts:
        digest.update(
            repr((a.task, a.resource.name, a.start_ms, a.end_ms, a.attempt, a.retry_at_ms)).encode()
        )
    digest.update(repr(timeline.total_ms).encode())
    return digest.hexdigest()


def outcome(case_id: str) -> dict:
    mode, strategy, reduce, extra, gpus, fault = CASES[case_id]
    engine = _engine(mode, strategy, reduce, extra, gpus)
    plan = fault_plan(mode, fault)
    trace = Tracer(case_id) if extra == "trace" else None
    if mode == "execute":
        curve, scalars, points = _toy_instance()
        result = engine.execute(scalars, points, curve, faults=plan, trace=trace)
    else:
        result = engine.estimate(curve_by_name("BLS12-381"), BLS_N, faults=plan, trace=trace)
    point = result.point
    return {
        "point": None if point is None else [str(point.x), str(point.y), point.infinity],
        "window_size": result.window_size,
        "time_ms": result.time_ms,
        "times": result.times.as_dict(),
        "counters": result.counters.as_dict(),
        "per_gpu_counters": [c.as_dict() for c in result.per_gpu_counters],
        "fault_report": result.fault_report and result.fault_report.to_json(),
        "byzantine_report": result.byzantine_report and result.byzantine_report.to_json(),
        "timeline_sha256": _timeline_digest(result.timeline),
        "trace_sha256": trace and hashlib.sha256(trace.to_chrome_json().encode()).hexdigest(),
    }


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_outputs_match_golden(case_id):
    assert outcome(case_id) == _golden()[case_id], (
        f"{case_id} drifted from its golden; regenerate with: "
        f"PYTHONPATH=src python {__file__} regen"
    )


def test_golden_covers_every_case_and_each_fault_path():
    golden = _golden()
    assert sorted(golden) == sorted(CASES)
    faults = [json.loads(r["fault_report"]) for r in golden.values() if r["fault_report"]]
    byzantine = [
        json.loads(r["byzantine_report"]) for r in golden.values() if r["byzantine_report"]
    ]
    assert any(f["retries"] for f in faults)
    assert any(len(f["rounds"]) > 1 and f["dead_gpus"] for f in faults)
    assert any(f["replanned_window_size"] != f["window_size"] for f in faults)
    assert any(b["rejected"] for b in byzantine)
    assert any(b["verified"] and not b["cheaters"] for b in byzantine)


def regen() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {case_id: outcome(case_id) for case_id in sorted(CASES)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(record)} cases)")


if __name__ == "__main__":
    import sys

    if "regen" in sys.argv:
        regen()
    else:
        print(__doc__)
