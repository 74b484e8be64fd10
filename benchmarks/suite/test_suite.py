"""Self-test of the benchmark suite at tiny sizes.

Run from the repository root::

    python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro.curves.params import curve_by_name  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: the layers each workload exercises (README "How the metrics interact")
MSM_LAYERS = {"distmsm", "digits", "scatter", "bucket_sum", "combine", "reduce"}
SERVING_LAYERS = {
    "cluster.router", "cluster.node", "serve", "plancache", "modelcheck", "engine", "estimate",
}
WORKS_ON = {
    "msm-toy-2e20": MSM_LAYERS | {"encode", "msm_timeline"},
    "msm-bls-2e12": MSM_LAYERS | {"msm_timeline"},
    "msm-bls-2e10-chaos": MSM_LAYERS | {"outsource", "modelcheck", "engine"},
    "cluster-diurnal": SERVING_LAYERS,
    "cluster-diurnal-chaos": SERVING_LAYERS,
}


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced(request):
    """(workload, untraced result, traced result, its call ledger)."""
    wl = workloads.build(request.param, seed=3, tiny=True)
    wl.start()
    first = wl.call()
    with ledger.Ledger() as led:
        result, call = led.run(wl.call)
    return wl, first, result, call


def test_traced_results_are_bit_identical(traced):
    wl, first, result, _ = traced
    assert wl.digest(result) == wl.digest(first)
    assert wl.model(result) == wl.model(first)


def test_first_call_passes_its_audit(traced):
    wl, first, _, _ = traced
    assert wl.audit(first) == []
    assert wl.failures(first) == 0


def test_self_times_sum_to_the_total(traced):
    _, _, _, call = traced
    assert sum(call.self_ns.values()) == call.total_ns
    assert all(v >= 0 for v in call.self_ns.values())


def test_mapped_layers_do_work(traced):
    wl, _, _, call = traced
    idle = sorted(layer for layer in WORKS_ON[wl.name] if call.calls[layer] == 0)
    assert idle == [], f"{wl.name}: no calls reached {idle}"


def test_wrappers_are_restored():
    originals = {t: ledger._resolve(t)[2] for ts in ledger.LAYERS.values() for t in ts}
    simulate = originals["repro.engine.timeline:simulate"]
    late = types.ModuleType("repro._late_import")
    with ledger.Ledger():
        assert ledger.leaked_wrappers()
        # a module first imported during the pass binds the wrapper
        late.simulate = sys.modules["repro.engine.timeline"].simulate
        sys.modules[late.__name__] = late
    try:
        assert ledger.leaked_wrappers() == []
        assert late.simulate is simulate
        assert sys.modules["repro.core.distmsm"].simulate is simulate
        assert {t: ledger._resolve(t)[2] for t in originals} == originals
    finally:
        del sys.modules[late.__name__]


def test_per_layer_metrics_reconcile_and_match_benchmark_json():
    wl = workloads.build("cluster-diurnal", seed=3, tiny=True)
    wl.start()
    first = wl.call()
    tally = worker.Tally(wl.ops_per_call)

    def check(result, what):
        tally.record([] if wl.digest(result) == wl.digest(first) else [what])

    m = worker.traced_pass(wl, check, [1.0], [1.0], [0.035], tally)
    assert tally.problems == [] and tally.failed == 0
    assert [(s["name"], s["unit"]) for s in BENCH["per_layer"]] == [
        (name, run.unit(name)) for name in m
    ]
    layer_sum = sum(m[f"{layer}.self_s"] for layer in ledger.LAYER_NAMES)
    assert math.isclose(layer_sum, m["trace.total_s"], rel_tol=1e-9)
    assert math.isclose(sum(m[f"{layer}.share"] for layer in ledger.LAYER_NAMES), 1.0)


def test_benchmark_json_describes_the_suite():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [(s["name"], s["unit"]) for s in BENCH["end_to_end"]] == [
        ("call_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")
    ]
    assert all(s["unit"] == run.unit(s["name"]) for s in BENCH["end_to_end"])
    setup = next(s for s in BENCH["end_to_end"] if s["name"] == "setup_s")
    assert setup["bound"] == max(s["bound"] for s in BENCH["end_to_end"])


def test_chaos_plan_is_seeded_and_has_one_fault_of_each_kind():
    curve = curve_by_name("BLS12-381")
    plan = workloads.chaos_plan(curve, 64, 8, seed=5)
    assert plan == workloads.chaos_plan(curve, 64, 8, seed=5)
    kinds = sorted(type(e).__name__ for e in plan.events)
    assert kinds == ["ByzantineWorker", "GpuFailure", "Straggler", "TransferError"]
    gpus = [e.gpu_id for e in plan.events if hasattr(e, "gpu_id")]
    assert len(set(gpus)) == 3


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_one_result_line(trace, section):
    proc = _run(["--tiny", "--workload", "cluster-diurnal", "--seed", "4", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [s["name"] for s in BENCH[section]]


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__", "runs"))
    proc = _run(["--workload", "cluster-diurnal", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_crashed_worker_still_ends_with_the_result_line(monkeypatch, capsys):
    def spawn(args, deadline):
        raise RuntimeError("worker exited 1")

    monkeypatch.setattr(run, "spawn", spawn)
    assert run.main(["--tiny", "--workload", "cluster-diurnal", "--workload", "msm-bls-2e12"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}


def _record(seed: int, call_s: float, failed_frac: float = 0.0) -> dict:
    return {
        "header": {"seed": seed},
        "workloads": {"w": {"metrics": {"call_s": call_s}, "failed_frac": failed_frac}},
    }


CALL_ONLY = {"end_to_end": [{"name": "call_s", "unit": "s", "better": "lower", "bound": 0.1}]}
NOISE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
TIGHT = [1.0 + 0.001 * i for i in range(10)]
# spreads wider than the 10% bound
LOW_TAIL = [0.8, 0.8, 0.8, 0.85, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
HIGH_TAIL = [0.9, 0.9, 0.9, 1.0, 1.0, 1.0, 1.0, 1.3, 1.3, 1.3]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        (NOISE, [x * 0.8 for x in NOISE], "win"),
        (NOISE, [x * 1.3 for x in NOISE], "REGRESSION"),
        (NOISE, list(NOISE[::-1]), "same"),
        # every change run is worse, but the median is within the bound
        (TIGHT, [x * 1.02 for x in TIGHT], "same"),
        # every change run is better, by less than the parent's spread
        (NOISE, [x - 0.021 for x in NOISE], "same"),
        # a wide spread leaves a slowdown within the bound unresolved,
        # even when every change run is worse ...
        (LOW_TAIL, [1.05] * 10, "unresolved"),
        # ... but not a change that reads better in every run
        (HIGH_TAIL, [0.85] * 10, "same"),
        # too few pairs to decide either way
        (NOISE[:9], [x * 1.3 for x in NOISE[:9]], "unresolved"),
        (NOISE[:9], [x * 0.8 for x in NOISE[:9]], "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    parents = [_record(i, v) for i, v in enumerate(parent)]
    changes = [_record(i, v) for i, v in enumerate(change)]
    lines, worse = compare.compare(parents, changes, CALL_ONLY)
    assert lines[0].endswith(expected)
    assert worse == (expected == "REGRESSION")


def test_compare_reports_unresolved_and_failures():
    wide = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.75, 1.2, 0.9]
    parents = [_record(i, v) for i, v in enumerate(wide)]
    changes = [_record(i, v * 1.05, failed_frac=0.01 * (i == 0)) for i, v in enumerate(wide)]
    lines, worse = compare.compare(parents, changes, CALL_ONLY)
    assert lines[0].endswith("unresolved")
    assert "failed_frac ROSE" in lines[1]
    assert worse
