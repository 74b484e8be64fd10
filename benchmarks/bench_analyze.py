"""Static-analysis benchmark: rule counts and wall time per family.

Usage::

    PYTHONPATH=src python benchmarks/bench_analyze.py [--smoke]

Runs the full ``repro.analyze`` pass over ``src/repro`` — once per family
so the cost split is visible — and writes ``results/BENCH_analyze.json``:
files analyzed, discharged checks, finding counts per rule, and the wall
time of each family plus the whole pass.  Timing lives here and not in
the analyzer because the analyzer scans its own source: a
``time.perf_counter()`` call inside ``src/repro`` would trip its own
``det-wall-clock`` rule.

The exit status mirrors the CLI contract: non-zero if the tree is dirty,
so a regression cannot hide behind the benchmark.  ``--smoke`` runs the
source families only (the program families import and search the kernel
DAG schedule space, which dominates the full run).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.analyze import FAMILIES, analyze_paths

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def timed_analysis(families: tuple[str, ...]) -> dict:
    """Run each family separately, then the combined pass, all timed."""
    per_family: dict[str, dict] = {}
    for family in families:
        start = time.perf_counter()
        report = analyze_paths(paths=[SRC_ROOT], families=(family,))
        elapsed = time.perf_counter() - start
        per_family[family] = {
            "wall_ms": round(elapsed * 1e3, 3),
            "files": report.files,
            "checks": len(report.checks),
            "findings": len(report.findings),
        }

    start = time.perf_counter()
    combined = analyze_paths(paths=[SRC_ROOT], families=families)
    total_ms = (time.perf_counter() - start) * 1e3

    return {
        "bench": "analyze",
        "root": "src/repro",
        "families": list(families),
        "files": combined.files,
        "checks": len(combined.checks),
        "ok": combined.ok,
        "active_findings": len(combined.findings),
        "counts_by_rule": combined.counts_by_rule(),
        "per_family": per_family,
        "total_wall_ms": round(total_ms, 3),
    }


def write_output(payload: dict) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_analyze.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def test_analyze_benchmark(benchmark):
    payload = benchmark.pedantic(
        timed_analysis, args=(FAMILIES,), rounds=1, iterations=1
    )
    assert payload["ok"], payload["counts_by_rule"]
    assert payload["files"] > 100
    write_output(payload)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    families = ("determinism", "units") if smoke else FAMILIES
    payload = timed_analysis(families)
    path = write_output(payload)
    label = "analyze-smoke" if smoke else "analyze"
    print(
        f"{label}: {payload['files']} files, {payload['checks']} checks, "
        f"{payload['active_findings']} findings in "
        f"{payload['total_wall_ms']:.1f} ms"
    )
    for family, stats in payload["per_family"].items():
        print(
            f"  {family:<12} {stats['wall_ms']:>9.1f} ms  "
            f"{stats['checks']} checks, {stats['findings']} findings"
        )
    print(f"[saved to {path}]")
    return 0 if payload["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
