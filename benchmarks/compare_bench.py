"""Benchmark regression gate: current BENCH_*.json vs committed baselines.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py [--tolerance 0.25]

For every baseline record under ``benchmarks/baselines/``, loads the
matching ``results/BENCH_<name>.json`` (produced by the ``make ci`` smoke
benchmarks) and gates two kinds of metrics, found by walking the nested
record:

* keys ending in ``_speedup`` — ratios of old-vs-new implementations
  measured in the same process, so they cancel machine speed; the gate
  fails when the current ratio drops more than ``--tolerance`` (default
  25%) below the baseline;
* ``within_budget`` booleans — absolute wall-clock budgets the benchmark
  records (e.g. the 2^20-point MSM's 60 s CI budget); the gate fails if
  any went false.

Raw ``*_s`` / ``*_ms`` wall times are reported for context but never
gated — they track the machine, not the code.  A baseline whose
``smoke`` flag disagrees with the current record is a configuration
error (the numbers are not comparable) and fails loudly.

Exit status 0 when every gate holds, 1 otherwise — ``make bench-compare``
wires this into the CI chain.
"""

from __future__ import annotations

import json
import pathlib
import sys

BASELINE_DIR = pathlib.Path(__file__).resolve().parent / "baselines"
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

DEFAULT_TOLERANCE = 0.25


def walk_metrics(record: dict, prefix: str = "") -> dict[str, object]:
    """Flatten a nested record to ``section.key -> leaf value``."""
    flat: dict[str, object] = {}
    for key, value in record.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(walk_metrics(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def compare_record(
    name: str, baseline: dict, current: dict, tolerance: float
) -> list[str]:
    """All gate violations for one benchmark record (empty = pass)."""
    problems: list[str] = []
    if baseline.get("smoke") != current.get("smoke"):
        return [
            f"{name}: baseline smoke={baseline.get('smoke')} but current "
            f"smoke={current.get('smoke')} — regenerate the baseline with "
            f"the matching mode"
        ]

    base_flat = walk_metrics(baseline)
    cur_flat = walk_metrics(current)
    gated = 0
    for key, base_value in base_flat.items():
        if key.endswith("_speedup"):
            gated += 1
            cur_value = cur_flat.get(key)
            if not isinstance(cur_value, (int, float)):
                problems.append(f"{name}: {key} missing from current results")
                continue
            floor = float(base_value) * (1.0 - tolerance)
            if cur_value < floor:
                problems.append(
                    f"{name}: {key} regressed to {cur_value:.2f}x "
                    f"(baseline {float(base_value):.2f}x, floor {floor:.2f}x)"
                )
        elif key.endswith("within_budget"):
            gated += 1
            if cur_flat.get(key) is not True:
                problems.append(f"{name}: {key} is no longer true")
    if gated == 0:
        print(f"  {name}: no gated metrics in baseline (nothing to compare)")
    return problems


def main(argv: list[str]) -> int:
    tolerance = DEFAULT_TOLERANCE
    if "--tolerance" in argv:
        tolerance = float(argv[argv.index("--tolerance") + 1])

    baselines = sorted(BASELINE_DIR.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {BASELINE_DIR}; nothing to gate")
        return 0

    problems: list[str] = []
    for path in baselines:
        current_path = RESULTS_DIR / path.name
        if not current_path.exists():
            problems.append(
                f"{path.name}: no current record at {current_path} "
                f"(run the smoke benchmarks first)"
            )
            continue
        baseline = json.loads(path.read_text())
        current = json.loads(current_path.read_text())
        record_problems = compare_record(path.name, baseline, current, tolerance)
        if not record_problems:
            speedups = {
                k: v
                for k, v in walk_metrics(current).items()
                if k.endswith("_speedup")
            }
            detail = ", ".join(f"{k}={v:.2f}x" for k, v in speedups.items())
            print(f"  {path.name}: ok" + (f" ({detail})" if detail else ""))
        problems.extend(record_problems)

    if problems:
        print(f"bench-compare: {len(problems)} regression(s) at {tolerance:.0%} tolerance:")
        for p in problems:
            print(f"  FAIL {p}")
        return 1
    print(f"bench-compare: all {len(baselines)} baseline(s) hold at {tolerance:.0%} tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
