"""Compare run records of a parent commit against a change.

Usage (from the repository root)::

    python3 benchmarks/suite/compare.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is a ``run.py --out`` record.  Run the two sides alternately
with the same settings, at least ten times each; the i-th parent record
is paired with the i-th change record.  For every workload and
end-to-end metric the script prints each side's median and quartiles and
a verdict, applying the bounds in ``BENCHMARK.json``:

* ``unresolved`` — fewer than 10 pairs, so no verdict is drawn;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``win`` — the change is better in at least 9 of 10 pairs (ties count
  for neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` — the parent's own spread exceeds the bound, so no
  change within the bound can be told from noise; but when every change
  run reads better than every parent run, the verdict is ``same``;
* ``same`` — otherwise: the change is no worse than the bound allows.

It also flags any rise in ``failed_frac`` and, for records with the
per-layer pass, any difference in the exact modelled metrics
(``model.*``, ``counters.*``) between records of the same seed: those
are deterministic, so a difference is a behaviour change to explain.
Exits 1 on a regression or a rise in failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9
MIN_PAIRS = 10
EXACT_PREFIXES = ("model.", "counters.")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """The comparison rule for one (workload, metric) pair."""
    sign = 1.0 if lower else -1.0  # sign * (x - y) > 0 means x is worse than y
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved"
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    scale = abs(pmed) or 1.0
    if sign * (cmed - pmed) / scale > bound:
        return "REGRESSION"
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if wins >= WIN_SHARE * len(pairs) and sign * (cmed - pmed) < 0 and abs(cmed - pmed) > p3 - p1:
        return "win"
    if (p3 - p1) / scale > bound:
        better = all(sign * (c - p) < 0 for c in change for p in parent)
        return "same" if better else "unresolved"
    return "same"


def compare(parents: list[dict], changes: list[dict], bench: dict) -> tuple[list[str], bool]:
    """Report lines, and whether anything got worse."""
    lines: list[str] = []
    worse = False
    records = parents + changes
    for name in [w for w in parents[0]["workloads"] if all(w in r["workloads"] for r in records)]:
        p_recs = [r["workloads"][name] for r in parents]
        c_recs = [r["workloads"][name] for r in changes]
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            p_vals = [r["metrics"][metric] for r in p_recs if metric in r["metrics"]]
            c_vals = [r["metrics"][metric] for r in c_recs if metric in r["metrics"]]
            if not p_vals or not c_vals:
                continue
            v = verdict(p_vals, c_vals, spec["bound"], spec["better"] == "lower")
            worse = worse or v == "REGRESSION"
            (p1, pm, p3), (c1, cm, c3) = quartiles(p_vals), quartiles(c_vals)
            lines.append(
                f"{name:24s} {metric:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}] n={len(p_vals)}"
                f"  change {cm:.4g} [{c1:.4g}, {c3:.4g}] n={len(c_vals)}"
                f"  {100 * (cm - pm) / pm:+.1f}% (bound {100 * spec['bound']:.0f}%)  {v}"
            )
        p_fail = max(r["failed_frac"] for r in p_recs)
        c_fail = max(r["failed_frac"] for r in c_recs)
        if c_fail > p_fail:
            worse = True
            lines.append(f"{name:24s} failed_frac ROSE {p_fail:.4g} -> {c_fail:.4g}")
        lines.extend(_exact_changes(name, parents, changes))
    return lines, worse


def _exact_changes(name: str, parents: list[dict], changes: list[dict]) -> list[str]:
    by_seed = {r["header"]["seed"]: r["workloads"][name]["metrics"] for r in parents}
    out = []
    for r in changes:
        before = by_seed.get(r["header"]["seed"])
        after = r["workloads"][name]["metrics"]
        if before is None:
            continue
        for metric in sorted(after):
            exact = metric.startswith(EXACT_PREFIXES) and metric in before
            if exact and before[metric] != after[metric]:
                out.append(
                    f"{name:24s} {metric} CHANGED {before[metric]!r} -> {after[metric]!r}"
                    f" (seed {r['header']['seed']}: a behaviour change to explain)"
                )
    return sorted(set(out))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parents = [json.loads(p.read_text()) for p in args.parent]
    changes = [json.loads(p.read_text()) for p in args.change]
    lines, worse = compare(parents, changes, bench)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
