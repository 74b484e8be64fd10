"""CLI for the static analyzer: ``python -m repro.analyze [paths...]``.

Exit status is 0 iff no finding remains — the contract ``make analyze``
and the verify fixtures rely on.  The CLI deliberately measures no wall
time (it would trip its own ``det-wall-clock`` rule when analyzing this
package); timing lives in ``benchmarks/bench_analyze.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analyze.driver import analyze_paths, default_root
from repro.analyze.registry import FAMILIES, all_rules


def _list_rules() -> str:
    lines = []
    for family in FAMILIES:
        lines.append(f"{family}:")
        for rule in all_rules():
            if rule.family == family:
                lines.append(f"  {rule.name} [{rule.scope}]")
                lines.append(f"      {rule.description}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static analysis: determinism lint, unit-consistency "
        "dataflow, interval abstract interpretation of the kernel DAGs, "
        "and pre-flight task-plan model checking.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="Python files or directories to analyze "
        "(default: the repro package)",
    )
    parser.add_argument(
        "--families",
        help="comma-separated subset of: " + ", ".join(FAMILIES),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        help="write the report to this file (text status still printed)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also list every discharged check",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    families = None
    if args.families:
        families = tuple(f.strip() for f in args.families.split(",") if f.strip())

    report = analyze_paths(
        paths=args.paths or [default_root()],
        families=families,
    )
    rendered = report.to_json() if args.json else report.render(args.verbose)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(rendered + "\n")
        print(report.render(verbose=False).splitlines()[-1])
    else:
        print(rendered)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
