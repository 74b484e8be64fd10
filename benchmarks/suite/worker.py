"""Measure one workload in one fresh process; ``run.py`` starts it.

The process first times its own set-up: ``import`` of the system under
test, construction, and the first (cold) call.  With ``--setup-only`` it
stops there.  Otherwise it makes timed calls for ``--seconds`` seconds
(at least three), each of which must reproduce the first call's exact
outputs, reads its peak memory, and only then runs the workload's
independent audit (the oracle) on the last timed result, so the audit's
own memory and time stay out of the metrics.  With ``--trace 1`` it adds
a separate traced pass that yields the per-layer ledger.  Every wall
time is also reported rescaled to the host speed sampled while it ran
(see ``hostref``).

The last line of stdout is one JSON object; errors go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable

from hostref import HostSpeed

MIN_CALLS = 3


class Tally:
    """Operations attempted and failed, plus what went wrong."""

    def __init__(self, ops_per_call: int) -> None:
        self.ops = ops_per_call
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], failed_ops: int = 0) -> None:
        self.attempted += self.ops
        if problems:
            self.failed += self.ops
            self.problems.extend(problems)
        else:
            self.failed += failed_ops

    def fail_all(self, problems: list[str]) -> None:
        """The audited outputs were wrong: so was every call that matched them."""
        self.failed = self.attempted
        self.problems.extend(problems)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="self-test instance sizes")
    args = parser.parse_args(argv)

    with HostSpeed() as host:
        start = time.perf_counter()
        import workloads  # the system under test is imported here, timed

        import_s = time.perf_counter() - start
        start = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, args.tiny)
        gen_s = time.perf_counter() - start
        start = time.perf_counter()
        wl.start()
        first = wl.call()
        setup_wall_s = import_s + time.perf_counter() - start
    out: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_call": wl.ops_per_call,
        "import_s": import_s,
        "gen_s": gen_s,
        "setup_wall_s": setup_wall_s,
        "setup_s": host.normalized(setup_wall_s),
        "digest": wl.digest(first),
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tally = Tally(wl.ops_per_call)
    tally.record([], wl.failures(first))
    expected = out["digest"]
    del first  # peak memory counts one live result, as in the timed calls

    def check(result: Any, what: str) -> bool:
        if wl.digest(result) != expected:
            tally.record([f"{args.workload}: {what} call differs from the first call"])
            return False
        tally.record([], wl.failures(result))
        return True

    # the inputs live for the whole run: keep the collector from
    # re-scanning them around every timed call
    gc.collect()
    gc.freeze()

    walls: list[float] = []
    norms: list[float] = []
    kernels: list[float] = []
    last = None
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_CALLS or time.perf_counter() < deadline:
        last = None
        gc.collect()
        try:
            with HostSpeed() as host:
                start = time.perf_counter()
                result = wl.call()
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            tally.record([f"{args.workload}: timed call raised"])
            break
        walls.append(wall)
        norms.append(host.normalized(wall))
        kernels.append(host.kernel_s)
        if check(result, "timed"):
            last = result
        del result
    out.update(
        call_wall_s=walls,
        call_s=norms,
        kernel_s=kernels,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )

    if args.trace and walls:
        out["traced_calls"] = wl.traced_calls
        out["per_layer"] = traced_pass(wl, check, walls, norms, kernels, tally)
    if last is None:
        # the run has failed already: the last timed call raised or differed
        tally.fail_all([f"{args.workload}: no timed result left to audit"])
    else:
        # every passing call reproduced the first call's outputs exactly,
        # so auditing one of them audits them all
        start = time.perf_counter()
        problems = wl.audit(last)
        out["oracle_s"] = time.perf_counter() - start
        if problems:
            tally.fail_all(problems)
    out.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    print(json.dumps(out))
    return 0


def traced_pass(
    wl: Any,
    check: Callable[[Any, str], bool],
    walls: list[float],
    norms: list[float],
    kernels: list[float],
    tally: Tally,
) -> dict[str, float]:
    """Per-layer metrics from ``wl.traced_calls`` calls under the ledger.

    The layer numbers come from the median call (by total), so its self
    times sum to ``trace.total_s`` exactly.
    """
    import ledger

    traced = []
    with ledger.Ledger() as led:
        for _ in range(wl.traced_calls):
            gc.collect()
            with HostSpeed() as host:
                result, call = led.run(wl.call)
            traced.append((call, host.normalized(call.total_ns / 1e9)))
            check(result, "traced")
            model = wl.model(result)
            del result
    leaks = ledger.leaked_wrappers()
    if leaks:
        tally.problems.append(f"ledger wrappers left behind: {leaks}")
        tally.failed += tally.ops

    call = sorted(traced, key=lambda t: t[0].total_ns)[len(traced) // 2][0]
    m: dict[str, float] = {}
    for layer in ledger.LAYER_NAMES:
        m[f"{layer}.self_s"] = call.self_ns[layer] / 1e9
        m[f"{layer}.share"] = call.self_ns[layer] / call.total_ns
        m[f"{layer}.calls"] = call.calls[layer]
    counts = call.counts
    m["engine.tasks"] = counts["engine.tasks"]
    m["engine.tasks_per_request"] = counts["engine.tasks"] / wl.ops_per_call
    m["modelcheck.tasks"] = counts["modelcheck.tasks"]
    m["scatter.points"] = counts["scatter.points"]
    lookups = counts["plancache.lookups"]
    m["plancache.hit_rate"] = counts["plancache.hits"] / lookups if lookups else 0.0
    m.update(model)
    m["trace.total_s"] = call.total_ns / 1e9
    m["trace.overhead_frac"] = (
        statistics.median(n for _, n in traced) / statistics.median(norms) - 1.0
    )
    m["host.kernel_s"] = statistics.median(kernels)
    m["host.call_wall_s"] = statistics.median(walls)
    return m


if __name__ == "__main__":
    sys.exit(main())
