"""Cluster-scaling study: throughput/p99 vs node count, failover, autoscale.

Replays the canonical diurnal+burst two-tenant trace
(:func:`repro.cluster.trace.diurnal_burst_trace`) on 1/2/4/8-node
clusters (4 GPUs per node) and reports the SLO tail per node count, with
a node-kill failover column: each multi-node row is re-run with the last
node's GPUs all killed at the same mid-trace event boundary, the
heartbeat detecting it and the swallowed requests failing over — the
re-run is audited by :mod:`repro.verify.clustercheck` (zero double-served
requests) before its numbers are allowed into the table.

Three more sections ride along:

* a tenant-mix table at 4 nodes — weighted fair shares (2:1) plus a
  deadline class on one tenant, so the SLO-budget shed accounting shows;
* a functional toy-curve failover run — real payloads, one node killed,
  every surviving response checked bit-exact against ``naive_msm``
  (failover must not change a single result bit);
* an autoscale demo — the burst trace on an autoscaled cluster, showing
  the scale-up reaction and the cool-down holding.

Writes the table to ``results/cluster_scaling.txt`` and the gated record
to ``results/BENCH_cluster.json``; ``p99_scaling_speedup`` (p99 at 1
node / p99 at 4 nodes, simulated time, machine-speed free) is
regression-gated by ``benchmarks/compare_bench.py``.  Runs under
pytest-benchmark (``make bench``) and standalone:

    PYTHONPATH=src python benchmarks/bench_cluster.py [--smoke]

``--smoke`` (the ``make cluster-smoke`` CI hook) shrinks the trace and
drops the 8-node row while asserting the same invariants.
"""

from __future__ import annotations

import sys

from repro.cluster import (
    AutoscaleConfig,
    ClusterTrace,
    ProofCluster,
    TenantSpec,
    generate_requests,
    replay,
)
from repro.cluster.trace import diurnal_burst_trace
from repro.core.config import DistMsmConfig
from repro.curves.sampling import msm_instance
from repro.curves.toy import toy_curve
from repro.engine.faults import FaultPlan, GpuFailure
from repro.msm.naive import naive_msm
from repro.serve import MsmPayload, ProofRequest
from repro.verify.clustercheck import verify_cluster

GPUS_PER_NODE = 4
NODE_SWEEP = (1, 2, 4, 8)
RATE_RPS = 700.0
SEED = 7

#: fixed window so no auto-tune sweep runs inside the benchmark loop
CONFIG = DistMsmConfig(window_size=10)

TENANTS = (TenantSpec("acme", weight=2.0), TenantSpec("zkmart", weight=1.0))


def _study_trace(smoke: bool) -> ClusterTrace:
    return diurnal_burst_trace(
        name="cluster-study",
        seed=SEED,
        rate_rps=RATE_RPS,
        scale=0.4 if smoke else 1.0,
    )


def _cluster(nodes: int, tenants: tuple[TenantSpec, ...] = TENANTS) -> ProofCluster:
    return ProofCluster(
        nodes, gpus_per_node=GPUS_PER_NODE, config=CONFIG, tenants=tenants
    )


def _kill_last_node_plan(nodes: int, at_ms: float) -> FaultPlan:
    """Every GPU of the last node dies at the same event boundary."""
    first = (nodes - 1) * GPUS_PER_NODE
    return FaultPlan.of(
        *(GpuFailure(at_ms, g) for g in range(first, first + GPUS_PER_NODE))
    )


def _node_sweep(lines: list[str], metrics: dict, trace: ClusterTrace, smoke: bool) -> None:
    sweep = NODE_SWEEP[:-1] if smoke else NODE_SWEEP
    requests = generate_requests(trace)
    kill_ms = trace.duration_ms * 0.3
    lines.append(
        f"node sweep — trace {trace.name!r} ({len(requests)} requests, "
        f"{trace.duration_ms:.0f} ms, peak {RATE_RPS:.0f} req/s), "
        f"{GPUS_PER_NODE} GPUs/node, least-loaded routing"
    )
    lines.append(
        f"  {'nodes':>5}  {'served':>6}  {'shed':>4}  {'thr':>8}  "
        f"{'p50':>8}  {'p95':>8}  {'p99':>9}  "
        f"{'p99+kill':>9}  {'failovers':>9}"
    )
    for nodes in sweep:
        result = _cluster(nodes).serve(list(requests))
        m = result.metrics
        metrics[f"n{nodes}_p99_ms"] = m.p99_ms
        metrics[f"n{nodes}_thr_rps"] = m.throughput_rps
        metrics[f"n{nodes}_shed"] = m.shed_count()
        if nodes > 1:
            killed = _cluster(nodes).serve(
                list(requests), faults=_kill_last_node_plan(nodes, kill_ms)
            )
            audit = verify_cluster(
                killed, subject=f"{nodes}-node kill run", eps=1e-6
            )
            double = sum(
                1 for v in audit.all_violations() if "served by" in v.message
            )
            metrics[f"n{nodes}_kill_p99_ms"] = killed.metrics.p99_ms
            metrics[f"n{nodes}_kill_failovers"] = killed.metrics.failover_count
            metrics[f"n{nodes}_kill_violations"] = len(audit.all_violations())
            metrics[f"n{nodes}_kill_double_serves"] = double
            kill_p99 = f"{killed.metrics.p99_ms:>9.3f}"
            kill_fo = f"{killed.metrics.failover_count:>9d}"
        else:
            kill_p99, kill_fo = f"{'—':>9}", f"{'—':>9}"
        lines.append(
            f"  {nodes:>5}  {m.served:>6}  {m.shed_count():>4}  "
            f"{m.throughput_rps:>6.1f}/s  {m.p50_ms:>8.3f}  {m.p95_ms:>8.3f}  "
            f"{m.p99_ms:>9.3f}  {kill_p99}  {kill_fo}"
        )
    # scaling claims, in simulated time (machine speed cancels)
    metrics["p99_scaling_speedup"] = metrics["n1_p99_ms"] / metrics["n4_p99_ms"]
    metrics["thr_scaling_1_to_4"] = (
        metrics["n4_thr_rps"] / metrics["n1_thr_rps"]
    )
    lines.append(
        f"  1 -> 4 nodes: p99 {metrics['p99_scaling_speedup']:.2f}x lower, "
        f"throughput {metrics['thr_scaling_1_to_4']:.2f}x"
    )


def _tenant_mix(lines: list[str], metrics: dict, trace: ClusterTrace) -> None:
    """Weighted shares and a deadline class, at 4 nodes."""
    tenants = (
        TenantSpec("acme", weight=2.0),
        TenantSpec("zkmart", weight=1.0, deadline_class_ms=60.0),
    )
    result = _cluster(4, tenants=tenants).serve(generate_requests(trace))
    lines += ["", "tenant mix at 4 nodes — acme weight 2.0, zkmart weight 1.0 "
              "with a 60 ms deadline class:"]
    for tenant, stats in sorted(result.metrics.per_tenant().items()):
        lines.append(
            f"  {tenant:<8s} served {stats['served']:>4d}  "
            f"shed {stats['shed']:>3d}  p50 {stats['p50_ms']:>8.3f}  "
            f"p99 {stats['p99_ms']:>8.3f} ms  "
            f"violations {stats['deadline_violations']}"
        )
        metrics[f"tenant_{tenant}_served"] = stats["served"]
        metrics[f"tenant_{tenant}_shed"] = stats["shed"]


def _functional_failover(lines: list[str], metrics: dict, count: int) -> None:
    """Toy-curve payloads, one node killed: bit-exact across failover."""
    toy = toy_curve()
    cfg = DistMsmConfig(window_size=4, threads_per_block=32, points_per_thread=4)
    requests, expected = [], {}
    for i in range(count):
        scalars, points = msm_instance(toy, 16, seed=200 + i)
        # simultaneous arrivals so the load spreads over both nodes and
        # node 1 genuinely has work in flight when it dies
        requests.append(
            ProofRequest(
                req_id=i,
                curve=toy,
                n=16,
                arrival_ms=0.0,
                payload=MsmPayload(tuple(scalars), tuple(points)),
                label=f"func{i}",
                tenant="acme" if i % 2 else "zkmart",
            )
        )
        expected[i] = naive_msm(scalars, points, toy)
    cluster = ProofCluster(2, gpus_per_node=2, config=cfg, tenants=TENANTS)
    # global GPUs 2 and 3 are node 1's: the box dies just after dispatch
    result = cluster.serve(
        requests, faults=FaultPlan.of(GpuFailure(0.05, 2), GpuFailure(0.05, 3))
    )
    audit = verify_cluster(result, subject="functional failover", eps=1e-6)
    exact = sum(
        1 for r in result.records if r.result == expected[r.req_id]
    )
    lines += [
        "",
        f"functional failover — toy curve, {count} payload requests on 2 "
        f"nodes, node 1 killed at 0.05 ms:",
        f"  {exact}/{len(result.records)} responses bit-exact against the "
        f"naive reference across {result.metrics.failover_count} failovers; "
        f"cluster audit: {len(audit.all_violations())} violations",
    ]
    metrics["functional_served"] = len(result.records)
    metrics["functional_exact"] = exact
    metrics["functional_failovers"] = result.metrics.failover_count
    metrics["functional_violations"] = len(audit.all_violations())


def _autoscale_demo(lines: list[str], metrics: dict, smoke: bool) -> None:
    """The burst trace on an autoscaled cluster: ramp up, hold, no flap."""
    trace = diurnal_burst_trace(
        name="autoscale-demo",
        seed=SEED + 1,
        rate_rps=RATE_RPS,
        scale=0.4 if smoke else 1.0,
    )
    cluster = ProofCluster(
        4,
        gpus_per_node=GPUS_PER_NODE,
        config=CONFIG,
        tenants=TENANTS,
        autoscale=AutoscaleConfig(
            min_nodes=1,
            max_nodes=4,
            control_interval_ms=10.0,
            queue_high=4.0,
            queue_low=0.5,
            cooldown_ms=40.0,
            provision_ms=20.0,
            down_stable_ticks=3,
        ),
    )
    result = replay(cluster, trace)
    m = result.metrics
    actions = [d for d in result.scale_decisions if d.action != "hold"]
    lines += [
        "",
        f"autoscale demo — trace {trace.name!r}, 1..4 nodes, 10 ms control "
        f"interval, 40 ms cooldown:",
        f"  {m.render()}",
        f"  {m.scale_ups} scale-ups, {m.scale_downs} scale-downs; actions:",
    ]
    for d in actions[:8]:
        lines.append(
            f"    t={d.at_ms:>7.1f} ms  {d.action:<4s} {d.active} -> "
            f"{d.target}  ({d.reason})"
        )
    metrics["autoscale_scale_ups"] = m.scale_ups
    metrics["autoscale_scale_downs"] = m.scale_downs
    metrics["autoscale_p99_ms"] = m.p99_ms


def cluster_report(smoke: bool = False) -> tuple[str, dict]:
    """Build the cluster-scaling table and its gated metrics."""
    lines: list[str] = [
        "Cluster serving study — sharded proof serving on the event engine",
        "",
    ]
    metrics: dict = {}
    trace = _study_trace(smoke)
    _node_sweep(lines, metrics, trace, smoke)
    _tenant_mix(lines, metrics, trace)
    _functional_failover(lines, metrics, 6 if smoke else 10)
    _autoscale_demo(lines, metrics, smoke)
    return "\n".join(lines), metrics


def check_invariants(metrics: dict) -> None:
    """The cluster claims this PR stands on."""
    # scaling: p99 must improve 1 -> 4 nodes under the diurnal+burst trace
    assert metrics["p99_scaling_speedup"] > 1.0, metrics
    # node-kill runs: audited clean, zero double-serves, failover happened
    for nodes in (2, 4):
        assert metrics[f"n{nodes}_kill_violations"] == 0, metrics
        assert metrics[f"n{nodes}_kill_double_serves"] == 0, metrics
        assert metrics[f"n{nodes}_kill_failovers"] >= 0, metrics
    # functional failover is bit-exact and audited clean
    assert metrics["functional_served"] > 0, metrics
    assert metrics["functional_exact"] == metrics["functional_served"], metrics
    assert metrics["functional_violations"] == 0, metrics
    assert metrics["functional_failovers"] >= 1, metrics
    # the autoscaler reacted to the burst
    assert metrics["autoscale_scale_ups"] >= 1, metrics


def write_output(text: str, metrics: dict, smoke: bool) -> "pathlib.Path":
    import json
    import pathlib

    results = pathlib.Path(__file__).resolve().parent.parent / "results"
    results.mkdir(exist_ok=True)
    (results / "cluster_scaling.txt").write_text(text + "\n")
    payload = {"bench": "cluster", "smoke": smoke, "metrics": metrics}
    path = results / "BENCH_cluster.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def test_cluster(benchmark):
    text, metrics = benchmark.pedantic(cluster_report, rounds=1, iterations=1)
    from conftest import save_result

    save_result("cluster_scaling", text)
    write_output(text, metrics, smoke=False)
    check_invariants(metrics)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    text, metrics = cluster_report(smoke=smoke)
    check_invariants(metrics)
    path = write_output(text, metrics, smoke=smoke)
    if smoke:
        print(
            f"cluster-smoke: p99 {metrics['p99_scaling_speedup']:.2f}x lower "
            f"1->4 nodes, kill runs audited clean "
            f"(0 double-serves), functional "
            f"{metrics['functional_exact']}/{metrics['functional_served']} "
            f"bit-exact across {metrics['functional_failovers']} failovers, "
            f"{metrics['autoscale_scale_ups']} autoscale up(s)"
        )
    else:
        print(text)
    print(f"[saved to {path.parent / 'cluster_scaling.txt'} and {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
