"""Golden serving outcomes: a faulty cluster replay and two faulty server runs.

The files under ``tests/cluster/golden/`` pin, to the last float digit,
what three chaos runs produce on the simulated clock: latency percentiles,
which requests were served and which were shed (with reasons), each
served request's placement, retries and completion instant, the node
failovers and the quarantined GPUs.  Time is deterministic, so any drift
is a behaviour change.  Regenerate after an intentional change with::

    PYTHONPATH=src python tests/cluster/test_golden.py regen
"""

import json
from pathlib import Path

import pytest

from repro.cluster import ProofCluster, TenantSpec, diurnal_burst_trace, replay
from repro.core.config import DistMsmConfig
from repro.curves.params import curve_by_name
from repro.engine.faults import ByzantineWorker, FaultPlan, GpuFailure
from repro.gpu.cluster import MultiGpuSystem
from repro.serve import MsmProofServer, ServeConfig, poisson_trace
from repro.serve.server import serve_one_at_a_time

GOLDEN_DIR = Path(__file__).parent / "golden"

CLUSTER_NODES = 3
GPUS_PER_NODE = 2


def _slo(metrics) -> dict:
    return {
        "p50_ms": metrics.p50_ms,
        "p95_ms": metrics.p95_ms,
        "p99_ms": metrics.p99_ms,
        "served": metrics.served,
        "submitted": metrics.submitted,
        "deadline_violations": metrics.deadline_violations,
    }


def _shed(events) -> list:
    return sorted(
        [e.request.req_id, e.reason, e.at_ms] for e in events
    )


def cluster_outcome() -> dict:
    """A two-tenant replay: the last node dies mid-trace, node 1 cheats."""
    trace = diurnal_burst_trace(seed=11, rate_rps=900.0, scale=0.3)
    cluster = ProofCluster(
        CLUSTER_NODES,
        gpus_per_node=GPUS_PER_NODE,
        config=DistMsmConfig(window_size=10),
        tenants=(
            TenantSpec("acme", weight=2.0, deadline_class_ms=25.0),
            TenantSpec("zkmart", weight=1.0),
        ),
    )
    last = (CLUSTER_NODES - 1) * GPUS_PER_NODE
    kill_ms = 0.4 * trace.duration_ms
    faults = FaultPlan(
        tuple(GpuFailure(kill_ms, g) for g in range(last, last + GPUS_PER_NODE))
        + (ByzantineWorker(GPUS_PER_NODE + 1, seed=5),)
    )
    result = replay(cluster, trace, faults=faults)
    return {
        **_slo(result.metrics),
        "records": [
            [r.req_id, r.tenant, r.node_id, r.retries, r.complete_ms]
            for r in result.records
        ],
        "shed": _shed(result.shed),
        "failovers": [
            [f.req_id, f.from_node, f.to_node, f.death_ms, f.detect_ms]
            for f in result.failovers
        ],
        "quarantined": {
            str(node): sorted(res.quarantined.items())
            for node, res in sorted(result.node_results.items())
            if res.quarantined
        },
    }


def server_outcome() -> dict:
    """One 4-GPU server: GPU 1 dies early, GPU 2 cheats on every chunk."""
    bls = curve_by_name("BLS12-381")
    requests = poisson_trace(
        bls, count=24, rate_rps=900.0, seed=4, sizes=(1 << 14, 1 << 16),
        deadline_ms=12.0,
    )
    server = MsmProofServer(
        MultiGpuSystem(4),
        DistMsmConfig(window_size=10),
        ServeConfig(gpu_groups=2, max_batch_size=4, max_wait_ms=0.5),
    )
    faults = FaultPlan.of(GpuFailure(3.0, 1), ByzantineWorker(2, seed=9))
    result = server.serve(requests, faults=faults)
    return {
        **_slo(result.metrics),
        "records": [
            [r.req_id, r.group, r.retries, r.complete_ms] for r in result.records
        ],
        "shed": _shed(result.shed),
        "quarantined": sorted(result.quarantined.items()),
    }


def one_at_a_time_outcome() -> dict:
    """The one-at-a-time baseline: GPU 1 dies, GPU 3 cheats on every chunk.

    Each request's GPU stage waits on the previous request's first-attempt
    reduce, so once one first attempt is lost every later first attempt
    depends on a failed task: the run walks the server's restart path.
    """
    bls = curve_by_name("BLS12-381")
    requests = poisson_trace(
        bls, count=24, rate_rps=900.0, seed=7, sizes=(1 << 14, 1 << 16),
        deadline_ms=40.0,
    )
    faults = FaultPlan.of(GpuFailure(4.0, 1), ByzantineWorker(3, seed=2))
    result = serve_one_at_a_time(
        MultiGpuSystem(4),
        requests,
        DistMsmConfig(window_size=10, verify_chunks=True),
        faults=faults,
    )
    return {
        **_slo(result.metrics),
        "records": [
            [r.req_id, r.retries, r.start_ms, r.complete_ms]
            for r in result.records
        ],
        "shed": _shed(result.shed),
        "quarantined": sorted(result.quarantined.items()),
        "failures": len(result.timeline.failures),
        "makespan_ms": result.timeline.total_ms,
    }


GOLDENS = {
    "cluster_chaos.json": cluster_outcome,
    "one_at_a_time_chaos.json": one_at_a_time_outcome,
    "server_chaos.json": server_outcome,
}


def golden_json(name: str) -> str:
    return json.dumps(GOLDENS[name](), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_outcome_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_text()
    assert golden_json(name) == expected, (
        f"{name} drifted from its golden; regenerate with: "
        f"PYTHONPATH=src python {__file__} regen"
    )


def test_goldens_exercise_the_fault_paths():
    cluster = json.loads((GOLDEN_DIR / "cluster_chaos.json").read_text())
    assert cluster["failovers"] and cluster["quarantined"] and cluster["shed"]
    server = json.loads((GOLDEN_DIR / "server_chaos.json").read_text())
    assert server["quarantined"] and server["shed"]
    assert any(retries for _, _, retries, _ in server["records"])
    baseline = json.loads((GOLDEN_DIR / "one_at_a_time_chaos.json").read_text())
    assert baseline["quarantined"] and baseline["failures"]
    assert all(retries for _, retries, _, _ in baseline["records"])


def regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(GOLDENS):
        path = GOLDEN_DIR / name
        path.write_text(golden_json(name))
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "regen" in sys.argv:
        regen()
    else:
        print(__doc__)
