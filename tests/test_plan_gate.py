"""The engine is the one run-time check on a task plan.

``Simulation.add`` rejects a duplicate task name or an unknown
dependency, and ``Simulation.timeline`` names the tasks stuck on a
dependency cycle.  What :func:`~repro.analyze.modelcheck.check_plan`
adds — the in-order-stream deadlock rule and the ``requires_alive``
warnings — cannot fire on a plan whose every dependency names an
earlier submission and that draws no warning.  These tests pin that
every production emitter builds such plans, and that a run loads
neither the analyzer nor the auditors.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze.modelcheck import check_plan
from repro.cluster import ProofCluster, TenantSpec, diurnal_burst_trace, replay
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.core.multi_msm import msm_job_from_estimate, schedule_pipeline
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
from repro.serve import MsmProofServer, ServeConfig, poisson_trace
from repro.serve.server import serve_one_at_a_time

BLS = curve_by_name("BLS12-381")
CLUSTER_NODES = 3
LABELS = (
    "server",
    "one-at-a-time",
    *(f"cluster node {i}" for i in range(CLUSTER_NODES)),
    "distmsm execute",
    "distmsm estimate",
    "phase-barrier timeline",
    "schedule_pipeline",
)


def _server_plan() -> list:
    """A verified server through a GPU death and an always-cheating GPU."""
    server = MsmProofServer(
        MultiGpuSystem(4),
        DistMsmConfig(window_size=10),
        ServeConfig(gpu_groups=2, max_batch_size=4, max_wait_ms=0.5),
    )
    requests = poisson_trace(BLS, count=16, rate_rps=900.0, seed=4, sizes=(1 << 14, 1 << 16))
    result = server.serve(
        requests, faults=FaultPlan.of(GpuFailure(3.0, 1), ByzantineWorker(2, seed=9))
    )
    assert result.quarantined and any(r.retries for r in result.records)
    return list(result.timeline.tasks)


def _one_at_a_time_plan() -> list:
    """Once a first attempt is lost, every later first attempt depends on a
    failed task: the run walks the server's restart path."""
    requests = poisson_trace(BLS, count=16, rate_rps=900.0, seed=7, sizes=(1 << 14, 1 << 16))
    result = serve_one_at_a_time(
        MultiGpuSystem(4),
        requests,
        DistMsmConfig(window_size=10, verify_chunks=True),
        faults=FaultPlan.of(GpuFailure(4.0, 1), ByzantineWorker(3, seed=2)),
    )
    assert result.timeline.failures and result.quarantined
    return list(result.timeline.tasks)


def _cluster_plans() -> list[tuple[str, list]]:
    """Each node's plan in a replay where the last node dies and node 1 cheats."""
    trace = diurnal_burst_trace(seed=11, rate_rps=900.0, scale=0.2)
    cluster = ProofCluster(
        CLUSTER_NODES,
        gpus_per_node=2,
        config=DistMsmConfig(window_size=10),
        tenants=(TenantSpec("acme", weight=2.0), TenantSpec("zkmart", weight=1.0)),
    )
    kill_ms = 0.4 * trace.duration_ms
    faults = FaultPlan.of(
        GpuFailure(kill_ms, 4), GpuFailure(kill_ms, 5), ByzantineWorker(3, seed=5)
    )
    result = replay(cluster, trace, faults=faults)
    assert result.failovers and result.node_results[1].quarantined
    return [
        (f"cluster node {node}", list(served.timeline.tasks))
        for node, served in sorted(result.node_results.items())
    ]


def _distmsm_plans() -> list[tuple[str, list]]:
    toy = toy_curve()
    scalars, points = msm_instance(toy, 64, seed=5)
    executed = DistMsm(
        MultiGpuSystem(4), DistMsmConfig(window_size=4, verify_chunks=True)
    ).execute(
        scalars, points, toy, faults=FaultPlan.of(GpuFailure(0.0, 1), ByzantineWorker(2, seed=3))
    )
    # the transfer error lands mid-way through the first copy on node 0
    faults = FaultPlan.of(
        GpuFailure(1.0, 1), ByzantineWorker(2, seed=5), Straggler(3, 2.0), TransferError(0, 21.644)
    )
    estimated = DistMsm(MultiGpuSystem(8)).estimate(BLS, 1 << 16, faults=faults)
    assert estimated.timeline.attempts and estimated.timeline.failures
    honest = DistMsm(MultiGpuSystem(4)).estimate(BLS, 1 << 16)
    job = msm_job_from_estimate(DistMsm(MultiGpuSystem(2)), BLS, 1 << 14)
    pipeline = schedule_pipeline([job] * 3, gpu_groups=2)
    return [
        ("distmsm execute", list(executed.timeline.tasks)),
        ("distmsm estimate", list(estimated.timeline.tasks)),
        ("phase-barrier timeline", list(honest.timeline.tasks)),
        ("schedule_pipeline", list(pipeline.engine_timeline.tasks)),
    ]


@pytest.fixture(scope="module")
def plans() -> dict[str, list]:
    return dict(
        [
            ("server", _server_plan()),
            ("one-at-a-time", _one_at_a_time_plan()),
            *_cluster_plans(),
            *_distmsm_plans(),
        ]
    )


def test_every_emitter_is_covered(plans):
    assert tuple(plans) == LABELS


@pytest.mark.parametrize("label", LABELS)
def test_tasks_are_added_in_dependency_order(plans, label):
    seen: set[str] = set()
    for task in plans[label]:
        assert task.name not in seen, f"{task.name!r} submitted twice"
        later = [dep for dep in task.deps if dep not in seen]
        assert not later, f"{task.name!r} depends on {later}, not submitted before it"
        seen.add(task.name)
    assert check_plan(plans[label], label=label).warnings == []


def test_a_run_loads_neither_the_analyzer_nor_the_auditors():
    """Faulted, verified runs of every run-time layer in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from repro.cluster import ProofCluster, diurnal_burst_trace, replay\n"
        "from repro.core.config import DistMsmConfig\n"
        "from repro.core.distmsm import DistMsm\n"
        "from repro.curves.params import curve_by_name\n"
        "from repro.curves.sampling import msm_instance\n"
        "from repro.curves.toy import toy_curve\n"
        "from repro.engine.faults import ByzantineWorker, FaultPlan, GpuFailure\n"
        "from repro.gpu.cluster import MultiGpuSystem\n"
        "from repro.msm.naive import naive_msm\n"
        "from repro.serve import MsmProofServer, ServeConfig, poisson_trace\n"
        "toy, bls = toy_curve(), curve_by_name('BLS12-381')\n"
        "faults = FaultPlan.of(GpuFailure(0.0, 1), ByzantineWorker(2, seed=3))\n"
        "engine = DistMsm(MultiGpuSystem(4), DistMsmConfig(window_size=4, verify_chunks=True))\n"
        "scalars, points = msm_instance(toy, 64, seed=5)\n"
        "res = engine.execute(scalars, points, toy, faults=faults)\n"
        "assert res.point == naive_msm(scalars, points, toy)\n"
        "assert engine.estimate(bls, 1 << 16, faults=faults).fault_report is not None\n"
        "server = MsmProofServer(MultiGpuSystem(4), DistMsmConfig(window_size=10),\n"
        "                        ServeConfig(gpu_groups=2, max_batch_size=4))\n"
        "requests = poisson_trace(bls, count=8, rate_rps=900.0, seed=4, sizes=(1 << 14,))\n"
        "assert server.serve(requests, faults=faults).quarantined\n"
        "trace = diurnal_burst_trace(seed=11, rate_rps=900.0, scale=0.1)\n"
        "kill = 0.4 * trace.duration_ms\n"
        "cluster = ProofCluster(3, gpus_per_node=2, config=DistMsmConfig(window_size=10))\n"
        "deaths = FaultPlan.of(GpuFailure(kill, 4), GpuFailure(kill, 5))\n"
        "assert replay(cluster, trace, faults=deaths).failovers\n"
        "prefixes = ('repro.analyze', 'repro.verify')\n"
        "print(sorted(m for m in sys.modules if m.startswith(prefixes)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.strip() == "[]"
