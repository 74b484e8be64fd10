"""The benchmark's five workloads: seeded instances, the call, its checks.

Every workload is built from ``(name, seed)`` alone, so one seed always
gives the same inputs.  ``tiny=True`` shrinks every instance for the
self-test; the shape (curve, GPUs, fault kinds, tenants) stays the same.

A workload object has one timed operation, :meth:`call`, and the
checks the harness runs on its results:

* :meth:`audit` — the expensive independent check, run once per run, on
  the last timed result (an oracle MSM, or the cluster auditor);
* :meth:`digest` — the exact outputs every call must reproduce (point,
  modelled time and counters; or each replay's p50, p99 and shed set);
* :meth:`failures` — operations of one call that failed without raising
  (shed requests).
"""

from __future__ import annotations

import random
import statistics
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable

from repro.cluster import ProofCluster, TenantSpec, diurnal_burst_trace, generate_requests
from repro.core.distmsm import DistMsm
from repro.curves.params import CurveParams, curve_by_name
from repro.curves.point import AffinePoint
from repro.curves.sampling import msm_instance, sample_points, sample_scalars
from repro.curves.toy import toy_curve
from repro.engine.faults import (
    ByzantineWorker,
    FaultPlan,
    GpuFailure,
    Straggler,
    TransferError,
)
from repro.faults.byzantine import VERDICT_ACCEPTED
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.msm.pippenger import pippenger_msm
from repro.serve.queue import ProofRequest

#: base points of the toy workload tile a sample of this many points:
#: sampling 2^20 points would cost ~20 s, far more than the call measured
TOY_TILE = 1 << 14

CLUSTER_NODES = 4
GPUS_PER_NODE = 4
TENANTS = (TenantSpec("acme", weight=2.0), TenantSpec("zkmart", weight=1.0))
#: traces one cluster-diurnal-chaos call replays
CHAOS_REPLAYS = 3

#: per-layer model metrics every workload reports (0 where they do not apply)
MODEL_METRICS = (
    "model.msm_ms",
    "model.scatter_ms",
    "model.bucket_sum_ms",
    "model.bucket_reduce_ms",
    "model.window_reduce_ms",
    "model.transfer_ms",
    "model.launch_ms",
    "model.p50_ms",
    "model.p99_ms",
    "counters.pacc",
    "counters.padd",
    "counters.global_atomics",
    "counters.cpu_padd",
    "outsource.chunks",
    "outsource.rejected",
    "distmsm.accepted_frac",
    "distmsm.recovery_rounds",
    "cluster.failovers",
    "serve.retried",
)


@dataclass
class MsmWorkload:
    """Closed loop, one caller: ``DistMsm.execute`` on a fixed instance."""

    name: str
    curve: CurveParams
    gpus: int
    scalars: list[int]
    points: list[AffinePoint]
    oracle: Callable[[], AffinePoint]
    faults: FaultPlan | None = None
    #: calls of the traced pass; 1 for ~3 s calls, so that a run with both
    #: passes stays within 30 s
    traced_calls: int = 3
    engine: DistMsm | None = field(default=None, repr=False)

    ops_per_call = 1

    def start(self) -> None:
        self.engine = DistMsm(MultiGpuSystem(self.gpus))

    def call(self) -> Any:
        assert self.engine is not None, "start() first"
        return self.engine.execute(self.scalars, self.points, self.curve, faults=self.faults)

    def audit(self, result: Any) -> list[str]:
        expected = self.oracle()
        if result.point != expected:
            return [f"{self.name}: point {result.point!r} != oracle {expected!r}"]
        return []

    def failures(self, result: Any) -> int:
        return 0

    def digest(self, result: Any) -> dict:
        p = result.point
        return {
            "point": [p.x, p.y, p.infinity],
            "time_ms": result.time_ms,
            "counters": asdict(result.counters),
        }

    def model(self, result: Any) -> dict[str, float]:
        out = dict.fromkeys(MODEL_METRICS, 0.0)
        out["model.msm_ms"] = result.time_ms
        for phase, ms in result.times.as_dict().items():
            if f"model.{phase}_ms" in out:
                out[f"model.{phase}_ms"] = ms
        for name in ("pacc", "padd", "global_atomics", "cpu_padd"):
            out[f"counters.{name}"] = getattr(result.counters, name)
        out["distmsm.accepted_frac"] = 1.0
        report = result.byzantine_report
        if report is not None:
            accepted = sum(1 for c in report.chunks if c.verdict == VERDICT_ACCEPTED)
            out["outsource.chunks"] = len(report.chunks)
            out["outsource.rejected"] = report.rejected
            out["distmsm.accepted_frac"] = accepted / len(report.chunks)
        if result.fault_report is not None:
            out["distmsm.recovery_rounds"] = len(result.fault_report.rounds) - 1
        return out


#: one trace replay: its requests and the fleet's fault plan
Replay = tuple[list[ProofRequest], FaultPlan | None]


@dataclass
class ClusterWorkload:
    """Open loop in simulated time: trace replays, each on a fresh cluster.

    One call replays every trace of the instance in turn.
    """

    name: str
    replays: list[Replay]
    traced_calls: int = 3  # as for MsmWorkload

    @property
    def ops_per_call(self) -> int:
        return sum(len(requests) for requests, _ in self.replays)

    def start(self) -> None:
        """Nothing to build ahead: ``ProofCluster.serve`` is one-shot, so
        every replay constructs its own cluster."""

    def call(self) -> Any:
        results = []
        for requests, faults in self.replays:
            cluster = ProofCluster(CLUSTER_NODES, gpus_per_node=GPUS_PER_NODE, tenants=TENANTS)
            results.append(cluster.serve(list(requests), faults=faults))
        return results

    def audit(self, result: Any) -> list[str]:
        from repro.verify.clustercheck import verify_cluster

        return [
            v.message
            for res in result
            for v in verify_cluster(res, subject=self.name, eps=1e-6).all_violations()
        ]

    def failures(self, result: Any) -> int:
        return sum(len(res.shed) for res in result)

    def digest(self, result: Any) -> list[dict]:
        return [
            {
                "p50_ms": res.metrics.p50_ms,
                "p99_ms": res.metrics.p99_ms,
                "served": res.metrics.served,
                "shed": sorted(e.request.req_id for e in res.shed),
            }
            for res in result
        ]

    def model(self, result: Any) -> dict[str, float]:
        """p50 and p99 are the medians over the replays; counts are totals."""
        out = dict.fromkeys(MODEL_METRICS, 0.0)
        out["model.p50_ms"] = statistics.median(res.metrics.p50_ms for res in result)
        out["model.p99_ms"] = statistics.median(res.metrics.p99_ms for res in result)
        out["cluster.failovers"] = sum(res.metrics.failover_count for res in result)
        out["serve.retried"] = sum(
            1
            for res in result
            for node in res.node_results.values()
            for r in node.records
            if r.retries
        )
        return out


Workload = MsmWorkload | ClusterWorkload


def _toy(seed: int, tiny: bool) -> MsmWorkload:
    curve = toy_curve()
    tile_n = 1 << 10 if tiny else TOY_TILE
    n = 1 << 12 if tiny else 1 << 20
    tile = sample_points(curve, tile_n, seed)
    scalars = sample_scalars(curve, n, seed)

    def oracle() -> AffinePoint:
        # point i is tile[i % tile_n], so the MSM folds onto the tile
        folded = [sum(scalars[j::tile_n]) for j in range(tile_n)]
        return naive_msm(folded, tile, curve)

    return MsmWorkload("msm-toy-2e20", curve, 4, scalars, tile * (n // tile_n), oracle)


def _bls(seed: int, tiny: bool) -> MsmWorkload:
    curve = curve_by_name("BLS12-381")
    scalars, points = msm_instance(curve, 1 << 6 if tiny else 1 << 12, seed)
    oracle = partial(pippenger_msm, scalars, points, curve)
    return MsmWorkload("msm-bls-2e12", curve, 4, scalars, points, oracle, traced_calls=1)


def chaos_plan(curve: CurveParams, n: int, gpus: int, seed: int) -> FaultPlan:
    """One GPU death, one Byzantine worker, one 2x straggler and one
    transient transfer error on distinct GPUs, placed from the seed.

    The death lands inside the dead GPU's first-round bucket sum, so its
    chunk is lost and re-dispatched; the transfer error lands mid-way
    through another GPU's first-round transfer, so it is retried.  Both
    instants come from the modelled schedule of an ``n + 1``-point
    estimate: ``estimate`` fills DistMsm's window-size cache, and the
    entry for ``n`` must stay cold so the first call pays for its tuning.
    """
    rng = random.Random(f"msm-chaos-{seed}")
    dead, cheat, slow = rng.sample(range(gpus), 3)
    events: tuple = (ByzantineWorker(cheat, seed=seed), Straggler(slow, 2.0))
    probe = DistMsm(MultiGpuSystem(gpus))
    spans = probe.estimate(curve, n + 1, faults=FaultPlan(events)).timeline.spans
    events += (GpuFailure(rng.uniform(0.25, 0.75) * spans[f"msm:r0:sum:g{dead}"].end_ms, dead),)
    spans = probe.estimate(curve, n + 1, faults=FaultPlan(events)).timeline.spans
    transfers = sorted(
        name
        for name in spans
        if name.startswith("msm:r0:transfer:g") and name != f"msm:r0:transfer:g{dead}"
    )
    hit = spans[rng.choice(transfers)]
    return FaultPlan(events + (TransferError(0, (hit.start_ms + hit.end_ms) / 2),))


def _bls_chaos(seed: int, tiny: bool) -> MsmWorkload:
    curve = curve_by_name("BLS12-381")
    n = 1 << 6 if tiny else 1 << 10
    scalars, points = msm_instance(curve, n, seed)
    oracle = partial(pippenger_msm, scalars, points, curve)
    return MsmWorkload(
        "msm-bls-2e10-chaos", curve, 8, scalars, points, oracle,
        faults=chaos_plan(curve, n, 8, seed),
    )


def _replay(seed: int, scale: float, count: int) -> list[ProofRequest]:
    """The first ``count`` requests of the canonical diurnal+burst trace.

    A fixed request count keeps the work of one replay close for every
    seed; arrival times, tenants and fault placement move with it.
    """
    trace = diurnal_burst_trace(seed=seed, rate_rps=700.0, scale=scale)
    requests = generate_requests(trace)
    if len(requests) < count:
        raise ValueError(f"trace seed {seed} holds {len(requests)} < {count} requests")
    return requests[:count]


def _cluster(seed: int, tiny: bool) -> ClusterWorkload:
    scale, count = (2.0, 120) if tiny else (40.0, 3200)
    return ClusterWorkload("cluster-diurnal", [(_replay(seed, scale, count), None)])


def _cluster_chaos(seed: int, tiny: bool) -> ClusterWorkload:
    """CHAOS_REPLAYS traces with faults: the work of one replay grows with
    the square of the batches its Byzantine node closes, which the trace
    seed moves by ~6% (IQR); several replays per call average that out."""
    scale, count = (2.0, 120) if tiny else (13.0, 1000)
    rng = random.Random(f"cluster-chaos-{seed}")
    last = (CLUSTER_NODES - 1) * GPUS_PER_NODE
    replays: list[Replay] = []
    for _ in range(CHAOS_REPLAYS):
        requests = _replay(rng.randrange(1 << 31), scale, count)
        kill_ms = 0.3 * requests[-1].arrival_ms
        # the cheater sits on node 2: least-loaded routing fills nodes in
        # id order, so the node fixes how much work its re-checks cost
        cheat = 2 * GPUS_PER_NODE + rng.randrange(GPUS_PER_NODE)
        faults = FaultPlan(
            tuple(GpuFailure(kill_ms, g) for g in range(last, last + GPUS_PER_NODE))
            + (ByzantineWorker(cheat, seed=seed),)
        )
        replays.append((requests, faults))
    return ClusterWorkload("cluster-diurnal-chaos", replays, traced_calls=1)


_FACTORIES: dict[str, Callable[[int, bool], Workload]] = {
    "msm-toy-2e20": _toy,
    "msm-bls-2e12": _bls,
    "msm-bls-2e10-chaos": _bls_chaos,
    "cluster-diurnal": _cluster,
    "cluster-diurnal-chaos": _cluster_chaos,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The seeded instance of workload ``name``."""
    return _FACTORIES[name](seed, tiny)
