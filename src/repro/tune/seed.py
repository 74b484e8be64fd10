"""Write tuned plans into the serving layer's plan caches.

:mod:`repro.tune.search` finds a better config for one (system, curve,
n) workload; this module makes the *serving* stack actually route with
it.  The trick is in the cache key: :class:`~repro.serve.plancache.PlanCache`
keys entries by ``(curve, n, gpus, spec, config)`` where ``config`` is
the **serving engine's** config — so a tuned plan is built with a tuned
engine but installed under the key the server will look it up with
(:meth:`PlanCache.install`).  The server's data path is untouched: a
seeded shape is a plan-cache *hit* carrying tuned stage times, an
unseeded shape falls back to the analytic default exactly as before.

Two entry points:

* :func:`seed_server` — tunes every (workload x GPU-group-size) shape of
  one :class:`~repro.serve.server.MsmProofServer` and installs the
  winners into its plan cache;
* :func:`tuned_cached_plan` — the single-shape building block.

Every seeding returns a :class:`SeedReport` audit trail; the CLI
(``python -m repro tune``) and ``benchmarks/bench_tune.py`` render it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.params import CurveParams
from repro.gpu.cluster import MultiGpuSystem
from repro.serve.plancache import CachedPlan, PlanCache
from repro.tune.search import TunedPlan, tune_msm

if TYPE_CHECKING:
    from repro.serve.server import MsmProofServer

__all__ = ["SeedEntry", "SeedReport", "tuned_cached_plan", "seed_server"]

#: one workload shape: (curve, msm size)
Workload = tuple[CurveParams, int]


@dataclass(frozen=True)
class SeedEntry:
    """One installed plan: where it went and what it bought."""

    scope: str  # "server/group4", "node0/group2", "router/4gpu", ...
    plan: TunedPlan

    def as_dict(self) -> dict[str, Any]:
        return {"scope": self.scope, **self.plan.as_dict()}


@dataclass(frozen=True)
class SeedReport:
    """Audit trail of one seeding pass."""

    entries: tuple[SeedEntry, ...]

    @property
    def installed(self) -> int:
        return len(self.entries)

    @property
    def evaluations(self) -> int:
        return sum(e.plan.evaluations for e in self.entries)

    @property
    def best_speedup(self) -> float:
        return max((e.plan.speedup for e in self.entries), default=1.0)

    def as_dict(self) -> dict[str, Any]:
        return {
            "installed": self.installed,
            "evaluations": self.evaluations,
            "best_speedup": round(self.best_speedup, 6),
            "entries": [e.as_dict() for e in self.entries],
        }

    def render(self) -> str:
        lines = [
            f"seeded {self.installed} plan(s) "
            f"({self.evaluations} cost evaluations, best modelled speedup "
            f"{self.best_speedup:.3f}x)"
        ]
        for e in self.entries:
            p = e.plan
            lines.append(
                f"  {e.scope:<16s} {p.curve:<10s} n=2^{p.n.bit_length() - 1:<3d}"
                f" s={p.window_size:<3d} {p.config.scatter:<12s}"
                f" tpb>={p.config.threads_per_bucket_min:<4d}"
                f" cpu-reduce={str(p.config.bucket_reduce_on_cpu):<5s}"
                f" {p.default_ms:10.3f} -> {p.tuned_ms:10.3f} ms"
                f"  ({p.speedup:.3f}x)"
            )
        return "\n".join(lines)


def tuned_cached_plan(
    system: MultiGpuSystem,
    curve: CurveParams,
    n: int,
    base: DistMsmConfig | None = None,
    seed: int = 0,
    budget: int = 96,
) -> tuple[TunedPlan, CachedPlan]:
    """Tune one shape and package the winner as a cache entry.

    The :class:`CachedPlan` carries the *tuned* engine's window size,
    work plan, and stage times — what the batcher schedules with once the
    entry is installed.
    """
    plan = tune_msm(system, curve, n, base=base, seed=seed, budget=budget)
    cached = PlanCache.build_plan(DistMsm(system, plan.config), curve, n)
    return plan, cached


def _group_system(server: "MsmProofServer", group_size: int) -> MultiGpuSystem:
    """The system a ``group_size``-GPU batch runs on (matches ``_engine_for``)."""
    return MultiGpuSystem(
        group_size,
        spec=server.system.spec,
        cpu=server.system.cpu,
        gpus_per_node=server.system.gpus_per_node,
    )


def seed_server(
    server: "MsmProofServer",
    workloads: Sequence[Workload],
    seed: int = 0,
    budget: int = 96,
) -> SeedReport:
    """Tune and install every (workload x group-size) shape of ``server``.

    Installation is keyed by an engine equivalent to the server's own
    group engine (same GPU count, spec, and config), so the very next
    ``lookup`` for a seeded shape hits the tuned plan with no planning
    latency charged.
    """
    entries: list[SeedEntry] = []
    for group_size in sorted({len(g) for g in server.groups}):
        system = _group_system(server, group_size)
        lookup_engine = DistMsm(system, server.config)
        for curve, n in workloads:
            plan, cached = tuned_cached_plan(
                system, curve, n, base=server.config, seed=seed, budget=budget
            )
            server.plan_cache.install(lookup_engine, curve, n, cached)
            entries.append(
                SeedEntry(scope=f"server/group{group_size}", plan=plan)
            )
    return SeedReport(entries=tuple(entries))
