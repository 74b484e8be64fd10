"""Differential tier: tuning changes the schedule, never the answer.

Analytic-default and tuned configs are executed through the bit-exact
:class:`~repro.core.backends.FunctionalBackend` on toy curves and the
resulting group elements compared for exact equality — on healthy runs
and under fault plans (a tuned plan must survive recovery identically).
The knob grids are chosen so the "tuned" config genuinely differs from
the default; a trivially-equal comparison would prove nothing.
"""

from dataclasses import replace

import pytest

from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.curves.sampling import msm_instance
from repro.curves.toy import toy_curve
from repro.faults import FaultPlan, GpuFailure, Straggler, TransferError
from repro.gpu.cluster import MultiGpuSystem
from repro.tune import Knob, tune_msm

TOY = toy_curve()
N = 96

#: grids that EXCLUDE the default values, so the winner must differ
FORCED_KNOBS = (
    Knob("window_size", (6, 8)),
    Knob("scatter", ("naive",)),
    Knob("threads_per_bucket_min", (1, 8)),
)


def validate_tuned(
    system: MultiGpuSystem,
    curve,
    n: int,
    base: DistMsmConfig,
    tuned: DistMsmConfig,
    seed: int = 0,
) -> bool:
    """Bit-exact winner validation through the functional backend.

    Executes one seeded MSM instance under both configs and compares the
    resulting group elements.  Returns ``True`` when they match exactly;
    raises :class:`ValueError` otherwise — a tuned plan that changes the
    *answer* is a bug, not a slow plan.  Meant for toy-curve sizes.
    """
    scalars, points = msm_instance(curve, n, seed=seed)
    reference = DistMsm(system, base).execute(scalars, points, curve).point
    candidate = DistMsm(system, tuned).execute(scalars, points, curve).point
    if reference != candidate:
        raise ValueError(
            f"tuned config changed the MSM result on {curve.name} (n={n}): "
            f"{reference} != {candidate}"
        )
    return True


def tuned_config(system: MultiGpuSystem, seed: int = 0) -> DistMsmConfig:
    base = replace(
        DistMsmConfig(),
        window_size=6,
        scatter="naive",
        threads_per_bucket_min=1,
    )
    plan = tune_msm(system, TOY, N, base=base, knobs=FORCED_KNOBS, seed=seed, budget=12)
    return plan.config


class TestBitExactHealthy:
    @pytest.mark.parametrize("gpus", [1, 2, 4])
    def test_tuned_equals_default_result(self, gpus):
        system = MultiGpuSystem(gpus)
        default = DistMsmConfig()
        tuned = tuned_config(system)
        assert tuned != default  # the comparison must not be vacuous
        scalars, points = msm_instance(TOY, N, seed=3)
        ref = DistMsm(system, default).execute(scalars, points, TOY)
        got = DistMsm(system, tuned).execute(scalars, points, TOY)
        assert ref.point == got.point
        # the schedule DID change: both engines planned differently
        assert (ref.window_size, ref.times.as_dict()) != (
            got.window_size,
            got.times.as_dict(),
        )

    def test_validate_tuned_helper_accepts_sound_plans(self):
        system = MultiGpuSystem(2)
        assert validate_tuned(
            system, TOY, N, DistMsmConfig(), tuned_config(system), seed=5
        )

    def test_every_knob_point_on_the_forced_grid_is_bitexact(self):
        # exhaustive over the small grid: no winner can be unsound
        system = MultiGpuSystem(2)
        scalars, points = msm_instance(TOY, N, seed=7)
        ref = DistMsm(system).execute(scalars, points, TOY).point
        for s in (6, 8):
            for tpb in (1, 8):
                cfg = replace(
                    DistMsmConfig(),
                    window_size=s,
                    scatter="naive",
                    threads_per_bucket_min=tpb,
                )
                got = DistMsm(system, cfg).execute(scalars, points, TOY).point
                assert got == ref, f"s={s} tpb={tpb} changed the MSM result"


class TestBitExactUnderFaults:
    @pytest.mark.parametrize(
        "faults",
        [
            FaultPlan.of(GpuFailure(0.0, 1)),
            FaultPlan.of(Straggler(0, 3.0)),
            FaultPlan.of(GpuFailure(0.0, 3), Straggler(1, 2.0)),
            FaultPlan.of(TransferError(node=0, at_ms=0.01)),
        ],
        ids=["gpu-death", "straggler", "death+straggler", "transfer-error"],
    )
    def test_tuned_equals_default_under_fault_plan(self, faults):
        system = MultiGpuSystem(4)
        tuned = tuned_config(system)
        scalars, points = msm_instance(TOY, N, seed=11)
        ref = DistMsm(system).execute(scalars, points, TOY, faults=faults)
        got = DistMsm(system, tuned).execute(scalars, points, TOY, faults=faults)
        assert ref.point == got.point

    def test_fault_free_and_faulted_tuned_runs_agree(self):
        # recovery must not change the tuned plan's answer either
        system = MultiGpuSystem(4)
        tuned = tuned_config(system)
        scalars, points = msm_instance(TOY, N, seed=13)
        engine = DistMsm(system, tuned)
        healthy = engine.execute(scalars, points, TOY)
        faulted = engine.execute(
            scalars, points, TOY, faults=FaultPlan.of(GpuFailure(0.0, 2))
        )
        assert healthy.point == faulted.point
