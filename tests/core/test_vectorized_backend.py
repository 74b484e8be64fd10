"""Differential: the batch MSM path vs the scalar loops it replaced.

Three layers of parity, all bit-exact:

* :func:`repro.core.vectorized.window_digit_matrix` row-for-row against
  the scalar ``signed_windows`` / ``unsigned_windows`` decompositions,
  including error parity (Hypothesis-driven);
* full ``DistMsm.execute`` on the toy curve through the batch path vs the
  same run with :func:`repro.core.backends.uses_batch_path` patched off
  (the scalar reference) — result point, event counters, modelled
  ``time_ms`` and timeline — across config ablations, kills, chaos plans
  and Byzantine workers, once with ``bucket_sum``'s XYZZ kernel and once
  with its batched-affine kernel forced
  (:func:`repro.core.bucket_sum.uses_affine_kernel` patched on);
* the routing rule itself: the toy curve takes the batch path and every
  registered curve the scalar loops, without importing numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import backends, bucket_sum
from repro.core.backends import FunctionalBackend, uses_batch_path
from repro.core.config import DistMsmConfig
from repro.core.distmsm import DistMsm
from repro.core.vectorized import window_digit_matrix
from repro.curves.params import curve_by_name, list_curves
from repro.curves.sampling import msm_instance
from repro.curves.scalar import reassemble, signed_windows, unsigned_windows
from repro.gpu.cluster import MultiGpuSystem
from repro.msm.naive import naive_msm
from repro.observe import Tracer
from tests.conftest import TOY_CURVE

window_cfg = st.tuples(
    st.integers(min_value=2, max_value=16),  # window size s
    st.integers(min_value=1, max_value=12),  # window count
)


class TestWindowDigitMatrix:
    @given(cfg=window_cfg, data=st.data(), signed=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_decomposition(self, cfg, data, signed):
        s, count = cfg
        scalars = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << (s * count)) - 1),
                min_size=1,
                max_size=16,
            )
        )
        matrix = window_digit_matrix(scalars, s, count, signed)
        ref = signed_windows if signed else unsigned_windows
        assert matrix.shape == (len(scalars), count + (1 if signed else 0))
        for row, k in zip(matrix.tolist(), scalars):
            assert row == ref(k, s, count)
            assert reassemble(row, s) == k

    @given(cfg=window_cfg, signed=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_error_parity_overflow(self, cfg, signed):
        s, count = cfg
        too_big = 1 << (s * count)
        with pytest.raises(ValueError, match="does not fit"):
            window_digit_matrix([0, too_big], s, count, signed)

    @pytest.mark.parametrize("signed", [False, True])
    def test_error_parity_negative(self, signed):
        with pytest.raises(ValueError, match="non-negative"):
            window_digit_matrix([3, -1], 4, 8, signed)

    def test_digit_range(self):
        matrix = window_digit_matrix(list(range(256)), 4, 2, signed=True)
        assert int(matrix.min()) >= -(1 << 3)
        assert int(matrix.max()) <= 1 << 3


def _scalar_loops():
    """Patch the routing rule off: executions inside run the scalar loops."""
    return mock.patch.object(backends, "uses_batch_path", lambda curve: False)


def _affine_kernel():
    """Force ``bucket_sum``'s batched-affine kernel, even on the toy curve."""
    return mock.patch.object(bucket_sum, "uses_affine_kernel", lambda curve: True)


class _ScalarReference:
    """A ``DistMsm`` whose executions take the scalar loops on any curve."""

    def __init__(self, engine: DistMsm, kernel: str = "xyzz") -> None:
        self.engine = engine
        self.kernel = kernel

    def execute(self, *args, **kwargs):
        forced = _affine_kernel() if self.kernel == "affine" else nullcontext()
        with _scalar_loops(), forced:
            return self.engine.execute(*args, **kwargs)


def _engines(window, kernel="xyzz", **overrides):
    """(scalar reference, default-routed engine) over one 2-GPU system."""
    system = MultiGpuSystem(num_gpus=2)
    config = DistMsmConfig(window_size=window, **overrides)
    return _ScalarReference(DistMsm(system, config), kernel), DistMsm(system, config)


def _assert_identical(res_s, res_v):
    assert res_s.point == res_v.point
    assert res_s.counters == res_v.counters
    assert res_s.time_ms == res_v.time_ms
    assert res_s.timeline.spans == res_v.timeline.spans


class TestExecuteParity:
    """Whole-pipeline runs must be indistinguishable between the paths."""

    kernel = "xyzz"  #: bucket_sum kernel of the scalar reference

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"signed_digits": True},
            {"precompute": True},
            {"signed_digits": True, "precompute": True},
            {"scatter": "naive"},
            {"multi_gpu": "windows"},
        ],
        ids=["default", "signed", "precompute", "signed+precompute", "naive", "windows"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_toy_ablations(self, overrides, seed):
        scalars, points = msm_instance(TOY_CURVE, 256, seed=seed)
        scalar_engine, vector_engine = _engines(6, self.kernel, **overrides)
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE)
        _assert_identical(res_s, res_v)

    def test_all_registered_curves(self, any_curve):
        """Every registered curve runs the scalar loops to the right point."""
        scalars, points = msm_instance(any_curve, 48, seed=5)
        system = MultiGpuSystem(num_gpus=2)
        res = DistMsm(system, DistMsmConfig(window_size=8)).execute(
            scalars, points, any_curve
        )
        assert res.point == naive_msm(scalars, points, any_curve)

    def test_edge_scalars(self):
        """Zero, one, r-1 and duplicate-point lanes through both paths."""
        _, points = msm_instance(TOY_CURVE, 8, seed=2)
        points = points[:4] * 2  # duplicates stress bucket accumulation
        scalars = [0, 1, TOY_CURVE.r - 1, 0, TOY_CURVE.r - 1, 1, 2, 3]
        scalar_engine, vector_engine = _engines(6, self.kernel)
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE)
        assert res_s.point == res_v.point
        assert res_s.counters == res_v.counters

    def test_observe_tracer_leaves_batch_run_unchanged(self):
        """An observe ``Tracer`` changes neither the point nor ``time_ms``."""
        scalars, points = msm_instance(TOY_CURVE, 128, seed=9)
        _, vector_engine = _engines(6)
        plain = vector_engine.execute(scalars, points, TOY_CURVE)
        traced = vector_engine.execute(scalars, points, TOY_CURVE, trace=Tracer())
        assert plain.point == traced.point
        assert plain.time_ms == traced.time_ms


class TestFaultParity:
    """Fault injection through the vectorized path: same points, same plans."""

    kernel = "xyzz"  #: bucket_sum kernel of the scalar reference

    @pytest.mark.parametrize("gpu", [0, 1])
    @pytest.mark.parametrize("at", [0.0, 0.02])
    def test_kill_sweep_matches_scalar_path(self, gpu, at):
        from repro.engine.faults import FaultPlan, GpuFailure

        scalars, points = msm_instance(TOY_CURVE, 64, seed=3)
        scalar_engine, vector_engine = _engines(6, self.kernel)
        expected = scalar_engine.execute(scalars, points, TOY_CURVE).point
        plan = FaultPlan.of(GpuFailure(at, gpu))
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert res_s.point == expected
        _assert_identical(res_s, res_v)

    @pytest.mark.parametrize("seed", range(4))
    def test_chaos_sweep_matches_scalar_path(self, seed):
        from repro.faults import random_fault_plan

        scalars, points = msm_instance(TOY_CURVE, 64, seed=7)
        scalar_engine, vector_engine = _engines(6, self.kernel)
        horizon = max(scalar_engine.execute(scalars, points, TOY_CURVE).time_ms, 0.05)
        plan = random_fault_plan(
            seed, 2, horizon, max_gpu_failures=1, byzantine_probability=0.5
        )
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        _assert_identical(res_s, res_v)
        assert len(res_s.timeline.attempts) == len(res_v.timeline.attempts)

    def test_byzantine_cheater_caught_identically(self):
        from repro.engine.faults import ByzantineWorker, FaultPlan

        scalars, points = msm_instance(TOY_CURVE, 64, seed=3)
        scalar_engine, vector_engine = _engines(6, self.kernel)
        expected = scalar_engine.execute(scalars, points, TOY_CURVE).point
        plan = FaultPlan.of(ByzantineWorker(0, mode="wrong-result", seed=5))
        res_s = scalar_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        res_v = vector_engine.execute(scalars, points, TOY_CURVE, faults=plan)
        assert res_s.point == expected
        _assert_identical(res_s, res_v)
        assert res_s.byzantine_report.caught
        assert res_v.byzantine_report.caught
        assert (
            res_s.byzantine_report.to_json() == res_v.byzantine_report.to_json()
        )


class TestExecuteParityAffineKernel(TestExecuteParity):
    """The same runs with the reference's bucket sum in batched affine."""

    kernel = "affine"
    # neither runs the scalar reference: TestExecuteParity covers them
    test_all_registered_curves = None
    test_observe_tracer_leaves_batch_run_unchanged = None


class TestFaultParityAffineKernel(TestFaultParity):
    """Kills, chaos and Byzantine plans with the affine kernel forced."""

    kernel = "affine"


class TestAutoRouting:
    def _prepared(self, curve):
        """A toy-sized backend after ``prepare`` picked its path."""
        system = MultiGpuSystem(num_gpus=1)
        msm = DistMsm(system, DistMsmConfig(window_size=6))
        scalars, points = msm_instance(curve, 8, seed=1)
        backend = FunctionalBackend(msm, scalars, points, curve)
        n_win = -(-curve.scalar_bits // 6)
        backend.prepare(6, n_win, n_win)
        return backend

    def test_auto_vectorizes_small_fields(self):
        assert TOY_CURVE.p < (1 << 32)
        assert uses_batch_path(TOY_CURVE) is True
        assert bucket_sum.uses_affine_kernel(TOY_CURVE) is False
        assert self._prepared(TOY_CURVE)._stream is not None

    @pytest.mark.parametrize("name", [c.name for c in list_curves()])
    def test_auto_keeps_scalar_for_multi_limb(self, name):
        curve = curve_by_name(name)
        assert curve.p >= (1 << 32)
        assert uses_batch_path(curve) is False
        assert bucket_sum.uses_affine_kernel(curve) is True

    def test_production_curve_path_never_imports_numpy(self):
        """A BN254 execution in a fresh interpreter leaves numpy unloaded.

        Importing numpy adds ~11 MB to a worker's peak RSS, so the bigint
        path (scalar digits and scatters, batched-affine bucket sum) must
        stay free of it.
        """
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys\n"
            "from repro.core.distmsm import DistMsm\n"
            "from repro.curves.params import curve_by_name\n"
            "from repro.curves.sampling import msm_instance\n"
            "from repro.gpu.cluster import MultiGpuSystem\n"
            "from repro.msm.naive import naive_msm\n"
            "curve = curve_by_name('BN254')\n"
            "scalars, points = msm_instance(curve, 24, seed=3)\n"
            "res = DistMsm(MultiGpuSystem(2)).execute(scalars, points, curve)\n"
            "assert res.point == naive_msm(scalars, points, curve)\n"
            "print('numpy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        assert out.stdout.strip() == "False"

    def test_patched_rule_runs_scalar_loops(self):
        """The differential tests' scalar reference really leaves the batch path."""
        with _scalar_loops():
            backend = self._prepared(TOY_CURVE)
        assert backend._stream is None
        assert len(backend._digit_rows) == 8
