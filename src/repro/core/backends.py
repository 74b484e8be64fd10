"""Execution backends for the unified DistMSM orchestration.

`DistMsm._orchestrate` runs ONE pipeline body — plan, per-assignment
scatter + bucket-sum, per-window combine + reduce, final window reduce —
parameterised only by a :class:`Backend`:

* :class:`FunctionalBackend` executes every step against the simulated
  GPUs (bit-exact MSM result, measured event counts) — the old
  ``DistMsm.execute`` path;
* :class:`AnalyticBackend` fills the same event counters from closed-form
  expectations so paper-scale inputs evaluate instantly — the old
  ``DistMsm.estimate`` path.

Both feed identical work summaries into the shared timing model and the
event-driven timeline, which is the point: there is exactly one
orchestration to keep correct.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.core.bucket_reduce import (
    cpu_bucket_reduce,
    cpu_bucket_reduce_counts,
    cpu_window_reduce,
)
from repro.core.bucket_sum import BucketSumOutput, bucket_sum, threads_per_bucket
from repro.core.planner import Assignment
from repro.core.scatter import hierarchical_scatter, naive_scatter
from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint, XyzzPoint, to_affine, xyzz_add
from repro.curves.scalar import signed_windows, unsigned_windows
from repro.gpu.counters import EventCounters
from repro.msm.precompute import cached_precompute_tables

if TYPE_CHECKING:
    from repro.core.distmsm import DistMsm, _GpuWork
    from repro.core.vectorized import VectorizedBucketSums

#: one window's partial sums from one assignment (None on the analytic path)
Partial = "list[XyzzPoint] | None"


class Backend(Protocol):
    """What one DistMSM execution strategy must provide.

    ``prepare``/``prepare_precompute`` set up the digit stream and return
    its length; ``run_assignment`` performs (or counts) one assignment's
    scatter + bucket-sum; the remaining methods cover the per-window
    combine/reduce and the final window fold.  Functional backends return
    real points where analytic ones return ``None``.
    """

    functional: bool

    def prepare(self, s: int, n_win: int, total_windows: int) -> int: ...

    def prepare_precompute(self, s: int, n_win: int, total_windows: int) -> int: ...

    def run_assignment(
        self, work: "_GpuWork", assignment: Assignment, buckets_total: int
    ) -> list[XyzzPoint] | None: ...

    def combine_window(
        self,
        window: int,
        partials: list[tuple[Assignment, list[XyzzPoint] | None]],
        buckets_total: int,
    ) -> tuple[list[XyzzPoint] | None, int]: ...

    def cpu_reduce_window(
        self, combined: list[XyzzPoint] | None, buckets_total: int
    ) -> tuple[EventCounters, XyzzPoint | None]: ...

    def reduce_value(self, combined: list[XyzzPoint] | None) -> XyzzPoint | None: ...

    def window_reduce(
        self, window_results: list[XyzzPoint | None]
    ) -> tuple[EventCounters, AffinePoint | None]: ...

    def finalize_precompute(
        self, window_results: list[XyzzPoint | None]
    ) -> tuple[EventCounters, AffinePoint | None]: ...


def uses_batch_path(curve: CurveParams) -> bool:
    """Whether ``curve``'s functional MSM runs the numpy batch kernels.

    True exactly when the base field fits the single-limb lanes of
    :class:`~repro.fields.batch.BatchPrimeField` (``p < 2^32``); every
    larger field runs the scalar digits and scatters, and
    :func:`~repro.core.bucket_sum.bucket_sum` adds in batched affine
    coordinates there (:func:`~repro.core.bucket_sum.uses_affine_kernel`).
    """
    return curve.p < 1 << 32


class FunctionalBackend:
    """Bit-exact simulated execution against the simulated GPUs."""

    functional = True

    def __init__(
        self,
        msm: "DistMsm",
        scalars: list[int],
        points: list[AffinePoint],
        curve: CurveParams,
    ) -> None:
        self.msm = msm
        self.config = msm.config
        self.scalars = scalars
        self.points = points
        self.curve = curve
        self.s = 0
        self._flat = False
        self._digit_rows: list[list[int]] = []
        self._stream_points: list[AffinePoint] = points
        self._flat_digits: list[int] = []
        self._flat_negate: list[bool] = []
        self._m = len(scalars)
        self._stream = None  # VectorizedStream on the batch path

    def prepare(self, s: int, n_win: int, total_windows: int) -> int:
        self.s = s
        self._flat = False
        self._stream = None
        self._digit_rows = []
        if uses_batch_path(self.curve):
            from repro.core.vectorized import VectorizedStream

            self._stream = VectorizedStream.from_windows(
                self.scalars, self.points, self.curve, s, n_win,
                self.config.signed_digits,
            )
        elif self.config.signed_digits:
            self._digit_rows = [signed_windows(k, s, n_win) for k in self.scalars]
        else:
            self._digit_rows = [unsigned_windows(k, s, n_win) for k in self.scalars]
        self._stream_points = self.points
        self._m = len(self.scalars)
        return self._m

    def prepare_precompute(self, s: int, n_win: int, total_windows: int) -> int:
        """Collapse all windows into one flattened (digit, point) stream."""
        self.s = s
        self._flat = True
        self._stream = None
        signed = self.config.signed_digits
        tables = cached_precompute_tables(self.points, self.curve, s, total_windows)
        flat_points: list[AffinePoint] = []
        digits: list[int] = []
        negate: list[bool] = []
        for pid, k in enumerate(self.scalars):
            row = (
                signed_windows(k, s, n_win) if signed else unsigned_windows(k, s, n_win)
            )
            for w in range(total_windows):
                d = row[w]
                if d == 0:
                    continue
                flat_points.append(tables[w][pid])
                negate.append(d < 0)
                digits.append(abs(d))
        self._stream_points = flat_points
        self._flat_digits = digits
        self._flat_negate = negate
        self._m = len(digits)
        if uses_batch_path(self.curve):
            from repro.core.vectorized import VectorizedStream

            self._stream = VectorizedStream.from_flat(
                digits, negate, flat_points, self.curve
            )
        return self._m

    def run_assignment(
        self, work: "_GpuWork", assignment: Assignment, buckets_total: int
    ) -> list[XyzzPoint]:
        gpu = self.msm.system.gpus[assignment.gpu]
        m = self._m
        p_lo = int(round(assignment.point_lo * m))
        p_hi = int(round(assignment.point_hi * m))
        b_lo = int(round(assignment.bucket_lo * buckets_total))
        b_hi = int(round(assignment.bucket_hi * buckets_total))
        assigned_buckets = max(1, b_hi - b_lo)
        n_threads = threads_per_bucket(
            assigned_buckets,
            self.msm.system.concurrent_threads_per_gpu,
            self.config.threads_per_bucket_min,
        )

        run = self._run_batch if self._stream is not None else self._run_scalar
        scatter_counters, sums = run(
            gpu, assignment.window, buckets_total, p_lo, p_hi, b_lo, b_hi, n_threads
        )
        work.scatter.merge(scatter_counters)
        work.sums.merge(sums.counters)
        work.active_sum_threads = max(
            work.active_sum_threads, assigned_buckets * n_threads
        )
        work.buckets_touched += assigned_buckets
        return sums.sums

    def _run_scalar(
        self,
        gpu,
        window: int,
        buckets_total: int,
        p_lo: int,
        p_hi: int,
        b_lo: int,
        b_hi: int,
        n_threads: int,
    ) -> tuple[EventCounters, BucketSumOutput]:
        """Scatter + bucket-sum of one assignment through the scalar loops."""
        if self._flat:
            digits = [
                d if b_lo <= d < b_hi else 0 for d in self._flat_digits[p_lo:p_hi]
            ]
            negate = self._flat_negate
        else:
            signed = self.config.signed_digits
            digits = []
            negate = [False] * self._m
            for pid in range(p_lo, p_hi):
                d = self._digit_rows[pid][window]
                if signed and d < 0:
                    negate[pid] = True
                    d = -d
                digits.append(d if b_lo <= d < b_hi else 0)

        if self.config.scatter == "hierarchical":
            scat = hierarchical_scatter(gpu, digits, buckets_total, self.config)
        else:
            scat = naive_scatter(gpu, digits, buckets_total)
        # shift point ids back to global index space
        buckets_global = [[pid + p_lo for pid in members] for members in scat.buckets]
        sums = bucket_sum(
            buckets_global, self._stream_points, self.curve, n_threads, negate
        )
        return scat.counters, sums

    def _run_batch(
        self,
        gpu,
        window: int,
        buckets_total: int,
        p_lo: int,
        p_hi: int,
        b_lo: int,
        b_hi: int,
        n_threads: int,
    ) -> tuple[EventCounters, "VectorizedBucketSums"]:
        """The same assignment through the batch kernels (bit-identical)."""
        import numpy as np

        from repro.core.vectorized import vector_bucket_sum, vector_scatter

        stream = self._stream
        assert stream is not None
        if self._flat:
            col = stream.digits[p_lo:p_hi]
            negate = stream.negate[p_lo:p_hi] if stream.negate is not None else None
        else:
            raw = stream.digits[p_lo:p_hi, window].astype(np.int64)
            negate = raw < 0
            col = np.abs(raw)
        digits = np.where((col >= b_lo) & (col < b_hi), col, 0)

        scat = vector_scatter(gpu, digits, buckets_total, self.config)
        sums = vector_bucket_sum(stream, scat, p_lo, negate, n_threads)
        return scat.counters, sums

    def combine_window(
        self,
        window: int,
        partials: list[tuple[Assignment, list[XyzzPoint] | None]],
        buckets_total: int,
    ) -> tuple[list[XyzzPoint], int]:
        combined = [XyzzPoint.identity() for _ in range(buckets_total)]
        merge_padds = 0
        for _assignment, sums in partials:
            assert sums is not None
            for b, pt in enumerate(sums):
                if pt.is_identity:
                    continue
                if combined[b].is_identity:
                    combined[b] = pt
                else:  # ndim: same bucket fed from several point slices
                    combined[b] = xyzz_add(combined[b], pt, self.curve)
                    merge_padds += 1
        return combined, merge_padds

    def cpu_reduce_window(
        self, combined: list[XyzzPoint] | None, buckets_total: int
    ) -> tuple[EventCounters, XyzzPoint]:
        assert combined is not None
        reduced = cpu_bucket_reduce(combined, self.curve)
        return reduced.counters, reduced.result

    def reduce_value(self, combined: list[XyzzPoint] | None) -> XyzzPoint:
        """GPU-reduce configs: same math, counters charged to the GPUs."""
        assert combined is not None
        return cpu_bucket_reduce(combined, self.curve).result

    def window_reduce(
        self, window_results: list[XyzzPoint | None]
    ) -> tuple[EventCounters, AffinePoint]:
        results = [r for r in window_results if r is not None]
        wr = cpu_window_reduce(results, self.s, self.curve)
        return wr.counters, to_affine(wr.result, self.curve)

    def finalize_precompute(
        self, window_results: list[XyzzPoint | None]
    ) -> tuple[EventCounters, AffinePoint]:
        assert window_results and window_results[0] is not None
        return EventCounters(), to_affine(window_results[0], self.curve)


class AnalyticBackend:
    """Closed-form expected counts; no points, instant at paper scale."""

    functional = False

    def __init__(self, msm: "DistMsm", curve: CurveParams, n: int) -> None:
        self.msm = msm
        self.config = msm.config
        self.curve = curve
        self.n = n
        self.s = 0
        self._m = n
        self._precompute = False

    def prepare(self, s: int, n_win: int, total_windows: int) -> int:
        self.s = s
        self._m = self.n
        self._precompute = False
        return self._m

    def prepare_precompute(self, s: int, n_win: int, total_windows: int) -> int:
        self.s = s
        self._m = self.n * total_windows  # flattened point stream
        self._precompute = True
        return self._m

    def run_assignment(
        self, work: "_GpuWork", assignment: Assignment, buckets_total: int
    ) -> None:
        self.msm._accumulate_analytic(
            work,
            self._m * assignment.point_share,
            assignment.bucket_share,
            buckets_total,
        )
        return None

    def combine_window(
        self,
        window: int,
        partials: list[tuple[Assignment, list[XyzzPoint] | None]],
        buckets_total: int,
    ) -> tuple[None, int]:
        if self._precompute:
            return None, 0
        owners = {a.gpu for a, _ in partials}
        merge_padds = 0
        if self.config.multi_gpu == "ndim" and len(owners) > 1:
            if self.config.bucket_reduce_on_cpu:
                # host merges every GPU's bucket array before reducing
                merge_padds = (len(owners) - 1) * int(
                    round(min(buckets_total, self.n / len(owners) + 1))
                )
            else:
                # host merges one reduced point per GPU per window
                merge_padds = len(owners) - 1
        return None, merge_padds

    def cpu_reduce_window(
        self, combined: list[XyzzPoint] | None, buckets_total: int
    ) -> tuple[EventCounters, None]:
        return cpu_bucket_reduce_counts(buckets_total), None

    def reduce_value(self, combined: list[XyzzPoint] | None) -> None:
        return None

    def window_reduce(
        self, window_results: list[XyzzPoint | None]
    ) -> tuple[EventCounters, None]:
        counters = EventCounters()
        counters.cpu_pdbl = len(window_results) * self.s
        counters.cpu_padd = len(window_results)
        return counters, None

    def finalize_precompute(
        self, window_results: list[XyzzPoint | None]
    ) -> tuple[EventCounters, None]:
        return EventCounters(), None
