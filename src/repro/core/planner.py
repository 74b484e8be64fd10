"""Distribution of Pippenger work across GPUs (paper §3.2.2).

Three strategies, matching :class:`repro.core.config.DistMsmConfig`:

* **bucket-split** (DistMSM): windows are dealt to GPUs; when there are more
  GPUs than windows, a window's *buckets* are split across its GPU group.
  Fractional splits are supported ("two GPUs handle 2/3 of each window, the
  third handles the remaining 1/3 of both") — realised by launching a
  different number of thread blocks.
* **windows**: whole windows only; surplus GPUs idle (the naive W-dim port).
* **ndim**: every GPU takes ``N / N_gpu`` points across *all* windows and
  runs a full single-GPU Pippenger; the host merges per-GPU window partials
  (how the paper augments baselines without multi-GPU support).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Assignment:
    """One GPU's share of one window.

    ``bucket_lo`` / ``bucket_hi`` are fractions of the window's bucket range
    (0..1); ``point_lo`` / ``point_hi`` are fractions of the point vector.
    """

    gpu: int
    window: int
    bucket_lo: float = 0.0
    bucket_hi: float = 1.0
    point_lo: float = 0.0
    point_hi: float = 1.0

    @property
    def bucket_share(self) -> float:
        return self.bucket_hi - self.bucket_lo

    @property
    def point_share(self) -> float:
        return self.point_hi - self.point_lo


@dataclass
class Plan:
    """The full work distribution for one MSM execution."""

    num_gpus: int
    num_windows: int
    strategy: str
    assignments: list = field(default_factory=list)

    def for_window(self, window: int) -> list:
        return [a for a in self.assignments if a.window == window]

    def validate(self) -> None:
        """Every window's bucket x point area must be covered exactly once."""
        for w in range(self.num_windows):
            parts = self.for_window(w)
            if not parts:
                raise ValueError(f"window {w} unassigned")
            area = sum(a.bucket_share * a.point_share for a in parts)
            if abs(area - 1.0) > 1e-9:
                raise ValueError(f"window {w} covered {area:.6f} times")


def make_plan(num_windows: int, num_gpus: int, strategy: str = "bucket-split") -> Plan:
    """Build the work distribution for ``num_windows`` over ``num_gpus``."""
    if num_windows <= 0 or num_gpus <= 0:
        raise ValueError("window and GPU counts must be positive")
    builders = {
        "bucket-split": _plan_bucket_split,
        "windows": _plan_windows,
        "ndim": _plan_ndim,
    }
    if strategy not in builders:
        raise ValueError(f"unknown strategy {strategy!r}")
    plan = builders[strategy](num_windows, num_gpus)
    plan.validate()
    return plan


def _plan_windows(num_windows: int, num_gpus: int) -> Plan:
    assignments = []
    for w in range(num_windows):
        assignments.append(Assignment(gpu=w % num_gpus, window=w))
    return Plan(num_gpus, num_windows, "windows", assignments)


def _plan_ndim(num_windows: int, num_gpus: int) -> Plan:
    assignments = []
    for g in range(num_gpus):
        lo, hi = g / num_gpus, (g + 1) / num_gpus
        for w in range(num_windows):
            assignments.append(
                Assignment(gpu=g, window=w, point_lo=lo, point_hi=hi)
            )
    return Plan(num_gpus, num_windows, "ndim", assignments)


def _plan_bucket_split(num_windows: int, num_gpus: int) -> Plan:
    """Even fractional split of window-bucket ranges over GPUs.

    Lay the ``num_windows`` unit intervals end to end and cut the combined
    range into ``num_gpus`` equal slices; each slice becomes one GPU's set of
    (window, bucket-range) assignments.  This realises both the whole-window
    case (slices align with window boundaries when N_gpu divides N_win) and
    the paper's flexible fractional example.
    """
    assignments = []
    total = float(num_windows)
    per_gpu = total / num_gpus
    for g in range(num_gpus):
        start, end = g * per_gpu, (g + 1) * per_gpu
        w = int(start)
        while w < num_windows and w < end - 1e-12:
            lo = max(0.0, start - w)
            hi = min(1.0, end - w)
            if hi - lo > 1e-12:
                assignments.append(
                    Assignment(gpu=g, window=w, bucket_lo=lo, bucket_hi=hi)
                )
            w += 1
    return Plan(num_gpus, num_windows, "bucket-split", assignments)
