"""Serial Pippenger's algorithm (paper §2.3) — the algorithmic reference.

The four phases match Figure 2 of the paper:

1. *bucket-scatter*: group point indices by their s-bit window digit;
2. *bucket-sum*: accumulate the points of each bucket (PACC operations);
3. *bucket-reduce*: combine buckets as ``sum(i * B_i)`` using the running
   suffix-sum trick (2·(2^s − 1) PADDs, no multiplications);
4. *window-reduce*: fold window results with s doublings between windows.

The implementation also records a :class:`PippengerStats` of group-operation
counts; the GPU cost models are validated against these counts on small
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    affine_neg,
    pdbl,
    to_affine,
    xyzz_acc,
    xyzz_add,
)
from repro.curves.scalar import num_windows, signed_windows, unsigned_windows


@dataclass
class PippengerStats:
    """Group-operation tallies per Pippenger phase."""

    pacc: int = 0
    padd: int = 0
    pdbl: int = 0
    buckets_touched: int = 0
    windows: int = 0
    window_size: int = 0


def default_window_size(n: int) -> int:
    """A serviceable single-threaded window size: ``~log2(N) - 3``.

    Matches the classic analysis minimising ``(λ/s)(N + 2^s)``.
    """
    if n <= 0:
        return 1
    return max(1, n.bit_length() - 3)


def bucket_reduce(bucket_sums: list[XyzzPoint], curve: CurveParams, stats: PippengerStats) -> XyzzPoint:
    """Compute ``sum(i * B_i)`` with the running suffix-sum trick.

    ``running`` accumulates ``B_max + ... + B_i`` while ``total`` accumulates
    the weighted sum; 2 PADDs per bucket, no scalar multiplications.
    Index 0 is skipped (its weight is zero).
    """
    running = XyzzPoint.identity()
    total = XyzzPoint.identity()
    for b in range(len(bucket_sums) - 1, 0, -1):
        running = xyzz_add(running, bucket_sums[b], curve)
        total = xyzz_add(total, running, curve)
        stats.padd += 2
    return total


def window_reduce(
    window_results: list[XyzzPoint],
    window_size: int,
    curve: CurveParams,
    stats: PippengerStats,
) -> XyzzPoint:
    """Fold window results most-significant first: s doublings per window."""
    acc = XyzzPoint.identity()
    for result in reversed(window_results):
        for _ in range(window_size):
            acc = pdbl(acc, curve)
            stats.pdbl += 1
        acc = xyzz_add(acc, result, curve)
        stats.padd += 1
    return acc


def pippenger_msm(
    scalars: list[int],
    points: list[AffinePoint],
    curve: CurveParams,
    window_size: int | None = None,
    signed: bool = False,
    stats: PippengerStats | None = None,
) -> AffinePoint:
    """Serial Pippenger MSM.

    Parameters
    ----------
    window_size:
        Window width ``s``; defaults to the classic ``log2(N) - 3`` heuristic.
    signed:
        Use signed-digit recoding, halving the bucket count (negative digits
        accumulate the negated point into bucket ``|d|``).
    stats:
        Optional tally of group operations, filled in place.
    """
    if len(scalars) != len(points):
        raise ValueError(f"length mismatch: {len(scalars)} scalars, {len(points)} points")
    if stats is None:
        stats = PippengerStats()
    if not scalars:
        return AffinePoint.identity()

    s = window_size if window_size is not None else default_window_size(len(scalars))
    if s < 1:
        raise ValueError(f"window size must be >= 1, got {s}")
    lam = curve.scalar_bits
    n_win = num_windows(lam, s)
    stats.windows = n_win + (1 if signed else 0)
    stats.window_size = s

    if signed:
        digit_rows = [signed_windows(k, s, n_win) for k in scalars]
        n_win += 1  # carry window
        num_buckets = (1 << (s - 1)) + 1
    else:
        digit_rows = [unsigned_windows(k, s, n_win) for k in scalars]
        num_buckets = 1 << s

    window_results = []
    for w in range(n_win):
        buckets: list[list[AffinePoint]] = [[] for _ in range(num_buckets)]
        for point_id, digits in enumerate(digit_rows):
            digit = digits[w]
            if digit > 0:
                buckets[digit].append(points[point_id])
            elif digit < 0:
                buckets[-digit].append(affine_neg(points[point_id], curve))
        sums = []
        for members in buckets:
            acc = XyzzPoint.identity()
            for pt in members:
                acc = xyzz_acc(acc, pt, curve)
                stats.pacc += 1
            if members:
                stats.buckets_touched += 1
            sums.append(acc)
        window_results.append(bucket_reduce(sums, curve, stats))

    return to_affine(window_reduce(window_results, s, curve, stats), curve)
