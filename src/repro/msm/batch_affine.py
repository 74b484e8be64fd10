"""Batched-affine bucket accumulation — the ZPrize winners' trick (§6).

Affine point addition needs a modular inversion, which is normally fatal on
a GPU; but when *many independent* additions are performed at once, all the
inversions collapse into a single one via Montgomery's batch-inversion
trick (3 multiplications per element plus one shared inversion).  An
amortised affine addition then costs ~6 multiplications — cheaper than
XYZZ's 10-14 — which is why ZPrize-grade implementations (Yrrid, sppark)
accumulate buckets in rounds of pairwise batched affine additions.

This module implements the scheme for real (with all edge cases: identity
operands, doubling, inverse pairs) and exposes an MSM built on it, giving
the repository an executable reference for the baselines' arithmetic style.
Its bare-pair core, :func:`add_affine_pairs`, is also the production-curve
kernel of :func:`repro.core.bucket_sum.bucket_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint
from repro.curves.scalar import num_windows, unsigned_windows
from repro.msm.pippenger import PippengerStats, bucket_reduce, window_reduce
from repro.curves.point import XyzzPoint, to_affine


@dataclass
class BatchAffineStats:
    """Operation tallies for the batched-affine path."""

    additions: int = 0
    doublings: int = 0
    inversions: int = 0
    rounds: int = 0
    field_muls: int = 0


def batch_inverse(values: list[int], p: int, stats: BatchAffineStats | None = None) -> list[int]:
    """Invert many field elements with one modular inversion.

    Zeros are passed through as zeros (callers handle those cases
    separately).
    """
    out = [0] * len(values)
    nonzero = [i for i, v in enumerate(values) if v % p]
    if not nonzero:
        return out
    prefix = []  # product of the nonzero values before each one
    acc = 1
    for i in nonzero:
        prefix.append(acc)
        acc = acc * values[i] % p
    inv = pow(acc, -1, p)
    if stats is not None:
        stats.inversions += 1
        stats.field_muls += 3 * len(nonzero)
    for i, before in zip(reversed(nonzero), reversed(prefix)):
        out[i] = inv * before % p
        inv = inv * values[i] % p
    return out


def add_affine_pairs(
    lhs: list, rhs: list, p: int, a: int, stats: BatchAffineStats | None = None
) -> list:
    """``lhs[i] + rhs[i]`` for every ``i``, sharing one inversion.

    Points are bare ``(x, y)`` tuples with ``None`` for the identity, so a
    hot loop builds no object per addition.  Identity operands and inverse
    pairs are settled without joining the batched inversion; a doubling
    (``P == Q``) joins it with the tangent's denominator ``2y``.
    """
    out: list = [None] * len(lhs)
    todo = []  # indices that need the shared inversion
    denominators = []
    for i, (P, Q) in enumerate(zip(lhs, rhs)):
        if P is None:
            out[i] = Q
        elif Q is None:
            out[i] = P
        elif P[0] != Q[0]:
            todo.append(i)
            denominators.append(Q[0] - P[0])
        elif (P[1] + Q[1]) % p:
            todo.append(i)
            denominators.append(2 * P[1])
        # else an inverse pair: the sum stays the identity

    inverses = batch_inverse(denominators, p, stats)
    for i, inv in zip(todo, inverses):
        (x1, y1), (x2, y2) = lhs[i], rhs[i]
        if x1 != x2:
            slope = (y2 - y1) * inv % p
        else:
            slope = (3 * x1 * x1 + a) * inv % p
        x3 = (slope * slope - x1 - x2) % p
        out[i] = (x3, (slope * (x1 - x3) - y1) % p)
    if stats is not None:
        doublings = sum(1 for i in todo if lhs[i][0] == rhs[i][0])
        stats.doublings += doublings
        stats.additions += len(todo) - doublings
        stats.field_muls += 3 * len(todo)  # slope product + slope^2 + final product
    return out


def _bare(pt: AffinePoint) -> tuple[int, int] | None:
    return None if pt.infinity else (pt.x, pt.y)


def batch_affine_add_pairs(
    pairs: list,
    curve: CurveParams,
    stats: BatchAffineStats | None = None,
) -> list[AffinePoint]:
    """Add many independent pairs of affine points with one inversion.

    Each element of ``pairs`` is ``(P, Q)``; the result list holds
    ``P + Q``, with the edge cases of :func:`add_affine_pairs`.
    """
    sums = add_affine_pairs(
        [_bare(lhs) for lhs, _ in pairs],
        [_bare(rhs) for _, rhs in pairs],
        curve.p,
        curve.a,
        stats,
    )
    return [AffinePoint.identity() if s is None else AffinePoint(*s) for s in sums]


def bucket_sums_batch_affine(
    buckets: list,
    curve: CurveParams,
    stats: BatchAffineStats | None = None,
) -> list[AffinePoint]:
    """Sum every bucket's members via rounds of batched pairwise additions.

    Per round, each bucket pairs up its remaining points; all pairs across
    all buckets share one inversion.  ``log2(max bucket)`` rounds total.
    """
    work = [list(members) for members in buckets]
    while any(len(m) > 1 for m in work):
        if stats is not None:
            stats.rounds += 1
        pair_refs = []
        pairs = []
        for b, members in enumerate(work):
            for i in range(0, len(members) - 1, 2):
                pair_refs.append((b, i // 2))
                pairs.append((members[i], members[i + 1]))
        results = batch_affine_add_pairs(pairs, curve, stats)
        next_work = [[] for _ in work]
        for (b, slot), result in zip(pair_refs, results):
            next_work[b].append(result)
        for b, members in enumerate(work):
            if len(members) % 2:
                next_work[b].append(members[-1])
        work = next_work
    return [m[0] if m else AffinePoint.identity() for m in work]


def msm_batch_affine(
    scalars: list[int],
    points: list[AffinePoint],
    curve: CurveParams,
    window_size: int = 8,
    stats: BatchAffineStats | None = None,
) -> AffinePoint:
    """Pippenger MSM with batched-affine bucket accumulation."""
    if len(scalars) != len(points):
        raise ValueError(
            f"length mismatch: {len(scalars)} scalars, {len(points)} points"
        )
    if not scalars:
        return AffinePoint.identity()
    if stats is None:
        stats = BatchAffineStats()
    s = window_size
    n_win = num_windows(curve.scalar_bits, s)
    num_buckets = 1 << s
    pip_stats = PippengerStats()

    digit_rows = [unsigned_windows(k, s, n_win) for k in scalars]
    window_results = []
    for w in range(n_win):
        buckets: list[list[AffinePoint]] = [[] for _ in range(num_buckets)]
        for row, pt in zip(digit_rows, points):
            digit = row[w]
            if digit:
                buckets[digit].append(pt)
        sums = bucket_sums_batch_affine(buckets, curve, stats)
        xyzz = [XyzzPoint.from_affine(pt) for pt in sums]
        window_results.append(bucket_reduce(xyzz, curve, pip_stats))
    return to_affine(window_reduce(window_results, s, curve, pip_stats), curve)
