"""Highly parallel bucket-sum (paper §3.2.2).

Each bucket gets ``N_thread`` threads (a warp multiple): members are dealt
round-robin to the threads, each accumulates its share with PACC, and the
partial sums merge in a binary reduction tree (``log2(N_thread)`` PADDs per
thread in SIMD terms, ``N_thread - 1`` PADDs in total).  The functional
implementation executes this structure faithfully — including the tree — so
its results and its operation counts are both real.

Every PACC round and every tree level is a batch of independent additions
across all buckets.  :func:`bucket_sum` walks the lane structure once,
collects those batches, then runs each one with one of two kernels chosen
by :func:`uses_affine_kernel`: batched-affine additions sharing one
inversion per batch (``repro.msm.batch_affine.add_affine_pairs``) on the
production curves, or the XYZZ ``xyzz_acc``/``xyzz_add`` formulas per pair
on single-limb fields, whose partials then match the numpy lanes of
:mod:`repro.core.vectorized` bit for bit.  Both kernels give the same group
elements and the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import XyzzPoint, affine_neg, xyzz_acc, xyzz_add
from repro.gpu.counters import EventCounters
from repro.gpu.trace import Kind, MemoryTrace, Space
from repro.msm.batch_affine import add_affine_pairs


@dataclass
class BucketSumOutput:
    """Functional bucket-sum result: one XYZZ partial per bucket."""

    sums: list  # bucket id -> XyzzPoint
    counters: EventCounters


def threads_per_bucket(
    num_buckets: int,
    concurrent_threads: int,
    minimum: int = 32,
    warp: int = 32,
) -> int:
    """Threads allocated to each bucket to keep the GPU saturated.

    When ``2^s < N_T`` the paper assigns ``N_T / 2^s`` threads per bucket,
    rounded down to warp granularity, never below ``minimum`` (itself
    rounded up to the warp).
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    floor = max(warp, -(-minimum // warp) * warp)  # minimum, rounded up to the warp
    return max(floor, (concurrent_threads // num_buckets) // warp * warp)


def uses_affine_kernel(curve: CurveParams) -> bool:
    """Whether :func:`bucket_sum` adds in batched affine coordinates.

    True exactly for the fields wider than the single-limb batch lanes
    (``p >= 2^32``): there a Python-int addition costs its modular
    multiplications, and a batched-affine one needs ~6 against XYZZ's
    10-14.  Smaller fields keep the XYZZ formulas.
    """
    return curve.p >= 1 << 32


def bucket_sum(
    buckets: list,
    points: list,
    curve: CurveParams,
    n_threads: int,
    negate: list | None = None,
    tracer: MemoryTrace | None = None,
    block_id: int = 0,
) -> BucketSumOutput:
    """Sum each bucket's points with ``n_threads`` threads per bucket.

    ``buckets`` holds point-id lists (scatter output); ``negate`` optionally
    flags point ids to accumulate negated (signed-digit support).  A bucket
    with ``len`` members runs ``T = min(n_threads, max(1, len))`` lanes:
    member ``i`` goes to lane ``i % T`` in round ``i // T``, then lane ``i``
    absorbs lane ``half + i`` (``half = ceil(T/2)``) level by level.  With a
    ``tracer`` attached, each bucket's partial-sum stores and the tree
    reduction's cross-lane reads — with the barrier separating every level —
    are recorded for the ``repro.verify`` race detector; the trace is the
    same whichever kernel runs.
    """
    if n_threads <= 0:
        raise ValueError("n_threads must be positive")

    counters = EventCounters()
    counters.kernel_launches = 1
    lane_base = []  # bucket id -> its first lane
    rounds: list[tuple[list, list]] = []  # PACC round -> (lanes, point ids)
    levels: list[tuple[list, list]] = []  # tree level -> (left lanes, right lanes)
    n_lanes = 0
    for bucket_id, members in enumerate(buckets):
        width = min(n_threads, max(1, len(members)))
        base = n_lanes
        lane_base.append(base)
        n_lanes += width
        for r, start in enumerate(range(0, len(members), width)):
            if r == len(rounds):
                rounds.append(([], []))
            dealt = members[start : start + width]
            rounds[r][0].extend(range(base, base + len(dealt)))
            rounds[r][1].extend(dealt)
        counters.pacc += len(members)
        if tracer is not None:
            _trace_bucket(tracer, block_id, bucket_id, n_threads, len(members), width)
        level = 0
        while width > 1:
            half = (width + 1) // 2
            if level == len(levels):
                levels.append(([], []))
            levels[level][0].extend(range(base, base + width - half))
            levels[level][1].extend(range(base + half, base + width))
            counters.padd += width - half
            width = half
            level += 1

    run = _affine_sums if uses_affine_kernel(curve) else _xyzz_sums
    sums = run(n_lanes, rounds, levels, lane_base, points, curve, negate)
    return BucketSumOutput(sums, counters)


def _trace_bucket(
    tracer: MemoryTrace,
    block_id: int,
    bucket: int,
    n_threads: int,
    members: int,
    width: int,
) -> None:
    """One bucket's partial-sum accesses, in the order its lanes run them."""

    def record(lane: int, slot: int, kind: Kind) -> None:
        tracer.record(
            Space.SHARED,
            "partials",
            bucket * n_threads + slot,
            kind,
            atomic=False,
            block=block_id,
            thread=bucket * n_threads + lane,
        )

    for i in range(members):
        record(i % width, i % width, Kind.WRITE)
    while width > 1:
        tracer.barrier(block_id)
        half = (width + 1) // 2
        for i in range(width - half):
            record(i, half + i, Kind.READ)
            record(i, i, Kind.WRITE)
        width = half


def _xyzz_sums(n_lanes, rounds, levels, lane_base, points, curve, negate) -> list:
    """Run the batches pair by pair with the XYZZ PACC and PADD formulas."""
    acc = [XyzzPoint.identity()] * n_lanes
    for dst, pids in rounds:
        for lane, point_id in zip(dst, pids):
            pt = points[point_id]
            if negate and negate[point_id]:
                pt = affine_neg(pt, curve)  # preserves the identity
            acc[lane] = xyzz_acc(acc[lane], pt, curve)
    for left, right in levels:
        for i, j in zip(left, right):
            acc[i] = xyzz_add(acc[i], acc[j], curve)
    return [acc[base] for base in lane_base]


def _affine_sums(n_lanes, rounds, levels, lane_base, points, curve, negate) -> list:
    """Run each batch as affine additions sharing one inversion.

    Lanes hold bare ``(x, y)`` pairs (``None`` = identity); the bucket sums
    come back as XYZZ points with ``zz = zzz = 1``.
    """
    p, a = curve.p, curve.a

    def operand(point_id: int) -> tuple[int, int] | None:
        pt = points[point_id]
        if pt.infinity:
            return None
        if negate and negate[point_id]:
            return pt.x, -pt.y % p
        return pt.x, pt.y

    acc: list = [None] * n_lanes
    for r, (dst, pids) in enumerate(rounds):
        operands = [operand(k) for k in pids]
        # the first round meets only empty lanes: its sums are its operands
        sums = add_affine_pairs([acc[i] for i in dst], operands, p, a) if r else operands
        for i, pt in zip(dst, sums):
            acc[i] = pt
    for left, right in levels:
        sums = add_affine_pairs([acc[i] for i in left], [acc[j] for j in right], p, a)
        for i, pt in zip(left, sums):
            acc[i] = pt
    return [
        XyzzPoint.identity() if acc[base] is None else XyzzPoint(*acc[base], 1, 1)
        for base in lane_base
    ]


# -- analytic counterpart -----------------------------------------------------


def bucket_sum_counts(
    n_points: int,
    num_buckets: int,
    n_threads: int,
) -> EventCounters:
    """Expected bucket-sum event counts for one window (or window slice).

    PACC per non-zero digit; ``n_threads - 1`` tree PADDs per active bucket.
    """
    counters = EventCounters()
    nonzero = n_points * (num_buckets - 1) / max(1, num_buckets)
    active = expected_active_buckets(n_points, num_buckets)
    counters.pacc = int(round(nonzero))
    counters.padd = int(round(active * (min(n_threads, max(1.0, nonzero / max(active, 1e-9))) - 1)))
    counters.kernel_launches = 1
    return counters


def expected_active_buckets(n_points: int, num_buckets: int) -> float:
    """Expected buckets with at least one member (excludes bucket 0)."""
    if num_buckets <= 1:
        return 0.0
    usable = num_buckets - 1
    if n_points <= 0:
        return 0.0
    return usable * (1.0 - (1.0 - 1.0 / num_buckets) ** n_points)
