"""Vectorized execution of the functional MSM hot paths.

The scalar :class:`~repro.core.backends.FunctionalBackend` walks every
(point, window) pair in Python — per-slot loops through
:func:`~repro.core.scatter.naive_scatter` /
:func:`~repro.core.scatter.hierarchical_scatter` and
:func:`~repro.core.bucket_sum.bucket_sum`.  This module computes the same
results with numpy array passes:

* **digits** — one ``(m, windows)`` matrix of signed/unsigned window
  digits for all scalars at once (:func:`window_digit_matrix`), identical
  entry-for-entry to :func:`repro.curves.scalar.signed_windows` /
  ``unsigned_windows``;
* **scatter** — a stable argsort groups point ids by bucket (the scalar
  schemes append members in ascending point-id order, so stable sorting
  reproduces the exact bucket contents), while the event counters the
  simulated GPU would have measured are computed in closed form *from the
  actual digit slice* — not expectations — and applied to the same
  :class:`~repro.gpu.device.SimulatedGpu` counter object the scalar path
  would have bumped;
* **bucket sum** — a segmented reduction over :class:`BatchXyzz` lanes
  that replicates the scalar round-robin deal (member ``i`` of a bucket
  with ``T`` lanes goes to lane ``i % T``) and the binary reduction tree
  (``half = ceil(T/2)``; lane ``i`` absorbs lane ``half + i``), so every
  per-bucket partial is bit-identical, not merely equal as a group
  element.

The backend takes this path exactly when the curve's base field fits the
single-limb batch lanes (``repro.core.backends.uses_batch_path``).  Larger
fields run the scalar digits and scatters and
:func:`~repro.core.bucket_sum.bucket_sum`, which walks the same lane
structure and adds each round and tree level as one batch of affine
additions on Python ints.  Per-access memory traces for the
``repro.verify`` race detector come from the scalar scatters and bucket
sum, which ``repro.verify.races`` calls directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import DistMsmConfig
from repro.curves.batch import BatchAffine, BatchCurve, batch_curve
from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint, XyzzPoint
from repro.gpu.counters import EventCounters
from repro.gpu.device import SharedMemoryExceeded, SimulatedGpu

_I64 = np.int64


# -- window digits -------------------------------------------------------------


def _scalars_to_words(scalars: list[int], total_bits: int) -> np.ndarray:
    """Scalars as ``(m, W)`` base-2^64 words; errors match the scalar API."""
    num_words = max(1, -(-total_bits // 64))
    try:
        if num_words == 1:
            # single-word fast path: a C-level array conversion instead of
            # one to_bytes call per scalar (the 2^20-scalar prepare cost)
            words = np.fromiter(scalars, dtype=np.uint64, count=len(scalars))
            return words.reshape(len(scalars), 1)
        blob = b"".join(int(k).to_bytes(num_words * 8, "little") for k in scalars)
    except (OverflowError, TypeError):
        if any(k < 0 for k in scalars):
            raise ValueError("scalars must be non-negative") from None
        raise ValueError("scalar does not fit in the requested windows") from None
    words = np.frombuffer(blob, dtype="<u8").reshape(len(scalars), num_words)
    return words.astype(np.uint64, copy=True)


def window_digit_matrix(
    scalars: list[int], window_size: int, count: int, signed: bool
) -> np.ndarray:
    """All scalars' window digits at once, as an ``(m, rows)`` int32 matrix.

    Row ``pid`` equals ``signed_windows(scalars[pid], s, count)`` (so
    ``rows == count + 1``, the extra column holding the final carry) or
    ``unsigned_windows(scalars[pid], s, count)`` (``rows == count``).
    Raises the same ``ValueError``\\ s as the scalar decompositions.
    """
    m = len(scalars)
    total_bits = window_size * count
    words = _scalars_to_words(scalars, total_bits)
    padded = np.zeros((m, words.shape[1] + 1), dtype=np.uint64)
    padded[:, : words.shape[1]] = words

    mask = np.uint64((1 << window_size) - 1)
    digits = np.empty((m, count + (1 if signed else 0)), dtype=np.int32)
    for w in range(count):
        bit = w * window_size
        word, shift = bit // 64, bit % 64
        if shift == 0:
            chunk = padded[:, word] & mask
        else:
            chunk = (
                (padded[:, word] >> np.uint64(shift))
                | (padded[:, word + 1] << np.uint64(64 - shift))
            ) & mask
        digits[:, w] = chunk.astype(np.int32)

    # any bits at or above s*count mean the scalar does not fit
    word, shift = total_bits // 64, total_bits % 64
    leftover = padded[:, word] >> np.uint64(shift) if shift else padded[:, word]
    if leftover.any() or padded[:, word + 1 :].any():
        raise ValueError("scalar does not fit in the requested windows")

    if signed:
        base = np.int32(1 << window_size)
        half = np.int32(1 << (window_size - 1))
        carry = np.zeros(m, dtype=np.int32)
        for w in range(count):
            d = digits[:, w] + carry
            over = d > half
            carry = over.astype(np.int32)
            digits[:, w] = d - base * carry
        digits[:, count] = carry
    return digits


# -- streams -------------------------------------------------------------------


@dataclass
class VectorizedStream:
    """Digit matrix plus batch-encoded points for one MSM execution.

    ``digits`` is ``(m, windows)`` for the windowed mode or ``(m,)`` of
    non-negative bucket indices for the flattened precompute mode (where
    ``negate`` carries the sign separately).
    """

    bc: BatchCurve
    digits: np.ndarray
    points: BatchAffine
    negate: np.ndarray | None = None

    @classmethod
    def from_windows(
        cls,
        scalars: list[int],
        points: list[AffinePoint],
        curve: CurveParams,
        s: int,
        n_win: int,
        signed: bool,
    ) -> "VectorizedStream":
        bc = batch_curve(curve)
        digits = window_digit_matrix(scalars, s, n_win, signed)
        return cls(bc, digits, bc.encode_affine(points))

    @classmethod
    def from_flat(
        cls,
        digits: list[int],
        negate: list[bool],
        points: list[AffinePoint],
        curve: CurveParams,
    ) -> "VectorizedStream":
        bc = batch_curve(curve)
        return cls(
            bc,
            np.asarray(digits, dtype=_I64),
            bc.encode_affine(points),
            negate=np.asarray(negate, dtype=bool),
        )


# -- scatter -------------------------------------------------------------------


@dataclass
class VectorizedScatter:
    """Argsort-grouped bucket membership for one assignment slice.

    ``order`` lists slice-local point ids sorted by bucket (stable, hence
    ascending within each bucket — exactly the append order of the scalar
    scatters); bucket ``b`` owns ``order[starts[b] : starts[b] + counts[b]]``.
    """

    order: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    counters: EventCounters


def _shm_check(num_buckets: int, config: DistMsmConfig, capacity_bytes: int) -> None:
    """Replicate the scalar path's shared-memory allocation failure."""
    counters_bytes = 4 * num_buckets
    cache_bytes = 4 * config.threads_per_block * config.points_per_thread
    if counters_bytes > capacity_bytes:
        raise SharedMemoryExceeded(
            f"requested {counters_bytes} B with 0 B in use "
            f"(capacity {capacity_bytes} B)"
        )
    if counters_bytes + cache_bytes > capacity_bytes:
        raise SharedMemoryExceeded(
            f"requested {cache_bytes} B with {counters_bytes} B in use "
            f"(capacity {capacity_bytes} B)"
        )


def vector_scatter(
    gpu: SimulatedGpu,
    digits: np.ndarray,
    num_buckets: int,
    config: DistMsmConfig,
) -> VectorizedScatter:
    """Group a digit slice by bucket and charge the scalar path's counters.

    ``digits`` holds non-negative bucket indices (0 = skip).  The returned
    counters — and the side effects on ``gpu.counters`` — are exactly what
    :func:`repro.core.scatter.naive_scatter` or ``hierarchical_scatter``
    would have produced for the same slice, computed from the actual digit
    values rather than sampled one event at a time.
    """
    from repro.core.scatter import COEFF_BYTES, POINT_ID_BYTES

    hierarchical = config.scatter == "hierarchical"
    if hierarchical:
        _shm_check(num_buckets, config, gpu.scatter_shm_bytes)
    n = int(digits.shape[0])
    nonzero = np.flatnonzero(digits != 0)
    nnz = int(nonzero.size)
    keys = digits[nonzero]
    if num_buckets <= 1 << 16:
        # numpy's stable sort is a radix sort on keys of at most 16 bits;
        # the naive scatter allows wider windows, whose ids keep their width
        keys = keys.astype(np.uint16)
    order = nonzero[np.argsort(keys, kind="stable")]
    counts = np.bincount(keys, minlength=num_buckets)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

    counters = EventCounters()
    counters.kernel_launches = 1
    if hierarchical:
        capacity = config.threads_per_block * config.points_per_thread
        blocks = max(1, math.ceil(n / capacity))
        # one global atomic per (block, non-empty local bucket) pair; ids
        # ascend within a bucket, so each pair is one run of ``order``,
        # split where the block or the bucket changes
        block = order // capacity
        split = block[1:] != block[:-1]
        inner = starts[(starts > 0) & (starts < nnz)]
        split[inner - 1] = True
        commits = int(np.count_nonzero(split)) + (nnz > 0)
        counters.shared_atomics = 2 * nnz
        counters.global_atomics = commits
        counters.prefix_sums = blocks
        counters.block_syncs = 3 * blocks
        counters.device_bytes = nnz * POINT_ID_BYTES
        gpu.counters.kernel_launches += 1
        gpu.counters.shared_atomics += 2 * nnz
        gpu.counters.global_atomics += commits
        gpu.counters.prefix_sums += blocks
        gpu.counters.block_syncs += 3 * blocks
        gpu.counters.device_bytes += nnz * POINT_ID_BYTES
    else:
        counters.global_atomics = nnz
        counters.device_bytes = nnz * POINT_ID_BYTES
        gpu.counters.kernel_launches += 1
        gpu.counters.global_atomics += nnz
    counters.device_bytes += n * COEFF_BYTES
    return VectorizedScatter(order, counts, starts, counters)


# -- segmented bucket sum ------------------------------------------------------

#: lanes per batch group-law call: each call's temporaries (8 B a lane)
#: stay cache-resident instead of being page-faulted afresh per round
_BLOCK = 1 << 14


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[j] .. starts[j] + lengths[j] - 1``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=_I64) + np.repeat(starts - (ends - lengths), lengths)


def _blocks(n: int):
    """Consecutive ``_BLOCK``-lane slices covering ``range(n)``."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


@dataclass
class VectorizedBucketSums:
    """Per-bucket XYZZ partials (decoded) plus bucket-sum counters."""

    sums: list[XyzzPoint]
    counters: EventCounters


def vector_bucket_sum(
    stream: VectorizedStream,
    scat: VectorizedScatter,
    pid_offset: int,
    negate: np.ndarray | None,
    n_threads: int,
) -> VectorizedBucketSums:
    """Segmented bucket accumulation matching ``bucket_sum`` bit-for-bit.

    ``scat.order`` holds slice-local point ids; ``pid_offset`` shifts them
    back into the stream's global index space (the scalar path's
    ``pid + p_lo``).  ``negate`` is indexed slice-locally and flags members
    accumulated with a negated y.  Lane structure: a bucket with ``len``
    members runs ``T = min(n_threads, max(1, len))`` lanes; member ``i``
    PACCs into lane ``i % T`` in ascending ``i`` order; lanes then fold
    through the scalar code's ``half = ceil(T/2)`` tree.

    Round ``r`` of bucket ``b`` is the contiguous run of up to ``T`` members
    from ``starts[b] + r * T`` of ``scat.order``, feeding the bucket's lanes
    from the first.  Every round and tree level runs in ``_BLOCK``-lane
    calls, and round 0 lifts its members, since ``PACC(O, P) = P``.
    """
    bc = stream.bc
    f = bc.field
    counts = scat.counts
    num_buckets = int(counts.shape[0])
    members = int(scat.order.shape[0])

    lanes_per_bucket = np.minimum(n_threads, np.maximum(1, counts)).astype(_I64)
    lane_base = np.concatenate(([0], np.cumsum(lanes_per_bucket)[:-1]))
    acc = bc.identity(int(lanes_per_bucket.sum()))

    counters = EventCounters()
    counters.kernel_launches = 1
    counters.pacc = members
    counters.padd = int((lanes_per_bucket - 1).sum())

    # per round: the positions in scat.order of its members, and their lanes
    rounds = -(-counts // lanes_per_bucket)
    sources, round_lanes = [], []
    for r in range(int(rounds.max(initial=0))):
        live = np.flatnonzero(rounds > r)
        first = r * lanes_per_bucket[live]
        width = np.minimum(lanes_per_bucket[live], counts[live] - first)
        sources.append(_runs(scat.starts[live] + first, width))
        round_lanes.append(_runs(lane_base[live], width))

    if members:
        # the members' operands, gathered once, round after round
        local = scat.order[np.concatenate(sources)]
        pts = stream.points.take(local + pid_offset)
        if negate is not None and negate.any():
            flip = negate[local]
            pts.y = f.select(flip, f.neg(pts.y), pts.y)
        done = 0
        for r, lanes in enumerate(round_lanes):
            feed = pts.take(slice(done, done + lanes.size))
            done += lanes.size
            for blk in _blocks(lanes.size):
                ids, new = lanes[blk], feed.take(blk)
                acc.put(ids, bc.from_affine(new) if r == 0 else bc.acc(acc.take(ids), new))

    # binary-tree fold of each bucket's lanes (scalar: half = ceil(T/2))
    width = lanes_per_bucket
    while int(width.max(initial=1)) > 1:
        half = (width + 1) // 2
        live = np.flatnonzero(width > 1)
        merges = width[live] - half[live]
        left = _runs(lane_base[live], merges)
        right = left + np.repeat(half[live], merges)
        for blk in _blocks(left.size):
            lo, hi = left[blk], right[blk]
            acc.put(lo, bc.add(acc.take(lo), acc.take(hi)))
        width = half

    firsts = acc.take(lane_base) if num_buckets else bc.identity(0)
    return VectorizedBucketSums(bc.decode(firsts), counters)
