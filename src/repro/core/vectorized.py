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
from repro.curves.batch import BatchAffine, BatchCurve, BatchXyzz, batch_curve
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
            return np.asarray(scalars, dtype=np.uint64).reshape(len(scalars), 1)
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
    neg_y: np.ndarray
    flat: bool
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
        enc = bc.encode_affine(points)
        return cls(bc, digits, enc, bc.field.neg(enc.y), flat=False)

    @classmethod
    def from_flat(
        cls,
        digits: list[int],
        negate: list[bool],
        points: list[AffinePoint],
        curve: CurveParams,
    ) -> "VectorizedStream":
        bc = batch_curve(curve)
        enc = bc.encode_affine(points)
        return cls(
            bc,
            np.asarray(digits, dtype=_I64),
            enc,
            bc.field.neg(enc.y),
            flat=True,
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

    n = int(digits.shape[0])
    nonzero = np.nonzero(digits)[0]
    nnz = int(nonzero.size)

    counters = EventCounters()
    counters.kernel_launches = 1
    if config.scatter == "hierarchical":
        _shm_check(num_buckets, config, gpu.scatter_shm_bytes)
        capacity = config.threads_per_block * config.points_per_thread
        blocks = max(1, math.ceil(n / capacity))
        # one global atomic per (block, non-empty local bucket) pair
        pair_keys = (nonzero // capacity) * np.int64(num_buckets) + digits[nonzero]
        commits = int(np.unique(pair_keys).size)
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

    compact = digits[nonzero]
    order_in_nonzero = np.argsort(compact, kind="stable")
    order = nonzero[order_in_nonzero]
    counts = np.bincount(compact.astype(np.int64), minlength=num_buckets)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return VectorizedScatter(order, counts, starts, counters)


# -- segmented bucket sum ------------------------------------------------------


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
    """
    bc = stream.bc
    f = bc.field
    counts = scat.counts
    num_buckets = int(counts.shape[0])
    members = int(scat.order.shape[0])

    lanes_per_bucket = np.minimum(n_threads, np.maximum(1, counts)).astype(_I64)
    lane_base = np.concatenate(([0], np.cumsum(lanes_per_bucket)[:-1]))
    total_lanes = int(lanes_per_bucket.sum())
    acc = bc.identity(total_lanes)

    counters = EventCounters()
    counters.kernel_launches = 1
    counters.pacc = members
    counters.padd = int((lanes_per_bucket - 1).sum())

    if members:
        bucket_of = np.repeat(
            np.nonzero(counts)[0], counts[np.nonzero(counts)[0]]
        )
        pos_in_bucket = np.arange(members, dtype=_I64) - scat.starts[bucket_of]
        lanes_of = lanes_per_bucket[bucket_of]
        lane_ids = lane_base[bucket_of] + pos_in_bucket % lanes_of
        round_of = pos_in_bucket // lanes_of

        # process members grouped by round: each lane sees its members in
        # ascending position order, one per round, mirroring the scalar deal
        round_order = np.argsort(round_of, kind="stable")
        round_sizes = np.bincount(round_of.astype(np.int64))
        cursor = 0
        for size in round_sizes:
            take = round_order[cursor : cursor + int(size)]
            cursor += int(size)
            local = scat.order[take]
            sel_pids = local + pid_offset
            pts = BatchAffine(
                stream.points.x[sel_pids],
                stream.points.y[sel_pids],
                stream.points.infinity[sel_pids],
            )
            if negate is not None:
                neg_mask = negate[local]
                pts = BatchAffine(
                    pts.x,
                    f.select(neg_mask, stream.neg_y[sel_pids], pts.y),
                    pts.infinity,
                )
            lanes = lane_ids[take]
            acc.put(lanes, bc.acc(acc.take(lanes), pts))

    # binary-tree fold of each bucket's lanes (scalar: half = ceil(T/2))
    width = lanes_per_bucket.copy()
    while int(width.max(initial=1)) > 1:
        half = (width + 1) // 2
        merges = width - half
        active = np.nonzero(merges > 0)[0]
        reps = merges[active]
        seg_starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
        offs = np.arange(int(reps.sum()), dtype=_I64) - np.repeat(seg_starts, reps)
        left = np.repeat(lane_base[active], reps) + offs
        right = left + np.repeat(half[active], reps)
        acc.put(left, bc.add(acc.take(left), acc.take(right)))
        width = half

    firsts = acc.take(lane_base) if num_buckets else bc.identity(0)
    return VectorizedBucketSums(bc.decode(firsts), counters)
