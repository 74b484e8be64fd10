"""Window-collapse precomputation (paper §2.3.1).

For a fixed point vector, competition-grade implementations precompute
``2^{s} P_i, 2^{2s} P_i, ...`` so window ``j``'s contribution of ``P_i``
becomes a plain point that can be summed together with every other window's
points.  The whole MSM then collapses into a single logical window: one large
bucket-sum followed by one bucket-reduce, no window-reduce doublings.

The point vector being constant across proofs (§2.2) is what makes the table
reusable; its cost is amortised, so the evaluation treats it as offline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    affine_neg,
    pdbl,
    to_affine,
    xyzz_acc,
)
from repro.curves.sampling import batch_to_affine
from repro.curves.scalar import num_windows, signed_windows, unsigned_windows
from repro.msm.pippenger import PippengerStats, bucket_reduce


def precompute_tables(
    points: list[AffinePoint],
    curve: CurveParams,
    window_size: int,
    windows: int,
) -> list[list[AffinePoint]]:
    """Build per-window shifted copies: table[j][i] = 2^(j*s) * P_i."""
    tables = [list(points)]
    current = [XyzzPoint.from_affine(pt) for pt in points]
    for _ in range(1, windows):
        shifted = []
        for pt in current:
            for _ in range(window_size):
                pt = pdbl(pt, curve)
            shifted.append(pt)
        tables.append(batch_to_affine(shifted, curve))
        current = shifted
    return tables


@dataclass
class CacheStats:
    """Hit/miss accounting of one LRU cache: a :class:`PrecomputeTableCache`
    here, a :class:`repro.serve.plancache.PlanCache` in the serving layer."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PrecomputeTableCache:
    """LRU cache of precompute tables, keyed by (curve, s, point vector).

    The point vector being constant across proofs (§2.2) is the whole
    premise of precomputation — but :func:`precompute_tables` used to be
    recomputed on every call, paying ``windows * s`` doublings per point
    each time.  This cache memoizes the tables so repeated MSMs over the
    same fixed points (every proof of one circuit, every request of one
    serving workload) pay the doubling cost once.

    A cached entry with more windows than requested serves the request
    with its prefix (table ``j`` only depends on ``j``); a request for
    more windows than cached recomputes and replaces the entry.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, list[list[AffinePoint]]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(points: list[AffinePoint], curve: CurveParams, window_size: int) -> tuple:
        return (curve.name, window_size, tuple(points))

    def tables_for(
        self,
        points: list[AffinePoint],
        curve: CurveParams,
        window_size: int,
        windows: int,
    ) -> list[list[AffinePoint]]:
        key = self._key(points, curve, window_size)
        cached = self._entries.get(key)
        if cached is not None and len(cached) >= windows:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return cached[:windows]
        self.stats.misses += 1
        tables = precompute_tables(points, curve, window_size, windows)
        self._entries[key] = tables
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return tables

    def clear(self) -> None:
        self._entries.clear()
        self.stats = CacheStats()


#: the process-wide default cache (what the DistMSM backends go through)
_DEFAULT_CACHE = PrecomputeTableCache()


def precompute_cache() -> PrecomputeTableCache:
    """The process-wide precompute table cache."""
    return _DEFAULT_CACHE


def cached_precompute_tables(
    points: list[AffinePoint],
    curve: CurveParams,
    window_size: int,
    windows: int,
) -> list[list[AffinePoint]]:
    """:func:`precompute_tables` through the process-wide LRU cache."""
    return _DEFAULT_CACHE.tables_for(points, curve, window_size, windows)


def msm_with_precompute(
    scalars: list[int],
    tables: list[list[AffinePoint]],
    curve: CurveParams,
    window_size: int,
    signed: bool = False,
    stats: PippengerStats | None = None,
) -> AffinePoint:
    """MSM over precomputed tables: one collapsed window (§2.3.1).

    ``tables`` must come from :func:`precompute_tables` with at least as many
    windows as the scalars need (one extra for ``signed=True``).
    """
    if stats is None:
        stats = PippengerStats()
    if not scalars:
        return AffinePoint.identity()
    lam = curve.scalar_bits
    n_win = num_windows(lam, window_size)
    needed = n_win + (1 if signed else 0)
    if len(tables) < needed:
        raise ValueError(f"need {needed} precomputed windows, got {len(tables)}")

    if signed:
        num_buckets = (1 << (window_size - 1)) + 1
        digit_rows = [signed_windows(k, window_size, n_win) for k in scalars]
        total_windows = n_win + 1
    else:
        num_buckets = 1 << window_size
        digit_rows = [unsigned_windows(k, window_size, n_win) for k in scalars]
        total_windows = n_win

    stats.windows = 1
    stats.window_size = window_size

    buckets: list[XyzzPoint] = [XyzzPoint.identity() for _ in range(num_buckets)]
    touched = [False] * num_buckets
    for point_id, digits in enumerate(digit_rows):
        for w in range(total_windows):
            digit = digits[w]
            if digit == 0:
                continue
            shifted = tables[w][point_id]
            if digit < 0:
                shifted = affine_neg(shifted, curve)
            buckets[abs(digit)] = xyzz_acc(buckets[abs(digit)], shifted, curve)
            stats.pacc += 1
            touched[abs(digit)] = True
    stats.buckets_touched = sum(touched)
    return to_affine(bucket_reduce(buckets, curve, stats), curve)
