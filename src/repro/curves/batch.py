"""Batch XYZZ point arithmetic over lane-vectorized field arrays.

Struct-of-arrays mirror of :mod:`repro.curves.point`: a batch of ``N``
XYZZ points is four field lane arrays (X, Y, ZZ, ZZZ), a batch of affine
points is two lane arrays plus an infinity mask.  The group-law functions
reproduce :func:`repro.curves.point.xyzz_add` / :func:`xyzz_acc` /
:func:`pdbl` *including every special case* — identity operands, doubling
(P + P), and inverse (P + (-P)) — via lane masks, because bucket columns on
small curves hit all of them routinely.

Correctness contract: for any lane, decoding the batch result yields the
same canonical integers as running the scalar function on the decoded
inputs.  The differential test tier pins this on the toy curve, the only
kind of curve the single-limb :class:`~repro.fields.batch.BatchPrimeField`
accepts (``p < 2^32``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.curves.params import CurveParams
from repro.curves.point import AffinePoint, XyzzPoint
from repro.fields.batch import BatchPrimeField


@dataclass
class BatchXyzz:
    """``n`` XYZZ points as four field lane arrays; ``zz == 0`` is identity."""

    x: np.ndarray
    y: np.ndarray
    zz: np.ndarray
    zzz: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, idx: np.ndarray) -> "BatchXyzz":
        """Gather lanes by index (numpy fancy indexing, copies)."""
        return BatchXyzz(self.x[idx], self.y[idx], self.zz[idx], self.zzz[idx])

    def put(self, idx: np.ndarray, src: "BatchXyzz") -> None:
        """Scatter ``src`` into lanes ``idx`` in place."""
        self.x[idx] = src.x
        self.y[idx] = src.y
        self.zz[idx] = src.zz
        self.zzz[idx] = src.zzz


@dataclass
class BatchAffine:
    """``n`` affine points as two lane arrays plus an infinity mask."""

    x: np.ndarray
    y: np.ndarray
    infinity: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, idx: np.ndarray) -> "BatchAffine":
        return BatchAffine(self.x[idx], self.y[idx], self.infinity[idx])


class BatchCurve:
    """Vectorized group law for one curve over its :class:`BatchPrimeField`.

    Constructed once per curve via :func:`batch_curve`; holds the encoded
    curve constant ``a`` so point ops are allocation-only.  Raises
    ``ValueError`` when the base field does not fit the batch lanes.
    """

    def __init__(self, curve: CurveParams):
        self.curve = curve
        self.field: BatchPrimeField = BatchPrimeField(curve.p)
        self._a = self.field.constant(curve.a)

    # -- encoding ----------------------------------------------------------

    def encode_affine(self, points: Sequence[AffinePoint]) -> BatchAffine:
        """Affine points -> lane arrays (infinity lanes encode as zeros)."""
        xs = [0 if pt.infinity else pt.x for pt in points]
        ys = [0 if pt.infinity else pt.y for pt in points]
        inf = np.fromiter(
            (pt.infinity for pt in points), dtype=bool, count=len(points)
        )
        return BatchAffine(self.field.encode(xs), self.field.encode(ys), inf)

    def encode_xyzz(self, points: Sequence[XyzzPoint]) -> BatchXyzz:
        f = self.field
        return BatchXyzz(
            f.encode([pt.x for pt in points]),
            f.encode([pt.y for pt in points]),
            f.encode([pt.zz for pt in points]),
            f.encode([pt.zzz for pt in points]),
        )

    def identity(self, n: int) -> BatchXyzz:
        f = self.field
        return BatchXyzz(f.zeros(n), f.zeros(n), f.zeros(n), f.zeros(n))

    def from_affine(self, pts: BatchAffine) -> BatchXyzz:
        """Lift affine lanes to XYZZ (ZZ = ZZZ = 1; infinity -> identity)."""
        f = self.field
        n = len(pts)
        one = np.broadcast_to(f.constant(1), f.zeros(n).shape).copy()
        zero = f.zeros(n)
        fin = ~pts.infinity
        return BatchXyzz(
            f.select(fin, pts.x, zero),
            f.select(fin, pts.y, zero),
            f.select(fin, one, zero),
            f.select(fin, one, zero),
        )

    def decode(self, pts: BatchXyzz) -> list[XyzzPoint]:
        """Lane arrays -> scalar :class:`XyzzPoint` list (canonical ints)."""
        f = self.field
        xs, ys = f.decode(pts.x), f.decode(pts.y)
        zzs, zzzs = f.decode(pts.zz), f.decode(pts.zzz)
        return [
            XyzzPoint.identity() if zz == 0 else XyzzPoint(x, y, zz, zzz)
            for x, y, zz, zzz in zip(xs, ys, zzs, zzzs)
        ]

    def is_identity(self, pts: BatchXyzz) -> np.ndarray:
        return self.field.is_zero(pts.zz)

    def neg_affine(self, pts: BatchAffine, mask: np.ndarray) -> BatchAffine:
        """Negate the lanes selected by ``mask`` (mirror across the x axis)."""
        f = self.field
        return BatchAffine(
            pts.x, f.select(mask, f.neg(pts.y), pts.y), pts.infinity
        )

    # -- group law ---------------------------------------------------------

    def pdbl(self, pts: BatchXyzz) -> BatchXyzz:
        """Lanewise PDBL (dbl-2008-s-1); identity and y == 0 lanes -> identity."""
        f = self.field
        u = f.double(pts.y)
        v = f.mul(u, u)
        w = f.mul(u, v)
        s = f.mul(pts.x, v)
        m = f.add(
            f.triple(f.mul(pts.x, pts.x)),
            f.mul(f.mul(self._a, pts.zz), pts.zz),
        )
        x3 = f.sub(f.mul(m, m), f.double(s))
        y3 = f.sub(f.mul(m, f.sub(s, x3)), f.mul(w, pts.y))
        zz3 = f.mul(v, pts.zz)
        zzz3 = f.mul(w, pts.zzz)
        dead = np.logical_or(self.is_identity(pts), f.is_zero(pts.y))
        zero = f.zeros(len(pts))
        return BatchXyzz(
            f.select(dead, zero, x3),
            f.select(dead, zero, y3),
            f.select(dead, zero, zz3),
            f.select(dead, zero, zzz3),
        )

    def add(self, p1: BatchXyzz, p2: BatchXyzz) -> BatchXyzz:
        """Lanewise general PADD matching :func:`repro.curves.point.xyzz_add`."""
        f = self.field
        u1 = f.mul(p1.x, p2.zz)
        u2 = f.mul(p2.x, p1.zz)
        s1 = f.mul(p1.y, p2.zzz)
        s2 = f.mul(p2.y, p1.zzz)
        pp_ = f.sub(u2, u1)
        r = f.sub(s2, s1)
        pp = f.mul(pp_, pp_)
        ppp = f.mul(pp, pp_)
        q = f.mul(u1, pp)
        x3 = f.sub(f.sub(f.mul(r, r), ppp), f.double(q))
        y3 = f.sub(f.mul(r, f.sub(q, x3)), f.mul(s1, ppp))
        zz3 = f.mul(f.mul(p1.zz, p2.zz), pp)
        zzz3 = f.mul(f.mul(p1.zzz, p2.zzz), ppp)
        out = BatchXyzz(x3, y3, zz3, zzz3)

        id1 = self.is_identity(p1)
        id2 = self.is_identity(p2)
        degenerate = np.logical_and(
            f.is_zero(pp_), np.logical_not(np.logical_or(id1, id2))
        )
        self._patch_degenerate(out, degenerate, f.is_zero(r), p1)
        self._select_into(out, id1, p2)
        self._select_into(out, id2, p1)
        return out

    def acc(self, acc: BatchXyzz, pts: BatchAffine) -> BatchXyzz:
        """Lanewise PACC (mixed add) matching :func:`xyzz_acc`."""
        f = self.field
        u2 = f.mul(pts.x, acc.zz)
        s2 = f.mul(pts.y, acc.zzz)
        pp_ = f.sub(u2, acc.x)
        r = f.sub(s2, acc.y)
        pp = f.mul(pp_, pp_)
        ppp = f.mul(pp, pp_)
        q = f.mul(acc.x, pp)
        x3 = f.sub(f.sub(f.mul(r, r), ppp), f.double(q))
        y3 = f.sub(f.mul(r, f.sub(q, x3)), f.mul(acc.y, ppp))
        zz3 = f.mul(acc.zz, pp)
        zzz3 = f.mul(acc.zzz, ppp)
        out = BatchXyzz(x3, y3, zz3, zzz3)

        acc_id = self.is_identity(acc)
        pt_inf = pts.infinity
        degenerate = np.logical_and(
            f.is_zero(pp_),
            np.logical_not(np.logical_or(acc_id, pt_inf)),
        )
        self._patch_degenerate(out, degenerate, f.is_zero(r), acc)
        self._select_into(out, acc_id, self.from_affine(pts))
        self._select_into(out, pt_inf, acc)
        return out

    # -- mask plumbing -----------------------------------------------------

    def _patch_degenerate(
        self,
        out: BatchXyzz,
        degenerate: np.ndarray,
        r_zero: np.ndarray,
        base: BatchXyzz,
    ) -> None:
        """Overwrite degenerate (pp_ == 0) lanes: double if r == 0 else identity.

        The doubling is computed on the gathered sub-batch only; degenerate
        lanes are rare in bucket workloads, so the gather keeps the common
        path free of a full-width PDBL.
        """
        idx = np.nonzero(degenerate)[0]
        if idx.size == 0:
            return
        doubled = self.pdbl(base.take(idx))
        dbl_lane = r_zero[idx]
        f = self.field
        zero = f.zeros(idx.size)
        patch = BatchXyzz(
            f.select(dbl_lane, doubled.x, zero),
            f.select(dbl_lane, doubled.y, zero),
            f.select(dbl_lane, doubled.zz, zero),
            f.select(dbl_lane, doubled.zzz, zero),
        )
        out.put(idx, patch)

    def _select_into(self, out: BatchXyzz, mask: np.ndarray, src: BatchXyzz) -> None:
        """``out[lane] = src[lane]`` wherever ``mask`` holds."""
        f = self.field
        out.x = f.select(mask, src.x, out.x)
        out.y = f.select(mask, src.y, out.y)
        out.zz = f.select(mask, src.zz, out.zz)
        out.zzz = f.select(mask, src.zzz, out.zzz)


_BATCH_CURVES: dict[str, BatchCurve] = {}


def batch_curve(curve: CurveParams) -> BatchCurve:
    """Shared :class:`BatchCurve` per curve name (constants encoded once)."""
    cached = _BATCH_CURVES.get(curve.name)
    if cached is None or cached.curve.p != curve.p:
        cached = BatchCurve(curve)
        _BATCH_CURVES[curve.name] = cached
    return cached
