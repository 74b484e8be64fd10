"""Elliptic-curve point arithmetic in affine and XYZZ coordinates.

The XYZZ system represents a point as ``(X, Y, ZZ, ZZZ)`` with affine
coordinates ``x = X/ZZ``, ``y = Y/ZZZ`` and the invariant ``ZZ^3 = ZZZ^2``.
The paper's kernels use it because a general point addition (PADD,
Algorithm 1) needs 14 modular multiplications and the mixed-input
accumulation variant (PACC, Algorithm 4) only 10 — no modular inversion.

Functions here are the *functional reference*: bit-exact group arithmetic on
Python ints.  The GPU layer charges time for these operations through the
kernel cost model; this module is where correctness lives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.params import CurveParams
from repro.curves.scalar import wnaf


@dataclass(frozen=True)
class AffinePoint:
    """An affine point, or the point at infinity when ``infinity`` is True."""

    x: int = 0
    y: int = 0
    infinity: bool = False

    @staticmethod
    def identity() -> "AffinePoint":
        return AffinePoint(0, 0, True)

    def __repr__(self):
        if self.infinity:
            return "AffinePoint(infinity)"
        return f"AffinePoint({self.x:#x}, {self.y:#x})"


@dataclass(frozen=True)
class XyzzPoint:
    """A point in XYZZ coordinates; ``zz == 0`` encodes the identity."""

    x: int = 0
    y: int = 0
    zz: int = 0
    zzz: int = 0

    @staticmethod
    def identity() -> "XyzzPoint":
        return XyzzPoint(0, 0, 0, 0)

    @staticmethod
    def from_affine(pt: AffinePoint) -> "XyzzPoint":
        if pt.infinity:
            return XyzzPoint.identity()
        return XyzzPoint(pt.x, pt.y, 1, 1)

    @property
    def is_identity(self) -> bool:
        return self.zz == 0


# Modular-multiplication counts per operation, used by the kernel cost model.
PADD_MODMULS = 14
PACC_MODMULS = 10
PDBL_MODMULS = 9


def xyzz_add(p1: XyzzPoint, p2: XyzzPoint, curve: CurveParams) -> XyzzPoint:
    """General PADD in XYZZ coordinates (paper Algorithm 1).

    Handles the identity, doubling (equal inputs) and inverse (P = -Q)
    special cases that the algorithm's happy path assumes away.
    """
    if p1.is_identity:
        return p2
    if p2.is_identity:
        return p1
    p = curve.p
    u1 = p1.x * p2.zz % p
    u2 = p2.x * p1.zz % p
    s1 = p1.y * p2.zzz % p
    s2 = p2.y * p1.zzz % p
    pp_ = (u2 - u1) % p
    r = (s2 - s1) % p
    if pp_ == 0:
        if r == 0:
            return pdbl(p1, curve)
        return XyzzPoint.identity()
    pp = pp_ * pp_ % p
    ppp = pp * pp_ % p
    q = u1 * pp % p
    x3 = (r * r - ppp - 2 * q) % p
    y3 = (r * (q - x3) - s1 * ppp) % p
    zz3 = p1.zz * p2.zz % p * pp % p
    zzz3 = p1.zzz * p2.zzz % p * ppp % p
    return XyzzPoint(x3, y3, zz3, zzz3)


def xyzz_acc(acc: XyzzPoint, pt: AffinePoint, curve: CurveParams) -> XyzzPoint:
    """PACC: accumulate an affine point into an XYZZ partial sum (Alg. 4).

    Exploits ``ZZ = ZZZ = 1`` for the incoming point, dropping four modular
    multiplications relative to the general PADD.
    """
    if pt.infinity:
        return acc
    return _pacc(acc, pt.x, pt.y, curve)


def _pacc(acc: XyzzPoint, x: int, y: int, curve: CurveParams) -> XyzzPoint:
    """PACC of the affine point ``(x, y)``, taken as bare coordinates."""
    if acc.is_identity:
        return XyzzPoint(x, y, 1, 1)
    p = curve.p
    u2 = x * acc.zz % p
    s2 = y * acc.zzz % p
    pp_ = (u2 - acc.x) % p
    r = (s2 - acc.y) % p
    if pp_ == 0:
        if r == 0:
            return pdbl(acc, curve)
        return XyzzPoint.identity()
    pp = pp_ * pp_ % p
    ppp = pp * pp_ % p
    q = acc.x * pp % p
    x3 = (r * r - ppp - 2 * q) % p
    y3 = (r * (q - x3) - acc.y * ppp) % p
    zz3 = acc.zz * pp % p
    zzz3 = acc.zzz * ppp % p
    return XyzzPoint(x3, y3, zz3, zzz3)


def xyzz_on_curve(pt: XyzzPoint, curve: CurveParams) -> bool:
    """Whether ``pt`` is the identity or a point of the curve.

    XYZZ form of ``y^2 = x^3 + a*x + b``: ``Y^2 = X^3 + a*X*ZZ^2 + b*ZZ^3``
    together with the coordinate invariant ``ZZ^3 = ZZZ^2``.
    """
    zz = pt.zz
    if zz == 0:
        return True
    p, x = curve.p, pt.x
    if zz == 1 and pt.zzz == 1:
        return (pt.y * pt.y - (x * x + curve.a) * x - curve.b) % p == 0
    if zz % p == 0:
        return False
    zz2 = zz * zz % p
    zz3 = zz2 * zz % p
    if (zz3 - pt.zzz * pt.zzz) % p:
        return False
    return (pt.y * pt.y - (x * x % p * x + curve.a * x * zz2 + curve.b * zz3)) % p == 0


def pdbl(pt: XyzzPoint, curve: CurveParams) -> XyzzPoint:
    """PDBL in XYZZ coordinates (dbl-2008-s-1)."""
    if pt.is_identity:
        return pt
    p = curve.p
    if pt.y == 0:
        return XyzzPoint.identity()
    u = 2 * pt.y % p
    v = u * u % p
    w = u * v % p
    s = pt.x * v % p
    m = 3 * pt.x * pt.x
    if curve.a:
        m += curve.a * pt.zz % p * pt.zz
    m %= p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - w * pt.y) % p
    zz3 = v * pt.zz % p
    zzz3 = w * pt.zzz % p
    return XyzzPoint(x3, y3, zz3, zzz3)


def to_affine(pt: XyzzPoint, curve: CurveParams) -> AffinePoint:
    """Convert from XYZZ to affine coordinates (one inversion)."""
    if pt.is_identity:
        return AffinePoint.identity()
    p = curve.p
    zz_inv = pow(pt.zz, -1, p)
    zzz_inv = pow(pt.zzz, -1, p)
    return AffinePoint(pt.x * zz_inv % p, pt.y * zzz_inv % p)


def xyzz_neg(pt: XyzzPoint, curve: CurveParams) -> XyzzPoint:
    """Negate a point (mirror across the x axis)."""
    if pt.is_identity:
        return pt
    return XyzzPoint(pt.x, (-pt.y) % curve.p, pt.zz, pt.zzz)


def affine_neg(pt: AffinePoint, curve: CurveParams) -> AffinePoint:
    if pt.infinity:
        return pt
    return AffinePoint(pt.x, (-pt.y) % curve.p)


def pmul(pt: AffinePoint, k: int, curve: CurveParams) -> AffinePoint:
    """Point-scalar multiplication ``k * pt`` via double-and-add."""
    if k < 0:
        return pmul(affine_neg(pt, curve), -k, curve)
    acc = XyzzPoint.identity()
    base = XyzzPoint.from_affine(pt)
    while k:
        if k & 1:
            acc = xyzz_add(acc, base, curve)
        base = pdbl(base, curve)
        k >>= 1
    return to_affine(acc, curve)


def pmul_wnaf(pt: AffinePoint, k: int, curve: CurveParams, width: int = 4) -> AffinePoint:
    """Scalar multiplication via width-w NAF recoding (:func:`xyzz_mul`)."""
    return to_affine(xyzz_mul(XyzzPoint.from_affine(pt), k, curve, width), curve)


def xyzz_mul(pt: XyzzPoint, k: int, curve: CurveParams, width: int = 4) -> XyzzPoint:
    """``k * pt`` on an XYZZ point via width-w NAF recoding.

    Precomputes the odd multiples ``P, 3P, ..., (2^(w-1) - 1)P`` and their
    negatives, then walks the sparse digit string — the single-scalar
    analogue of Pippenger's windowing: one doubling per bit and ~1/(w+1)
    additions per bit, against ~1/2 for double-and-add.
    """
    if k < 0:
        return xyzz_mul(xyzz_neg(pt, curve), -k, curve, width)
    if k == 0 or pt.is_identity:
        return XyzzPoint.identity()
    digits = wnaf(k, width)

    # odd multiples: table[d] = (2d + 1) * P
    double_p = pdbl(pt, curve)
    table = [pt]
    for _ in range((1 << (width - 1)) // 2 - 1):
        table.append(xyzz_add(table[-1], double_p, curve))
    negated = [xyzz_neg(t, curve) for t in table]

    acc = XyzzPoint.identity()
    for digit in reversed(digits):
        acc = pdbl(acc, curve)
        if digit > 0:
            acc = xyzz_add(acc, table[digit >> 1], curve)
        elif digit < 0:
            acc = xyzz_add(acc, negated[-digit >> 1], curve)
    return acc


def weighted_bucket_sum(buckets: list, curve: CurveParams) -> XyzzPoint:
    """``sum_{b >= 1} b * B_b`` by the running suffix sum: two additions a bucket.

    The running sum takes a bucket with ``ZZ = ZZZ = 1`` (the affine
    partials :func:`repro.core.bucket_sum.bucket_sum` returns on production
    curves) by PACC and any other by PADD; the total adds the running sum
    by PADD.  Bucket 0 has weight zero and is never read.
    """
    running = total = XyzzPoint.identity()
    for b in range(len(buckets) - 1, 0, -1):
        pt = buckets[b]
        if pt.zz == 1 and pt.zzz == 1:
            running = _pacc(running, pt.x, pt.y, curve)
        else:
            running = xyzz_add(running, pt, curve)
        total = xyzz_add(total, running, curve)
    return total


def pmul_affine(pt: AffinePoint, k: int, p: int, a: int) -> AffinePoint:
    """Scalar multiplication with only (p, a) known — used during registry
    construction before a :class:`CurveParams` exists (cofactor clearing)."""
    stub = _LawOnly(p, a)
    acc = XyzzPoint.identity()
    base = XyzzPoint.from_affine(pt)
    while k:
        if k & 1:
            acc = xyzz_add(acc, base, stub)
        base = pdbl(base, stub)
        k >>= 1
    return to_affine(acc, stub)


class _LawOnly:
    """Minimal stand-in exposing just the fields the group law reads."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, a: int):
        self.p = p
        self.a = a
