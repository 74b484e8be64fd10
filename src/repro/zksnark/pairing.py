"""The BN254 optimal-ate pairing, implemented from scratch.

Tower: ``Fp2 = Fp[i]/(i^2 + 1)`` and ``Fp12 = Fp[w]/(w^12 - 18 w^6 + 82)``
(equivalent to the usual ``Fp12 = Fp6[w]/(w^2 - v)`` with
``v^3 = 9 + i``: setting ``w^6 = 9 + i`` gives exactly that minimal
polynomial).  G2 points over Fp2 are mapped into Fp12 via the sextic twist,
and the Miller loop accumulates line-function values at the G1 point.

The final exponentiation is the plain ``(p^12 - 1) / r`` power — slow but
unambiguous; :func:`pairing_check` batches several pairs under a single
final exponentiation, which is what Groth16 verification needs.

Verified properties (see tests): non-degeneracy, bilinearity
``e(aP, bQ) = e(P, Q)^(ab)``, and inverse behaviour ``e(-P, Q) e(P, Q) = 1``.
"""

from __future__ import annotations

from functools import lru_cache

from repro.curves.params import BN254_T, curve_by_name

_BN254 = curve_by_name("BN254")
P = _BN254.p
R = _BN254.r

#: optimal-ate loop count: 6t + 2 for the BN parameter t
ATE_LOOP_COUNT = 6 * BN254_T + 2
LOG_ATE_LOOP_COUNT = ATE_LOOP_COUNT.bit_length() - 2  # 63

FQ2_MODULUS_COEFFS = (1, 0)  # i^2 = -1
FQ12_MODULUS_COEFFS = (82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0)  # w^12 = 18w^6 - 82


class FQP:
    """An element of ``Fp[x] / (x^degree + modulus poly)``.

    Coefficients are ints mod ``prime``; subclasses fix the base prime and
    the modulus polynomial.
    """

    degree = 0
    modulus_coeffs: tuple = ()
    prime = P

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if len(coeffs) != self.degree:
            raise ValueError(
                f"{type(self).__name__} needs {self.degree} coefficients, "
                f"got {len(coeffs)}"
            )
        self.coeffs = tuple(int(c) % self.prime for c in coeffs)

    # construction helpers ------------------------------------------------

    @classmethod
    def one(cls):
        return cls([1] + [0] * (cls.degree - 1))

    @classmethod
    def from_int(cls, value: int):
        return cls([value] + [0] * (cls.degree - 1))

    # arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).from_int(other)
        if isinstance(other, type(self)):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return type(self)([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return type(self)([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)([c * other for c in self.coeffs])
        if not isinstance(other, type(self)):
            return NotImplemented
        deg = self.degree
        buf = [0] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                buf[i + j] += a * b
        # reduce by the modulus polynomial
        for top_idx in range(len(buf) - 1, deg - 1, -1):
            top = buf[top_idx]
            if not top:
                continue
            offset = top_idx - deg
            for i, m in enumerate(self.modulus_coeffs):
                if m:
                    buf[offset + i] -= top * m
            buf[top_idx] = 0
        return type(self)([c % self.prime for c in buf[:deg]])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = type(self).one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def inverse(self):
        """Extended-Euclid inverse in the polynomial quotient ring."""
        deg = self.degree
        p = self.prime
        lm, hm = [1] + [0] * deg, [0] * (deg + 1)
        low = list(self.coeffs) + [0]
        high = list(self.modulus_coeffs) + [1]
        while _poly_deg(low):
            r = _poly_rounded_div(high, low, p)
            r += [0] * (deg + 1 - len(r))
            nm, new = list(hm), list(high)
            for i in range(deg + 1):
                for j in range(deg + 1 - i):
                    nm[i + j] -= lm[i] * r[j]
                    new[i + j] -= low[i] * r[j]
            nm = [x % p for x in nm]
            new = [x % p for x in new]
            lm, low, hm, high = nm, new, lm, low
        if low[0] == 0:
            raise ZeroDivisionError("element is not invertible")
        inv_low0 = pow(low[0], -1, p)
        return type(self)([c * inv_low0 % p for c in lm[:deg]])

    # comparisons ----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}{self.coeffs}"


def _poly_deg(coeffs: list) -> int:
    d = len(coeffs) - 1
    while d and coeffs[d] == 0:
        d -= 1
    return d


def _poly_rounded_div(a: list, b: list, prime: int = P) -> list:
    deg_a, deg_b = _poly_deg(a), _poly_deg(b)
    temp = list(a)
    out = [0] * len(a)
    b_lead_inv = pow(b[deg_b], -1, prime)
    for i in range(deg_a - deg_b, -1, -1):
        out[i] = (out[i] + temp[deg_b + i] * b_lead_inv) % prime
        for c in range(deg_b + 1):
            temp[c + i] = (temp[c + i] - out[i] * b[c]) % prime
    return out[: _poly_deg(out) + 1]


class FQ2(FQP):
    degree = 2
    modulus_coeffs = FQ2_MODULUS_COEFFS


class FQ12(FQP):
    degree = 12
    modulus_coeffs = FQ12_MODULUS_COEFFS


# -- generic affine curve arithmetic over any of the fields ------------------
# points are (x, y) tuples of field elements; None is the point at infinity


def is_on_curve_fq(pt, b) -> bool:
    if pt is None:
        return True
    x, y = pt
    return y * y - x * x * x == b


def point_double(pt):
    if pt is None:
        return None
    x, y = pt
    if y.is_zero() if hasattr(y, "is_zero") else y == 0:
        return None
    m = (3 * x * x) / (2 * y)
    nx = m * m - 2 * x
    ny = m * (x - nx) - y
    return (nx, ny)


def point_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 == y2:
            return point_double(p1)
        return None
    m = (y2 - y1) / (x2 - x1)
    nx = m * m - x1 - x2
    ny = m * (x1 - nx) - y1
    return (nx, ny)


def point_neg(pt):
    if pt is None:
        return None
    x, y = pt
    return (x, -y)


def point_mul(pt, k: int):
    if k < 0:
        return point_mul(point_neg(pt), -k)
    result = None
    addend = pt
    while k:
        if k & 1:
            result = point_add(result, addend)
        addend = point_double(addend)
        k >>= 1
    return result


# -- group generators ---------------------------------------------------------

#: twisted-curve coefficient: b2 = 3 / (9 + i)
B2 = FQ2([3, 0]) / FQ2([9, 1])
B12 = FQ12.from_int(3)

G2_GENERATOR = (
    FQ2(
        [
            10857046999023057135944570762232829481370756359578518086990519993285655852781,
            11559732032986387107991004021392285783925812861821192530917403151452391805634,
        ]
    ),
    FQ2(
        [
            8495653923123431417604973247489272438418190587263600148770280649306958101930,
            4082367875863433681332203403145435568316851327593401208105741076214120093531,
        ]
    ),
)

G1_GENERATOR = (_BN254.gx, _BN254.gy)


def twist(pt):
    """Map a G2 point (over Fp2) onto the curve over Fp12.

    Uses the field isomorphism sending ``i`` to ``w^6 - 9``, then scales by
    ``w^2`` / ``w^3`` to land on the untwisted curve.
    """
    if pt is None:
        return None
    x, y = pt
    xc = [x.coeffs[0] - 9 * x.coeffs[1], x.coeffs[1]]
    yc = [y.coeffs[0] - 9 * y.coeffs[1], y.coeffs[1]]
    nx = FQ12([xc[0], 0, 0, 0, 0, 0, xc[1], 0, 0, 0, 0, 0])
    ny = FQ12([yc[0], 0, 0, 0, 0, 0, yc[1], 0, 0, 0, 0, 0])
    w = FQ12([0, 1] + [0] * 10)
    return (nx * w**2, ny * w**3)


def cast_g1_to_fq12(pt):
    """Embed a G1 point (int coordinates) into the Fp12 curve."""
    if pt is None:
        return None
    x, y = pt
    return (FQ12.from_int(x), FQ12.from_int(y))


# -- Miller loop ----------------------------------------------------------------


def _linefunc(p1, p2, t):
    """Evaluate the line through p1, p2 at point t (all over Fp12)."""
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        m = (y2 - y1) / (x2 - x1)
        return m * (xt - x1) - (yt - y1)
    if y1 == y2:
        m = (3 * x1 * x1) / (2 * y1)
        return m * (xt - x1) - (yt - y1)
    return xt - x1


def miller_loop(q, p_pt) -> FQ12:
    """The optimal-ate Miller loop, *without* final exponentiation.

    ``q`` is a twisted G2 point over Fp12; ``p_pt`` a G1 point over Fp12.
    """
    if q is None or p_pt is None:
        return FQ12.one()
    r_pt = q
    f = FQ12.one()
    for i in range(LOG_ATE_LOOP_COUNT, -1, -1):
        f = f * f * _linefunc(r_pt, r_pt, p_pt)
        r_pt = point_double(r_pt)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _linefunc(r_pt, q, p_pt)
            r_pt = point_add(r_pt, q)
    # Frobenius endomorphism applications
    q1 = (q[0] ** P, q[1] ** P)
    nq2 = (q1[0] ** P, -(q1[1] ** P))
    f = f * _linefunc(r_pt, q1, p_pt)
    r_pt = point_add(r_pt, q1)
    f = f * _linefunc(r_pt, nq2, p_pt)
    return f


@lru_cache(maxsize=1)
def _final_exponent() -> int:
    return (P**12 - 1) // R


def final_exponentiate(f: FQ12) -> FQ12:
    """Raise a Miller-loop output to ``(p^12 - 1) / r``."""
    return f ** _final_exponent()


def pairing(q2, p1) -> FQ12:
    """The full pairing ``e(P1, Q2)`` for G1 point ``p1`` and G2 point ``q2``.

    ``p1`` is an (x, y) int tuple or None; ``q2`` an (FQ2, FQ2) tuple or None.
    """
    _check_inputs(q2, p1)
    f = miller_loop(twist(q2), cast_g1_to_fq12(p1))
    return final_exponentiate(f)


def pairing_check(pairs: list) -> bool:
    """Whether ``prod e(P_i, Q_i) == 1`` — one shared final exponentiation.

    ``pairs`` is a list of (G1 point, G2 point) tuples.  This is the 4-pair
    product Groth16 verification evaluates.
    """
    acc = FQ12.one()
    for p1, q2 in pairs:
        _check_inputs(q2, p1)
        acc = acc * miller_loop(twist(q2), cast_g1_to_fq12(p1))
    return final_exponentiate(acc) == FQ12.one()


def _check_inputs(q2, p1) -> None:
    if p1 is not None:
        x, y = p1
        if (y * y - x * x * x - 3) % P:
            raise ValueError("G1 point is not on the curve")
    if q2 is not None and not is_on_curve_fq(q2, B2):
        raise ValueError("G2 point is not on the twisted curve")


def g2_mul(pt, k: int):
    """Scalar multiplication in G2 (affine, over Fp2)."""
    return point_mul(pt, k)


def g2_add(p1, p2):
    return point_add(p1, p2)
