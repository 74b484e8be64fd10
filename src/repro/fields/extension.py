"""Tower extension fields: Fp2 -> Fp6 -> Fp12 (BN254 layout).

The pairing in :mod:`repro.zksnark.pairing` uses a flat polynomial basis
(``Fp[w]/(w^12 - 18 w^6 + 82)``), which is simple but hides the tower
structure real implementations exploit.  This module builds the classic
tower explicitly —

* ``Fp2  = Fp[u]  / (u^2 + 1)``
* ``Fp6  = Fp2[v] / (v^3 - xi)``        with ``xi = 9 + u``
* ``Fp12 = Fp6[w] / (w^2 - v)``

— with Karatsuba-style multiplication at each level.  Tests verify the two
representations are isomorphic (the map sends tower ``w`` to the flat
basis element ``w``, hence ``v`` to ``w^2`` and ``u`` to ``w^6 - 9``),
which cross-validates both implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.curves.params import curve_by_name

P = curve_by_name("BN254").p

#: the Fp2 non-residue used for the sextic twist: xi = 9 + u
XI = (9, 1)


@dataclass(frozen=True)
class Fp2:
    """``a + b u`` with ``u^2 = -1``."""

    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % P)
        object.__setattr__(self, "b", self.b % P)

    @staticmethod
    def zero() -> "Fp2":
        return Fp2(0, 0)

    @staticmethod
    def one() -> "Fp2":
        return Fp2(1, 0)

    def __add__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Fp2") -> "Fp2":
        return Fp2(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Fp2":
        return Fp2(-self.a, -self.b)

    def __mul__(self, other: "Fp2") -> "Fp2":
        # Karatsuba: 3 base multiplications
        t0 = self.a * other.a
        t1 = self.b * other.b
        t2 = (self.a + self.b) * (other.a + other.b)
        return Fp2(t0 - t1, t2 - t0 - t1)

    def scale(self, k: int) -> "Fp2":
        return Fp2(self.a * k, self.b * k)

    def mul_by_xi(self) -> "Fp2":
        """Multiply by the non-residue ``xi = 9 + u``."""
        return Fp2(9 * self.a - self.b, self.a + 9 * self.b)

    def square(self) -> "Fp2":
        # complex squaring: 2 base multiplications
        t = self.a * self.b
        return Fp2((self.a + self.b) * (self.a - self.b), 2 * t)

    def conjugate(self) -> "Fp2":
        return Fp2(self.a, -self.b)

    def inverse(self) -> "Fp2":
        norm = (self.a * self.a + self.b * self.b) % P
        if norm == 0:
            raise ZeroDivisionError("zero has no inverse in Fp2")
        inv = pow(norm, -1, P)
        return Fp2(self.a * inv, -self.b * inv)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


@dataclass(frozen=True)
class Fp6:
    """``c0 + c1 v + c2 v^2`` with ``v^3 = xi`` and ``ci`` in Fp2."""

    c0: Fp2
    c1: Fp2
    c2: Fp2

    @staticmethod
    def zero() -> "Fp6":
        return Fp6(Fp2.zero(), Fp2.zero(), Fp2.zero())

    @staticmethod
    def one() -> "Fp6":
        return Fp6(Fp2.one(), Fp2.zero(), Fp2.zero())

    def __add__(self, other: "Fp6") -> "Fp6":
        return Fp6(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "Fp6") -> "Fp6":
        return Fp6(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "Fp6":
        return Fp6(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other: "Fp6") -> "Fp6":
        # Toom-style 6-multiplication schoolbook with xi reductions
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = other.c0, other.c1, other.c2
        t00 = a0 * b0
        t11 = a1 * b1
        t22 = a2 * b2
        c0 = t00 + ((a1 + a2) * (b1 + b2) - t11 - t22).mul_by_xi()
        c1 = (a0 + a1) * (b0 + b1) - t00 - t11 + t22.mul_by_xi()
        c2 = (a0 + a2) * (b0 + b2) - t00 - t22 + t11
        return Fp6(c0, c1, c2)

    def mul_by_v(self) -> "Fp6":
        """Multiply by ``v`` (shift with an xi reduction)."""
        return Fp6(self.c2.mul_by_xi(), self.c0, self.c1)

    def inverse(self) -> "Fp6":
        a, b, c = self.c0, self.c1, self.c2
        t0 = a.square() - (b * c).mul_by_xi()
        t1 = c.square().mul_by_xi() - a * b
        t2 = b.square() - a * c
        denom = a * t0 + (c * t1).mul_by_xi() + (b * t2).mul_by_xi()
        inv = denom.inverse()
        return Fp6(t0 * inv, t1 * inv, t2 * inv)

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()


@dataclass(frozen=True)
class Fp12:
    """``d0 + d1 w`` with ``w^2 = v`` and ``di`` in Fp6."""

    d0: Fp6
    d1: Fp6

    @staticmethod
    def zero() -> "Fp12":
        return Fp12(Fp6.zero(), Fp6.zero())

    @staticmethod
    def one() -> "Fp12":
        return Fp12(Fp6.one(), Fp6.zero())

    def __add__(self, other: "Fp12") -> "Fp12":
        return Fp12(self.d0 + other.d0, self.d1 + other.d1)

    def __sub__(self, other: "Fp12") -> "Fp12":
        return Fp12(self.d0 - other.d0, self.d1 - other.d1)

    def __neg__(self) -> "Fp12":
        return Fp12(-self.d0, -self.d1)

    def __mul__(self, other: "Fp12") -> "Fp12":
        # Karatsuba over Fp6: 3 Fp6 multiplications
        t0 = self.d0 * other.d0
        t1 = self.d1 * other.d1
        t2 = (self.d0 + self.d1) * (other.d0 + other.d1)
        return Fp12(t0 + t1.mul_by_v(), t2 - t0 - t1)

    def square(self) -> "Fp12":
        return self * self

    def conjugate(self) -> "Fp12":
        """The ``Fp12 / Fp6`` conjugation (unitary inverse for pairings)."""
        return Fp12(self.d0, -self.d1)

    def inverse(self) -> "Fp12":
        denom = self.d0 * self.d0 - (self.d1 * self.d1).mul_by_v()
        inv = denom.inverse()
        return Fp12(self.d0 * inv, (-self.d1) * inv)

    def pow(self, exponent: int) -> "Fp12":
        if exponent < 0:
            return self.inverse().pow(-exponent)
        result = Fp12.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def is_zero(self) -> bool:
        return self.d0.is_zero() and self.d1.is_zero()


# -- conversion to the flat polynomial basis ---------------------------------
#
# flat basis: 1, w, w^2, ..., w^11 with w^12 = 18 w^6 - 82
# tower embedding: v = w^2, u = w^6 - 9
# an Fp2 element a + b u contributes a + b (w^6 - 9) at its position.


def tower_to_flat(x: Fp12) -> tuple:
    """Coefficients of ``x`` in the flat ``w``-power basis (length 12)."""
    coeffs = [0] * 12
    for six, w_off in ((x.d0, 0), (x.d1, 1)):
        for fp2, v_pow in ((six.c0, 0), (six.c1, 1), (six.c2, 2)):
            pos = 2 * v_pow + w_off  # v^k w^j = w^(2k + j)
            coeffs[pos] = (coeffs[pos] + fp2.a - 9 * fp2.b) % P
            coeffs[pos + 6] = (coeffs[pos + 6] + fp2.b) % P
    return tuple(coeffs)


def flat_to_tower(coeffs) -> Fp12:
    """Inverse of :func:`tower_to_flat`."""
    if len(coeffs) != 12:
        raise ValueError("need 12 coefficients")
    sixes = []
    for w_off in (0, 1):
        fp2s = []
        for v_pow in (0, 1, 2):
            pos = 2 * v_pow + w_off
            b = coeffs[pos + 6] % P
            a = (coeffs[pos] + 9 * b) % P
            fp2s.append(Fp2(a, b))
        sixes.append(Fp6(*fp2s))
    return Fp12(sixes[0], sixes[1])
