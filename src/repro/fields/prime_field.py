"""Prime-field element API used by the curve and zkSNARK layers.

The hot loops of the MSM engines work on raw Python integers for speed; this
module provides the ergonomic wrapper used by public APIs, the pairing tower
and Groth16, where readability matters more than the last microsecond.
"""

from __future__ import annotations

from repro.fields.limbs import limb_count


class FieldElement:
    """An element of a fixed prime field.

    Instances are immutable; all arithmetic returns new elements.  Operations
    between elements of different fields raise ``ValueError`` rather than
    silently coercing.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        self.field = field
        self.value = value % field.modulus

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field.modulus != self.field.modulus:
                raise ValueError("cannot mix elements of different fields")
            return other
        if isinstance(other, int):
            return FieldElement(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, other.value - self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.field, -self.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        return FieldElement(self.field, pow(self.value, exponent, self.field.modulus))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; raises ``ZeroDivisionError`` for zero."""
        if self.value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return FieldElement(self.field, pow(self.value, -1, self.field.modulus))

    def sqrt(self) -> "FieldElement | None":
        """A square root if one exists, else ``None`` (Tonelli–Shanks)."""
        root = self.field.sqrt(self.value)
        return None if root is None else FieldElement(self.field, root)

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field.modulus == other.field.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.field.modulus, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"Fp({self.value:#x} mod {self.field.modulus:#x})"


class PrimeField:
    """A prime field ``GF(p)``; a factory for :class:`FieldElement`.

    >>> fp = PrimeField(13)
    >>> int(fp(7) * fp(8))
    4
    """

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.num_limbs = limb_count(modulus.bit_length())

    def __call__(self, value: int) -> FieldElement:
        return FieldElement(self, value)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def random(self, rng) -> FieldElement:
        """A uniformly random element drawn from ``rng`` (``random.Random``)."""
        return FieldElement(self, rng.randrange(self.modulus))

    def sqrt(self, a: int) -> int | None:
        """Integer square root of ``a`` mod p, or ``None`` if non-residue."""
        p = self.modulus
        a %= p
        if a == 0:
            return 0
        if p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        return self._tonelli_shanks(a)

    def _tonelli_shanks(self, a: int) -> int:
        p = self.modulus
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2i, i = t, 0
            while t2i != 1:
                t2i = (t2i * t2i) % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, (b * b) % p
            t = (t * c) % p
            r = (r * b) % p
        return r

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("PrimeField", self.modulus))

    def __repr__(self):
        return f"PrimeField(bits={self.modulus.bit_length()})"
