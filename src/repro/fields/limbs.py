"""Word-level big-integer arithmetic on 32-bit limb vectors.

The paper's GPU kernels operate on big integers stored as vectors of 32-bit
registers ("limbs"): a 254-bit BN254 element needs 8 limbs, a 753-bit MNT4753
element needs 24.  This module provides the limb representation together with
schoolbook word-level arithmetic, instrumented with an :class:`OpCounter` so
higher layers can account for exactly how many 32x32-bit multiplications and
additions a kernel performs.  Those counts feed the GPU timing model.

Limb vectors are little-endian lists of Python ints, each in ``[0, 2**32)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1


@dataclass
class OpCounter:
    """Tally of word-level operations performed by limb arithmetic.

    Attributes mirror the instruction classes the paper's cost analysis cares
    about: 32x32->64 multiplies (``mul``), 32-bit additions/subtractions with
    carry (``add``), and plain register moves (``mov``).
    """

    mul: int = 0
    add: int = 0
    mov: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Total word operations (multiplies weighted as one op each)."""
        return self.mul + self.add + self.mov


def limb_count(bits: int) -> int:
    """Number of 32-bit limbs needed to store a ``bits``-bit integer."""
    if bits <= 0:
        raise ValueError(f"bit length must be positive, got {bits}")
    return -(-bits // WORD_BITS)


def to_limbs(value: int, n: int) -> list[int]:
    """Split a non-negative integer into ``n`` little-endian 32-bit limbs."""
    if value < 0:
        raise ValueError(f"cannot represent negative value {value} as limbs")
    if value >> (WORD_BITS * n):
        raise ValueError(f"value does not fit in {n} limbs: {value:#x}")
    return [(value >> (WORD_BITS * i)) & WORD_MASK for i in range(n)]


def limbs_sub(a: list[int], b: list[int], counter: OpCounter | None = None) -> tuple[list[int], int]:
    """Subtract ``b`` from ``a`` limb-wise; return (difference, borrow-out)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    out = []
    borrow = 0
    for x, y in zip(a, b):
        total = x - y - borrow
        out.append(total & WORD_MASK)
        borrow = 1 if total < 0 else 0
    if counter is not None:
        counter.add += len(a)
    return out, borrow


def limbs_mul(a: list[int], b: list[int], counter: OpCounter | None = None) -> list[int]:
    """Schoolbook multiply: ``len(a) + len(b)`` limbs of product.

    Each inner step is one 32x32->64 multiply plus the carry-chain additions,
    mirroring a ``mad.lo``/``mad.hi`` pair on a GPU.
    """
    na, nb = len(a), len(b)
    out = [0] * (na + nb)
    for i in range(na):
        carry = 0
        ai = a[i]
        for j in range(nb):
            total = out[i + j] + ai * b[j] + carry
            out[i + j] = total & WORD_MASK
            carry = total >> WORD_BITS
        out[i + nb] = carry
    if counter is not None:
        counter.mul += na * nb
        counter.add += 2 * na * nb  # lo and hi accumulate steps
    return out


def limbs_cmp(a: list[int], b: list[int]) -> int:
    """Three-way compare of equal-length limb vectors (-1, 0, or 1)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0
