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

    def merge(self, other: "OpCounter") -> None:
        """Accumulate another counter's tallies into this one."""
        self.mul += other.mul
        self.add += other.add
        self.mov += other.mov
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value

    @property
    def total(self) -> int:
        """Total word operations (multiplies weighted as one op each)."""
        return self.mul + self.add + self.mov

    def reset(self) -> None:
        self.mul = 0
        self.add = 0
        self.mov = 0
        self.extra.clear()


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


def from_limbs(limbs: list[int]) -> int:
    """Reassemble an integer from little-endian 32-bit limbs."""
    value = 0
    for i, limb in enumerate(limbs):
        if not 0 <= limb <= WORD_MASK:
            raise ValueError(f"limb {i} out of range: {limb:#x}")
        value |= limb << (WORD_BITS * i)
    return value


def limbs_add(a: list[int], b: list[int], counter: OpCounter | None = None) -> tuple[list[int], int]:
    """Add two equal-length limb vectors; return (sum limbs, carry-out).

    Models a chain of ``add.cc``/``addc`` instructions: one counted addition
    per limb.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    out = []
    carry = 0
    for x, y in zip(a, b):
        total = x + y + carry
        out.append(total & WORD_MASK)
        carry = total >> WORD_BITS
    if counter is not None:
        counter.add += len(a)
    return out, carry


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


def limbs_mul_word(a: list[int], w: int, counter: OpCounter | None = None) -> list[int]:
    """Multiply a limb vector by a single 32-bit word; returns len(a)+1 limbs."""
    if not 0 <= w <= WORD_MASK:
        raise ValueError(f"word out of range: {w:#x}")
    out = [0] * (len(a) + 1)
    carry = 0
    for i, x in enumerate(a):
        total = x * w + carry
        out[i] = total & WORD_MASK
        carry = total >> WORD_BITS
    out[len(a)] = carry
    if counter is not None:
        counter.mul += len(a)
        counter.add += len(a)
    return out


#: below this limb count Karatsuba's bookkeeping outweighs its savings
KARATSUBA_THRESHOLD = 8


def limbs_mul_karatsuba(
    a: list[int], b: list[int], counter: OpCounter | None = None
) -> list[int]:
    """Karatsuba multiplication: ~n^1.585 word multiplies.

    Splits each operand in half and trades one of the four half-products
    for extra additions.  For the paper's 24-limb MNT4753 operands this
    saves ~25% of the word multiplies over schoolbook; GPU kernels rarely
    use it (the irregular carry structure hurts SIMD), which is why it
    appears here as an ablation rather than in the kernel cost model.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n <= KARATSUBA_THRESHOLD or n % 2:
        return limbs_mul(a, b, counter)
    half = n // 2
    a_lo, a_hi = a[:half], a[half:]
    b_lo, b_hi = b[:half], b[half:]

    lo = limbs_mul_karatsuba(a_lo, b_lo, counter)  # n limbs
    hi = limbs_mul_karatsuba(a_hi, b_hi, counter)  # n limbs
    a_sum, a_carry = limbs_add(a_lo, a_hi, counter)
    b_sum, b_carry = limbs_add(b_lo, b_hi, counter)
    mid = limbs_mul_karatsuba(a_sum, b_sum, counter)  # n limbs
    # fold the carries of the half-sums back in:
    # (a_sum + ac*2^H)(b_sum + bc*2^H) = mid + (ac*b_sum + bc*a_sum)*2^H
    #                                    + ac*bc*2^2H
    mid_val = from_limbs(mid)
    if a_carry:
        mid_val += from_limbs(b_sum) << (WORD_BITS * half)
        if counter is not None:
            counter.add += half
    if b_carry:
        mid_val += from_limbs(a_sum) << (WORD_BITS * half)
        if counter is not None:
            counter.add += half
    if a_carry and b_carry:
        mid_val += 1 << (2 * WORD_BITS * half)

    lo_val = from_limbs(lo)
    hi_val = from_limbs(hi)
    cross = mid_val - lo_val - hi_val
    if counter is not None:
        counter.add += 4 * n  # the two wide subtractions
    total = lo_val + (cross << (WORD_BITS * half)) + (hi_val << (WORD_BITS * n))
    if counter is not None:
        counter.add += 2 * n
    return to_limbs(total, 2 * n)


def limbs_cmp(a: list[int], b: list[int]) -> int:
    """Three-way compare of equal-length limb vectors (-1, 0, or 1)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0
