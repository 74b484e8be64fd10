"""Scalar window decomposition for Pippenger's algorithm.

Pippenger splits each λ-bit scalar into ``ceil(λ/s)`` windows of ``s`` bits
(§2.3).  Two recodings are provided:

* ``unsigned_windows`` — the textbook decomposition with digits in
  ``[0, 2^s)``.
* ``signed_windows`` — the signed-digit recoding used by competition-grade
  implementations (ZPrize winners, §6): digits in ``(-2^(s-1), 2^(s-1)]``,
  halving the number of buckets because ``-d`` buckets fold onto ``d`` via
  point negation.
"""

from __future__ import annotations


def num_windows(scalar_bits: int, window_size: int) -> int:
    """``ceil(λ / s)`` — the number of Pippenger windows."""
    if window_size <= 0:
        raise ValueError(f"window size must be positive, got {window_size}")
    return -(-scalar_bits // window_size)


def unsigned_windows(k: int, window_size: int, count: int) -> list[int]:
    """Split ``k`` into ``count`` unsigned ``window_size``-bit digits.

    >>> unsigned_windows(0b101101, 2, 3)
    [1, 3, 2]
    """
    if k < 0:
        raise ValueError("scalars must be non-negative")
    mask = (1 << window_size) - 1
    digits = []
    for _ in range(count):
        digits.append(k & mask)
        k >>= window_size
    if k:
        raise ValueError("scalar does not fit in the requested windows")
    return digits


def signed_windows(k: int, window_size: int, count: int) -> list[int]:
    """Signed-digit decomposition with digits in ``(-2^(s-1), 2^(s-1)]``.

    Digits ``d > 2^(s-1)`` are replaced by ``d - 2^s`` with a carry into the
    next window.  One extra digit slot is returned (``count + 1``) to hold a
    possible final carry; the identity ``sum(d_j * 2^(j*s)) == k`` always
    holds.
    """
    if k < 0:
        raise ValueError("scalars must be non-negative")
    base = 1 << window_size
    half = base >> 1
    digits = []
    carry = 0
    for _ in range(count):
        digit = (k & (base - 1)) + carry
        k >>= window_size
        if digit > half:
            digit -= base
            carry = 1
        else:
            carry = 0
        digits.append(digit)
    if k:
        raise ValueError("scalar does not fit in the requested windows")
    digits.append(carry)
    return digits


def wnaf(k: int, width: int) -> list[int]:
    """Width-``w`` non-adjacent form: digits are zero or odd in
    ``(-2^(w-1), 2^(w-1))``, with at most one non-zero digit per ``w``
    consecutive positions.

    The sparse recoding single-scalar multipliers use:
    ``sum(d_i * 2^i) == k`` always holds, and the expected non-zero density
    is ``1/(w+1)``.

    >>> wnaf(7, 2)
    [-1, 0, 0, 1]
    """
    if width < 2:
        raise ValueError(f"wNAF width must be >= 2, got {width}")
    if k < 0:
        return [-d for d in wnaf(-k, width)]
    digits = []
    base = 1 << width
    half = base >> 1
    while k:
        if k & 1:
            d = k % base
            if d >= half:
                d -= base
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits
