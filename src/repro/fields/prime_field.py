"""Square roots in a prime field ``GF(p)``.

The MSM engines, the pairing and Groth16 all work on raw Python integers;
the curve registry needs one more field operation on them, the square root
that derives generator points.
"""

from __future__ import annotations


def sqrt_mod(a: int, p: int) -> int | None:
    """Integer square root of ``a`` mod the prime ``p``, or ``None`` if non-residue."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    return _tonelli_shanks(a, p)


def _tonelli_shanks(a: int, p: int) -> int:
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
