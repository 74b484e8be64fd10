"""Number-theoretic transforms over pairing-curve scalar fields.

The scalar fields of SNARK curves are chosen with high 2-adicity (BN254:
``r - 1 = 2^28 * odd``) precisely so polynomial arithmetic can run through
radix-2 NTTs.  This module provides forward/inverse transforms, coset
evaluation (needed to divide by the vanishing polynomial in QAP), and
NTT-based polynomial multiplication.
"""

from __future__ import annotations

from functools import lru_cache


def two_adicity(modulus: int) -> int:
    """Largest ``k`` with ``2^k`` dividing ``modulus - 1``."""
    if modulus < 3:
        raise ValueError("modulus must be an odd prime >= 3")
    m = modulus - 1
    k = 0
    while m % 2 == 0:
        m //= 2
        k += 1
    return k


@lru_cache(maxsize=None)
def _max_order_root(modulus: int) -> tuple[int, int]:
    """A 2^k-th primitive root of unity with maximal k, and that k.

    Take any quadratic non-residue ``z``; then ``z^((r-1)/2^k)`` has order
    exactly ``2^k`` because ``z^((r-1)/2) = -1``.
    """
    k = two_adicity(modulus)
    z = 2
    while pow(z, (modulus - 1) // 2, modulus) != modulus - 1:
        z += 1
    return pow(z, (modulus - 1) >> k, modulus), k


def _bit_reverse_permute(values: list[int]) -> list[int]:
    n = len(values)
    bits = n.bit_length() - 1
    out = [0] * n
    for i, v in enumerate(values):
        out[int(format(i, f"0{bits}b")[::-1], 2) if bits else 0] = v
    return out


class NttDomain:
    """A power-of-two evaluation domain in ``GF(modulus)``.

    >>> dom = NttDomain(17, 4)   # 17 has 2-adicity 4
    >>> dom.intt(dom.ntt([1, 2, 3, 4]))
    [1, 2, 3, 4]
    """

    def __init__(self, modulus: int, size: int):
        if size <= 0 or size & (size - 1):
            raise ValueError(f"domain size must be a power of two, got {size}")
        root, max_k = _max_order_root(modulus)
        log_size = size.bit_length() - 1
        if log_size > max_k:
            raise ValueError(
                f"field 2-adicity {max_k} cannot host a size-{size} domain"
            )
        self.modulus = modulus
        self.size = size
        self.omega = pow(root, 1 << (max_k - log_size), modulus)
        self.omega_inv = pow(self.omega, -1, modulus)
        self.size_inv = pow(size, -1, modulus)

    def _transform(self, values: list[int], omega: int) -> list[int]:
        n = self.size
        if len(values) != n:
            raise ValueError(f"expected {n} values, got {len(values)}")
        p = self.modulus
        a = _bit_reverse_permute([v % p for v in values])
        length = 2
        while length <= n:
            w_step = pow(omega, n // length, p)
            for start in range(0, n, length):
                w = 1
                half = length // 2
                for k in range(start, start + half):
                    even, odd = a[k], a[k + half] * w % p
                    a[k] = (even + odd) % p
                    a[k + half] = (even - odd) % p
                    w = w * w_step % p
            length *= 2
        return a

    def ntt(self, coefficients: list[int]) -> list[int]:
        """Evaluate the polynomial (coefficient form) on the domain."""
        return self._transform(coefficients, self.omega)

    def intt(self, evaluations: list[int]) -> list[int]:
        """Interpolate domain evaluations back to coefficients."""
        out = self._transform(evaluations, self.omega_inv)
        return [v * self.size_inv % self.modulus for v in out]

    # -- coset operations (for dividing by the vanishing polynomial) ------

    def coset_ntt(self, coefficients: list[int], shift: int) -> list[int]:
        """Evaluate on the coset ``shift * omega^i``."""
        p = self.modulus
        scaled = []
        power = 1
        for c in coefficients:
            scaled.append(c * power % p)
            power = power * shift % p
        return self.ntt(scaled)

    def coset_intt(self, evaluations: list[int], shift: int) -> list[int]:
        """Interpolate from coset evaluations back to coefficients."""
        p = self.modulus
        coeffs = self.intt(evaluations)
        shift_inv = pow(shift, -1, p)
        out = []
        power = 1
        for c in coeffs:
            out.append(c * power % p)
            power = power * shift_inv % p
        return out

    def vanishing_on_coset(self, shift: int) -> int:
        """``Z(shift * omega^i) = shift^n - 1`` — constant on the coset."""
        return (pow(shift, self.size, self.modulus) - 1) % self.modulus
