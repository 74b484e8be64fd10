"""Montgomery modular multiplication at the word level (paper Algorithm 2).

Montgomery multiplication replaces the expensive division in modular
multiplication with shifts by the word size.  The paper's kernels use the SOS
(Separated Operand Scanning) variant because its second big multiplication,
``m x n`` with the constant modulus ``n``, is the one DistMSM offloads to
tensor cores (§4.3).  CIOS and FIOS are implemented as well so the Montgomery
method ablation can compare word-operation counts, exactly as analysed by
Koc, Acar and Kaliski.

All three variants operate on 32-bit limb vectors and are validated against
plain integer arithmetic; an optional :class:`~repro.fields.limbs.OpCounter`
records the word-level multiply/add counts that feed the GPU timing model.
"""

from __future__ import annotations

from repro.fields.limbs import (
    WORD_BITS,
    WORD_MASK,
    OpCounter,
    limb_count,
    limbs_cmp,
    limbs_mul,
    limbs_sub,
    to_limbs,
)


def _invert_mod_2_32(x: int) -> int:
    """Inverse of an odd ``x`` modulo 2^32 via Newton iteration."""
    if x % 2 == 0:
        raise ValueError("modulus must be odd for Montgomery arithmetic")
    inv = x  # correct to 2^3
    for _ in range(5):
        inv = (inv * (2 - x * inv)) & WORD_MASK
    return inv


class MontgomeryContext:
    """Montgomery arithmetic for a fixed odd modulus.

    Parameters
    ----------
    modulus:
        The odd prime (or odd integer) ``n``.
    num_limbs:
        Limb count ``N``; defaults to the minimum that fits ``modulus``.
    """

    def __init__(self, modulus: int, num_limbs: int | None = None):
        if modulus <= 2 or modulus % 2 == 0:
            raise ValueError("Montgomery arithmetic needs an odd modulus > 2")
        self.modulus = modulus
        self.num_limbs = num_limbs if num_limbs is not None else limb_count(modulus.bit_length())
        if modulus >> (WORD_BITS * self.num_limbs):
            raise ValueError("modulus does not fit in the requested limb count")
        self.r = 1 << (WORD_BITS * self.num_limbs)
        self.r_mod = self.r % modulus
        self.r2_mod = (self.r * self.r) % modulus
        # n' with n * n' == -1 mod R; kernels only need n0' = n' mod 2^32.
        self.n0_prime = (-_invert_mod_2_32(modulus & WORD_MASK)) & WORD_MASK
        self.modulus_limbs = to_limbs(modulus, self.num_limbs)

    # -- domain conversion ------------------------------------------------

    def to_mont(self, x: int) -> int:
        """Map ``x`` into the Montgomery domain: ``x * R mod n``."""
        return (x * self.r) % self.modulus

    def from_mont(self, x_mont: int) -> int:
        """Map a Montgomery-domain value back to the ordinary domain."""
        r_inv = pow(self.r, -1, self.modulus)
        return (x_mont * r_inv) % self.modulus

    # -- reference product -------------------------------------------------

    def mont_mul_int(self, a_mont: int, b_mont: int) -> int:
        """Reference Montgomery product using Python integers."""
        t = a_mont * b_mont
        m = (t * pow(-self.modulus, -1, self.r)) % self.r
        u = (t + m * self.modulus) >> (WORD_BITS * self.num_limbs)
        return u - self.modulus if u >= self.modulus else u

    # -- word-level variants ------------------------------------------------

    def mont_mul_sos(
        self,
        a: list[int],
        b: list[int],
        counter: OpCounter | None = None,
    ) -> list[int]:
        """SOS Montgomery multiplication (paper Algorithm 2).

        Phase 1 computes the full double-width product ``C = A x B``; phase 2
        adds ``m x n`` where ``m[i] = C[i] * n0' mod 2^32``.  Phase 2's big
        multiplication is the one DistMSM maps onto tensor cores.
        """
        n = self.num_limbs
        self._check_operands(a, b)
        c = limbs_mul(a, b, counter)  # 2N limbs
        c.append(0)  # carry word
        mod = self.modulus_limbs
        for i in range(n):
            m = (c[i] * self.n0_prime) & WORD_MASK
            if counter is not None:
                counter.mul += 1
            carry = 0
            for j in range(n):
                total = c[i + j] + m * mod[j] + carry
                c[i + j] = total & WORD_MASK
                carry = total >> WORD_BITS
            if counter is not None:
                counter.mul += n
                counter.add += 2 * n
            # propagate the carry through the remaining words
            k = i + n
            while carry:
                total = c[k] + carry
                c[k] = total & WORD_MASK
                carry = total >> WORD_BITS
                k += 1
                if counter is not None:
                    counter.add += 1
        return self._final_reduce(c[n : 2 * n], c[2 * n], counter)

    def mont_mul_cios(
        self,
        a: list[int],
        b: list[int],
        counter: OpCounter | None = None,
    ) -> list[int]:
        """CIOS (Coarsely Integrated Operand Scanning) Montgomery multiply.

        Interleaves multiplication and reduction per outer word, needing only
        ``N + 2`` words of intermediate storage — the variant CUDA-core
        implementations typically use.
        """
        n = self.num_limbs
        self._check_operands(a, b)
        mod = self.modulus_limbs
        t = [0] * (n + 2)
        for i in range(n):
            carry = 0
            bi = b[i]
            for j in range(n):
                total = t[j] + a[j] * bi + carry
                t[j] = total & WORD_MASK
                carry = total >> WORD_BITS
            total = t[n] + carry
            t[n] = total & WORD_MASK
            t[n + 1] = total >> WORD_BITS
            if counter is not None:
                counter.mul += n
                counter.add += 2 * n + 1

            m = (t[0] * self.n0_prime) & WORD_MASK
            total = t[0] + m * mod[0]
            carry = total >> WORD_BITS
            for j in range(1, n):
                total = t[j] + m * mod[j] + carry
                t[j - 1] = total & WORD_MASK
                carry = total >> WORD_BITS
            total = t[n] + carry
            t[n - 1] = total & WORD_MASK
            carry = total >> WORD_BITS
            t[n] = t[n + 1] + carry
            t[n + 1] = 0
            if counter is not None:
                counter.mul += n + 1
                counter.add += 2 * n + 2
        return self._final_reduce(t[:n], t[n], counter)

    def mont_mul_fios(
        self,
        a: list[int],
        b: list[int],
        counter: OpCounter | None = None,
    ) -> list[int]:
        """FIOS (Finely Integrated Operand Scanning) Montgomery multiply.

        Fuses the multiplication and reduction inner loops into a single pass
        per outer word; same asymptotic multiply count as CIOS with a
        different carry-handling profile.
        """
        n = self.num_limbs
        self._check_operands(a, b)
        mod = self.modulus_limbs
        t = [0] * (n + 2)
        for i in range(n):
            bi = b[i]
            total = t[0] + a[0] * bi
            carry_mul = total >> WORD_BITS
            low = total & WORD_MASK
            m = (low * self.n0_prime) & WORD_MASK
            total = low + m * mod[0]
            carry_red = total >> WORD_BITS
            if counter is not None:
                counter.mul += 3
                counter.add += 3
            for j in range(1, n):
                total = t[j] + a[j] * bi + carry_mul
                carry_mul = total >> WORD_BITS
                low = total & WORD_MASK
                total = low + m * mod[j] + carry_red
                t[j - 1] = total & WORD_MASK
                carry_red = total >> WORD_BITS
                if counter is not None:
                    counter.mul += 2
                    counter.add += 4
            total = t[n] + carry_mul + carry_red
            t[n - 1] = total & WORD_MASK
            t[n] = (total >> WORD_BITS) + t[n + 1]
            t[n + 1] = 0
            if counter is not None:
                counter.add += 2
        return self._final_reduce(t[:n], t[n], counter)

    # -- helpers -------------------------------------------------------------

    def _check_operands(self, a: list[int], b: list[int]) -> None:
        if len(a) != self.num_limbs or len(b) != self.num_limbs:
            raise ValueError(
                f"operands must have {self.num_limbs} limbs, "
                f"got {len(a)} and {len(b)}"
            )

    def _final_reduce(
        self,
        words: list[int],
        carry: int,
        counter: OpCounter | None,
    ) -> list[int]:
        """Conditional final subtraction: return ``words - n`` if needed."""
        if carry or limbs_cmp(words, self.modulus_limbs) >= 0:
            reduced, borrow = limbs_sub(words, self.modulus_limbs, counter)
            if carry != borrow:
                raise AssertionError("Montgomery reduction overflowed")
            return reduced
        return list(words)

    # -- convenience: integer in/out ------------------------------------------
