"""Lane-vectorized batch field arithmetic over numpy ``(N,)`` arrays.

The scalar hot loops in :mod:`repro.core` pay the CPython interpreter once
per field element.  This module processes whole *columns* of field elements
per call: a batch of ``N`` residues is one ``(N,)`` ``uint64`` array and
every arithmetic op is one or two numpy kernels whose cost is amortised
across all ``N`` lanes.

There is one lane representation: canonical residues of a modulus
``p < 2^32``, so every product of two residues fits ``uint64`` and
multiplication is a plain ``(a * b) % p``.  That covers the toy curves the
large functional runs and the CI-sized differential tests use.  Larger
moduli are rejected: the registered curves run the scalar loops, where
CPython's native big ints beat multi-word numpy arithmetic at benchmark
sizes (DESIGN.md §13.1).

Values entering and leaving a :class:`BatchPrimeField` are canonical Python
ints, which is what makes the batch MSM path bit-identical to the scalar
one at every observable boundary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_U64 = np.uint64


class BatchPrimeField:
    """Vectorized arithmetic in ``GF(p)`` for ``p < 2^32`` over lane arrays.

    All methods are elementwise over the lane axis and never mutate their
    inputs.
    """

    def __init__(self, modulus: int):
        if modulus < 3:
            raise ValueError(f"modulus must be >= 3, got {modulus}")
        if modulus >= 1 << 32:
            raise ValueError(
                f"batch lanes need a modulus below 2^32, got a "
                f"{modulus.bit_length()}-bit modulus"
            )
        self.modulus = modulus
        self._p = _U64(modulus)

    # -- domain conversion -------------------------------------------------

    def encode(self, values: Sequence[int]) -> np.ndarray:
        """Python ints -> lane array of canonical residues."""
        try:
            # canonical inputs fit uint64 directly; the C-level array
            # conversion beats a per-element Python modulo by ~10x
            return np.asarray(values, dtype=_U64) % self._p
        except (OverflowError, TypeError):
            return np.asarray([v % self.modulus for v in values], dtype=_U64)

    def decode(self, lanes: np.ndarray) -> list[int]:
        """Lane array -> canonical Python ints."""
        return [int(v) for v in lanes.tolist()]

    def constant(self, value: int) -> np.ndarray:
        """A single value encoded as a broadcastable ``(1,)`` lane."""
        return self.encode([value % self.modulus])

    def zeros(self, n: int) -> np.ndarray:
        """``n`` lanes of field zero."""
        return np.zeros(n, dtype=_U64)

    # -- predicates and lane plumbing --------------------------------------

    def is_zero(self, a: np.ndarray) -> np.ndarray:
        """Boolean lane mask of the zero residues."""
        return a == 0

    def select(self, mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Lanewise ``mask ? a : b`` (mask is a boolean lane vector)."""
        return np.where(mask, a, b)

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = a + b
        return np.where(t >= self._p, t - self._p, t)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = a + self._p - b
        return np.where(t >= self._p, t - self._p, t)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return np.where(a == 0, a, self._p - a)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a * b) % self._p

    def square(self, a: np.ndarray) -> np.ndarray:
        return self.mul(a, a)

    def double(self, a: np.ndarray) -> np.ndarray:
        return self.add(a, a)

    def triple(self, a: np.ndarray) -> np.ndarray:
        return self.add(self.double(a), a)

    def inv(self, values: Sequence[int]) -> list[int]:
        """Batch inversion of canonical ints via running prefix products.

        One modular inversion total; zero inputs map to zero (callers mask
        identities out before dividing).  Works on ints rather than lane
        arrays because inversion only happens at batch boundaries.
        """
        p = self.modulus
        prefix: list[int] = []
        running = 1
        for v in values:
            prefix.append(running)
            if v % p:
                running = running * v % p
        inv_running = pow(running, -1, p)
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            v = values[i] % p
            if v:
                out[i] = inv_running * prefix[i] % p
                inv_running = inv_running * v % p
        return out
