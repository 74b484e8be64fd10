"""Lane-vectorized batch field arithmetic over numpy ``(N,)`` arrays.

The scalar hot loops in :mod:`repro.core` pay the CPython interpreter once
per field element.  This module processes whole *columns* of field elements
per call: a batch of ``N`` residues is one ``(N,)`` ``uint64`` array and
every arithmetic op is a few numpy kernels whose cost is amortised across
all ``N`` lanes.

There is one lane representation: canonical residues of a modulus
``p < 2^32``, so every product of two residues fits ``uint64``.  That
covers the toy curves the large functional runs and the CI-sized
differential tests use.  Larger moduli are rejected: the registered curves
run the scalar loops, where CPython's native big ints beat multi-word
numpy arithmetic at benchmark sizes (DESIGN.md §13.1).

The reductions avoid numpy's slow paths (DESIGN.md §13.1): ``add`` and
``sub`` fold their one possible wrap with ``min(t, t - p)`` and
``min(t, t + p)``, exact in ``uint64`` because the wrong candidate wraps
past every residue, and ``mul`` reduces ``t = a * b`` as
``t - (t // p) * p``, because numpy divides ``uint64`` by a scalar with a
multiply and a shift while ``t % p`` runs the hardware divide per lane.

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
            # canonical inputs fit uint64 directly; the C-level conversion
            # beats a per-element Python modulo by ~10x
            lanes = np.fromiter(values, dtype=_U64, count=len(values))
        except (OverflowError, TypeError):
            return np.asarray([v % self.modulus for v in values], dtype=_U64)
        return self._reduce(lanes)

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

    def _reduce(self, t: np.ndarray) -> np.ndarray:
        """``t mod p`` for any ``uint64`` lanes, computed in ``t``'s buffer."""
        q = t // self._p
        q *= self._p
        t -= q
        return t

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = a + b
        return np.minimum(t, t - self._p, out=t)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        t = a - b
        return np.minimum(t, t + self._p, out=t)

    def neg(self, a: np.ndarray) -> np.ndarray:
        t = self._p - a
        return np.minimum(t, t - self._p, out=t)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._reduce(a * b)

    def double(self, a: np.ndarray) -> np.ndarray:
        return self.add(a, a)

    def triple(self, a: np.ndarray) -> np.ndarray:
        return self.add(self.double(a), a)
