"""Montgomery multiplication with tensor cores (paper §4.3) — real numerics.

Tensor cores multiply uint8 matrices with uint32 accumulation.  The trick:
a big integer is a polynomial in base 2^8, so the product ``m x n`` (with the
modulus ``n`` constant) is a convolution of byte digits — expressible as a
vector-matrix product against a banded Toeplitz matrix built from ``n``'s
bytes once, offline.

This module builds that matrix, performs the product with numpy (standing in
for the MMA unit, bit-exact), and checks the structural claims the paper
makes: every uint32 output has at most ~23 significant bits, and adjacent
outputs sit at 8-bit base offsets so the vector compacts losslessly
(:mod:`repro.kernels.compaction`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fields.limbs import WORD_BITS
from repro.fields.montgomery import MontgomeryContext


def int_to_bytes_vector(value: int, num_bytes: int) -> np.ndarray:
    """Little-endian base-256 digits of ``value`` as a uint8 vector."""
    if value < 0:
        raise ValueError("negative values cannot be byte-decomposed")
    if value >> (8 * num_bytes):
        raise ValueError(f"value does not fit in {num_bytes} bytes")
    return np.array(
        [(value >> (8 * i)) & 0xFF for i in range(num_bytes)], dtype=np.uint8
    )


def constant_operand_matrix(constant: int, num_bytes: int) -> np.ndarray:
    """The byte matrix for a constant right operand (paper Fig. 6).

    ``matB[j, i]`` holds byte ``i - j`` of the constant, so a left byte
    vector ``a`` satisfies ``(a @ matB)[i] == sum_j a_j * n_{i-j}`` — the
    convolution that defines the product's base-256 accumulators.  Building
    this layout is expensive, which is why it only pays off for constants
    (the modulus ``n`` in Montgomery reduction).
    """
    n_bytes = int_to_bytes_vector(constant, num_bytes)
    out_cols = 2 * num_bytes
    mat = np.zeros((num_bytes, out_cols), dtype=np.uint8)
    for j in range(num_bytes):
        mat[j, j : j + num_bytes] = n_bytes
    return mat


def tensor_core_multiply(a: int, mat_b: np.ndarray) -> np.ndarray:
    """Multiply via the byte matrix: returns the uint32 accumulator vector.

    Each output element accumulates at most ``num_bytes`` uint8*uint8
    products, so it fits comfortably in uint32 — the paper's "at most 23
    significant bits" for ≤ 95-byte operands.
    """
    num_bytes = mat_b.shape[0]
    a_vec = int_to_bytes_vector(a, num_bytes).astype(np.int64)
    acc = a_vec @ mat_b.astype(np.int64)
    if acc.max(initial=0) >= (1 << 32):
        raise AssertionError("tensor-core accumulator overflowed uint32")
    return acc.astype(np.uint32)


def accumulators_to_int(acc: np.ndarray) -> int:
    """Resolve the base-256 accumulator vector into the integer product."""
    return sum(int(c) << (8 * i) for i, c in enumerate(acc))


@dataclass
class TcMontMulResult:
    """Outputs of one tensor-core Montgomery multiplication."""

    product: int  # the Montgomery product (ordinary integer)
    tc_accumulators: np.ndarray  # raw uint32 outputs of the m x n MMA
    mma_ops: int  # uint8 multiply-accumulate count on tensor cores
    cuda_mul_ops: int  # 32x32 multiplies left on CUDA cores


class TensorCoreMontgomery:
    """SOS Montgomery multiplication with the ``m x n`` step on tensor cores.

    The first wide multiplication ``A x B`` stays on CUDA cores (both operands
    vary), the reduction multiplication ``m x n`` runs as a byte-matrix
    product against the precomputed matrix of the constant modulus.
    """

    def __init__(self, ctx: MontgomeryContext):
        self.ctx = ctx
        self.num_bytes = ctx.num_limbs * (WORD_BITS // 8)
        self.mat_n = constant_operand_matrix(ctx.modulus, self.num_bytes)

    def reduction_m(self, c: int) -> int:
        """The full-width reduction multiplier ``m = -C * n^{-1} mod R``.

        Word-serial on a GPU (each ``m`` word depends on prior reduction
        carries); cheap because only low words are touched.
        """
        r = self.ctx.r
        n_prime = (-pow(self.ctx.modulus, -1, r)) % r
        return (c % r) * n_prime % r

    def multiply(self, a_mont: int, b_mont: int) -> TcMontMulResult:
        """Montgomery-multiply with the reduction product on tensor cores."""
        n_limbs = self.ctx.num_limbs
        c = a_mont * b_mont  # CUDA-core schoolbook product
        m = self.reduction_m(c)
        acc = tensor_core_multiply(m, self.mat_n)  # TC: m x n
        mn = accumulators_to_int(acc)
        t = c + mn
        if t % self.ctx.r:
            raise AssertionError("Montgomery reduction not exact")
        u = t >> (WORD_BITS * n_limbs)
        if u >= self.ctx.modulus:
            u -= self.ctx.modulus
        return TcMontMulResult(
            product=u,
            tc_accumulators=acc,
            mma_ops=self.num_bytes * self.num_bytes,
            cuda_mul_ops=n_limbs * n_limbs + n_limbs,
        )
