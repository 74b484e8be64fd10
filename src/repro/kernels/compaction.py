"""On-the-fly compaction of tensor-core outputs (paper §4.3, Fig. 7).

A 2N-bit product leaves the tensor core as ``N/4`` uint32 accumulators whose
bases are offset by 8 bits — three quarters of the stored bits are redundant
zeros.  Writing the raw fragments to memory and compacting there costs 4x the
optimal traffic; DistMSM instead shuffles ``matB``'s columns so each thread
ends up holding four *consecutive* accumulators, which it folds in registers:

    V_t = sum_{j=0..3} C_{4t+j} * 2^{8j}

yielding one ≤45-bit partial per group (for 256-bit operands).  This module
executes that compaction for real and models the register/memory cost of the
naive and compacted paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def compact_accumulators(acc: np.ndarray, group: int = 4) -> list[int]:
    """Fold ``group`` consecutive uint32 accumulators into one integer each.

    Returns the list of ≤(23 + 8*(group-1))-bit partials ``V_t``; the
    original product is ``sum(V_t << (8 * group * t))``.
    """
    if len(acc) % group:
        raise ValueError(f"accumulator count {len(acc)} not divisible by {group}")
    partials = []
    for t in range(0, len(acc), group):
        v = 0
        for j in range(group):
            v += int(acc[t + j]) << (8 * j)
        partials.append(v)
    return partials


def partials_to_int(partials: list[int], group: int = 4) -> int:
    """Reassemble the product from compacted partials."""
    return sum(v << (8 * group * t) for t, v in enumerate(partials))


def compacted_bits(num_bytes: int, group: int = 4) -> int:
    """Worst-case bit width of one compacted partial.

    For 256-bit operands (32 bytes) this is the paper's 45-bit figure.
    """
    element = num_bytes * 255 * 255  # exact worst case, not 2^bits - 1
    total = sum(element << (8 * j) for j in range(group))
    return total.bit_length()


@dataclass(frozen=True)
class CompactionCost:
    """Memory-traffic model for moving one TC product out of the MMA unit."""

    bytes_naive: int  # raw uint32 fragments via official store APIs
    bytes_compacted: int  # 45-bit partials packed as 64-bit words
    register_words_naive: int
    register_words_compacted: int


def compaction_cost(num_bytes: int) -> CompactionCost:
    """The 4x traffic gap the paper quotes for the naive path.

    The fully-compacted product is exactly 2N bits — ``N/16`` uint32 words
    for an N-bit operand — whereas the raw fragments occupy ``N/4`` uint32
    words: a 4x difference in both traffic and footprint.
    """
    num_acc = 2 * num_bytes  # raw uint32 fragments
    compact_words = num_acc // 4  # 2N bits of payload in uint32 words
    return CompactionCost(
        bytes_naive=num_acc * 4,
        bytes_compacted=compact_words * 4,
        register_words_naive=num_acc,
        register_words_compacted=compact_words,
    )
