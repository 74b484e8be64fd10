"""Reusable circuit gadgets on top of the builder DSL.

The pieces production circuits are assembled from: bit decomposition /
range checks, conditional selection, and Merkle-path membership over the
Poseidon hash — the core of a Zcash-style shielded transaction (prove a
note is in the commitment tree without revealing which one).
"""

from __future__ import annotations

from repro.zksnark.builder import CircuitBuilder, Wire
from repro.zksnark.poseidon import hash2, hash2_gadget


def select(builder: CircuitBuilder, bit: Wire, if_one: Wire, if_zero: Wire) -> Wire:
    """``bit ? if_one : if_zero`` for a boolean wire (one constraint)."""
    # out = if_zero + bit * (if_one - if_zero)
    return if_zero + bit * (if_one - if_zero)


def swap_on_bit(
    builder: CircuitBuilder, bit: Wire, left: Wire, right: Wire
) -> tuple[Wire, Wire]:
    """Return (left, right) or (right, left) depending on ``bit``."""
    new_left = select(builder, bit, right, left)
    new_right = select(builder, bit, left, right)
    return new_left, new_right


# -- Merkle trees over Poseidon ------------------------------------------------


def merkle_root(leaves: list[int]) -> int:
    """Native Merkle root (power-of-two leaf count) over Poseidon."""
    if not leaves or len(leaves) & (len(leaves) - 1):
        raise ValueError("leaf count must be a positive power of two")
    level = list(leaves)
    while len(level) > 1:
        level = [
            hash2(level[i], level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]


def merkle_path(leaves: list[int], index: int) -> list[int]:
    """The sibling path authenticating ``leaves[index]``."""
    if not 0 <= index < len(leaves):
        raise ValueError("leaf index out of range")
    path = []
    level = list(leaves)
    idx = index
    while len(level) > 1:
        path.append(level[idx ^ 1])
        level = [
            hash2(level[i], level[i + 1]) for i in range(0, len(level), 2)
        ]
        idx //= 2
    return path


def merkle_membership_gadget(
    builder: CircuitBuilder,
    leaf: Wire,
    index_bits: list[Wire],
    path: list[Wire],
) -> Wire:
    """Recompute the root from a leaf, its index bits and sibling path.

    ~240 constraints (one Poseidon) per tree level — the dominant cost of
    shielded-transaction circuits.  Callers bind the returned wire to the
    public root.
    """
    if len(index_bits) != len(path):
        raise ValueError("need one index bit per path level")
    current = leaf
    for bit, sibling in zip(index_bits, path):
        left, right = swap_on_bit(builder, bit, current, sibling)
        current = hash2_gadget(builder, left, right)
    return current


def merkle_membership_circuit(
    leaves: list[int], index: int
) -> tuple:
    """A full membership circuit: public root, private leaf/index/path.

    Returns ``(r1cs, assignment, root)``; the root is the single public
    input, everything identifying the leaf stays private — the
    zero-knowledge property a shielded pool needs.
    """
    builder = CircuitBuilder()
    depth = (len(leaves) - 1).bit_length()
    leaf = builder.private(leaves[index])
    index_bits = []
    for level in range(depth):
        bit = builder.private((index >> level) & 1)
        builder.assert_boolean(bit)
        index_bits.append(bit)
    path_wires = [builder.private(v) for v in merkle_path(leaves, index)]
    root_wire = merkle_membership_gadget(builder, leaf, index_bits, path_wires)
    builder.public_output(root_wire)
    r1cs, assignment = builder.synthesize()
    return r1cs, assignment, merkle_root(leaves)
