"""Size accounting for proofs, keys and witnesses.

Succinctness is the paper's motivating property: proofs stay ~128 bytes and
verification keys small, while the *proving* key grows linearly with the
circuit — the asymmetry that makes proof generation (and hence MSM) the
bottleneck worth 32 GPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.curves.params import CurveParams, curve_by_name
from repro.zksnark.r1cs import R1cs
from repro.zksnark.serialize import PROOF_BYTES


def g1_bytes(curve: CurveParams, compressed: bool = True) -> int:
    """Encoded size of a G1 point."""
    coord = math.ceil(curve.field_bits / 8)
    return coord if compressed else 2 * coord


def g2_bytes(curve: CurveParams, compressed: bool = True) -> int:
    """Encoded size of a G2 point (coordinates over Fp2)."""
    return 2 * g1_bytes(curve, compressed)


@dataclass(frozen=True)
class CrsSizes:
    """Byte sizes of one Groth16 instantiation's artifacts."""

    proving_key_bytes: int
    verifying_key_bytes: int
    proof_bytes: int
    witness_bytes: int


def groth16_sizes(r1cs: R1cs, curve: CurveParams | None = None, compressed: bool = True) -> CrsSizes:
    """Model the artifact sizes for an R1CS instance.

    Proving key: 3 G1 queries + 1 G2 query over the variables, the private
    L-query, the H powers (domain size - 1), plus the five fixed elements.
    Verification key: 4 fixed elements + one IC point per public input.
    """
    curve = curve or curve_by_name("BN254")
    g1 = g1_bytes(curve, compressed)
    g2 = g2_bytes(curve, compressed)
    num_vars = r1cs.num_variables
    domain = 1 << max(1, (max(1, r1cs.num_constraints) - 1).bit_length())

    pk = (
        3 * g1 + 2 * g2  # alpha1, beta1, delta1, beta2, delta2
        + 2 * num_vars * g1  # A and B(G1) queries
        + num_vars * g2  # B(G2) query
        + (num_vars - r1cs.num_public - 1) * g1  # L query
        + (domain - 1) * g1  # H query
    )
    vk = g1 + 3 * g2 + (r1cs.num_public + 1) * g1
    scalar_bytes = math.ceil(curve.scalar_bits / 8)
    return CrsSizes(
        proving_key_bytes=pk,
        verifying_key_bytes=vk,
        proof_bytes=PROOF_BYTES,
        witness_bytes=num_vars * scalar_bytes,
    )


def paper_scale_proving_key_mb(constraints: int, variables: int | None = None) -> float:
    """Proving-key size at production scale (e.g. ZEN-LeNet: ~18 GB)."""
    curve = curve_by_name("BN254")
    variables = variables if variables is not None else constraints
    g1 = g1_bytes(curve)
    g2 = g2_bytes(curve)
    domain = 1 << max(1, (constraints - 1).bit_length())
    total = 3 * variables * g1 + variables * g2 + domain * g1
    return total / (1 << 20)
