"""Proof decompression: the round-trip oracle of ``serialize_proof``.

Decompression recovers ``y`` from the curve equation, so a tampered byte
either fails decompression outright or yields a different (and
non-verifying) point.
"""

from __future__ import annotations

from repro.curves.point import AffinePoint, XyzzPoint, xyzz_on_curve
from repro.fields.prime_field import sqrt_mod
from repro.zksnark.groth16 import Proof
from repro.zksnark.pairing import B2, FQ2, is_on_curve_fq
from repro.zksnark.serialize import (
    BN254,
    FLAG_INFINITY,
    FLAG_Y_ODD,
    PROOF_BYTES,
    SerializationError,
)


def decompress_g1(data: bytes) -> AffinePoint:
    """Recover a G1 point: solve ``y^2 = x^3 + 3`` and pick by sign bit."""
    if len(data) != 32:
        raise SerializationError(f"G1 encoding must be 32 bytes, got {len(data)}")
    flags = data[0] & 0xC0
    if flags & FLAG_INFINITY:
        if any(data[1:]) or data[0] != FLAG_INFINITY:
            raise SerializationError("malformed infinity encoding")
        return AffinePoint.identity()
    x = int.from_bytes(bytes([data[0] & 0x3F]) + data[1:], "big")
    if x >= BN254.p:
        raise SerializationError("x-coordinate out of field range")
    rhs = (x * x * x + BN254.b) % BN254.p
    y = sqrt_mod(rhs, BN254.p)
    if y is None:
        raise SerializationError("x-coordinate is not on the curve")
    if (y & 1) != bool(flags & FLAG_Y_ODD):
        y = BN254.p - y
    return AffinePoint(x, y)


def decompress_g2(data: bytes) -> tuple:
    """Recover a G2 point on the twist ``y^2 = x^3 + b2``."""
    if len(data) != 64:
        raise SerializationError(f"G2 encoding must be 64 bytes, got {len(data)}")
    flags = data[0] & 0xC0
    if flags & FLAG_INFINITY:
        if any(data[1:]) or data[0] != FLAG_INFINITY:
            raise SerializationError("malformed infinity encoding")
        return None
    xa = int.from_bytes(bytes([data[0] & 0x3F]) + data[1:32], "big")
    xb = int.from_bytes(data[32:], "big")
    if xa >= BN254.p or xb >= BN254.p:
        raise SerializationError("x-coordinate out of field range")
    x = FQ2([xa, xb])
    rhs = x * x * x + B2
    y = _fq2_sqrt(rhs)
    if y is None:
        raise SerializationError("x-coordinate is not on the twist")
    parity_source = y.coeffs[0] if y.coeffs[0] else y.coeffs[1]
    if (parity_source & 1) != bool(flags & FLAG_Y_ODD):
        y = -y
    return (x, y)


def _fq2_sqrt(value: FQ2) -> FQ2 | None:
    """Square root in Fp2 via the norm trick (p = 3 mod 4)."""
    a, b = value.coeffs
    p = BN254.p
    if b == 0:
        root = sqrt_mod(a, p)
        if root is not None:
            return FQ2([root, 0])
        # sqrt(a) = sqrt(-a) * sqrt(-1); -1 is a non-residue (p = 3 mod 4)
        root = sqrt_mod((-a) % p, p)
        if root is None:
            return None
        return FQ2([0, root])
    norm = (a * a + b * b) % p
    n_root = sqrt_mod(norm, p)
    if n_root is None:
        return None
    for sign in (1, -1):
        half = (a + sign * n_root) * pow(2, -1, p) % p
        c = sqrt_mod(half, p)
        if c is None or c == 0:
            continue
        d = b * pow(2 * c, -1, p) % p
        cand = FQ2([c, d])
        if cand * cand == value:
            return cand
    return None


def deserialize_proof(data: bytes) -> Proof:
    """Decode and validate a compressed proof."""
    if len(data) != PROOF_BYTES:
        raise SerializationError(
            f"proof must be {PROOF_BYTES} bytes, got {len(data)}"
        )
    a = decompress_g1(data[:32])
    b = decompress_g2(data[32:96])
    c = decompress_g1(data[96:])
    if not xyzz_on_curve(XyzzPoint.from_affine(a), BN254):
        raise SerializationError("proof.A is off-curve")
    if b is not None and not is_on_curve_fq(b, B2):
        raise SerializationError("proof.B is off the twist")
    return Proof(a=a, b=b, c=c)
