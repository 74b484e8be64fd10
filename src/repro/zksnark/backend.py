"""Pairing backends: the curve-specific pieces Groth16 needs.

Groth16 is generic over any pairing-friendly curve; the protocol code in
:mod:`repro.zksnark.groth16` keys every curve-specific operation through a
:class:`PairingBackend`, and this module provides the two families the
paper's curves span — BN254 (optimal ate) and BLS12-381 (BLS ate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.curves.params import CurveParams, curve_by_name


@dataclass(frozen=True)
class PairingBackend:
    """Everything curve-specific about a Groth16 instantiation.

    ``g2_generator``/``g2_add``/``g2_mul``/``g2_neg`` operate on the
    backend's affine-over-Fp2 representation; ``pairing_check`` evaluates
    ``prod e(P_i, Q_i) == 1`` for (G1 tuple-or-None, G2 point) pairs.
    """

    name: str
    curve: CurveParams
    g2_generator: object
    g2_add: Callable
    g2_mul: Callable
    g2_neg: Callable
    pairing_check: Callable


@lru_cache(maxsize=None)
def backend_by_name(name: str) -> PairingBackend:
    """The registered pairing backends: "BN254" and "BLS12-381"."""
    if name.upper() == "BN254":
        from repro.zksnark import pairing as pr

        return PairingBackend(
            name="BN254",
            curve=curve_by_name("BN254"),
            g2_generator=pr.G2_GENERATOR,
            g2_add=pr.g2_add,
            g2_mul=pr.g2_mul,
            g2_neg=pr.point_neg,
            pairing_check=pr.pairing_check,
        )
    if name.upper() in ("BLS12-381", "BLS12_381"):
        from repro.zksnark import pairing_bls as prb

        return PairingBackend(
            name="BLS12-381",
            curve=curve_by_name("BLS12-381"),
            g2_generator=prb.G2_GENERATOR_BLS,
            g2_add=lambda a, b: prb.point_add(a, b),
            g2_mul=prb.g2_mul_bls,
            g2_neg=prb.g2_neg_bls,
            pairing_check=prb.pairing_check_bls,
        )
    raise KeyError(f"no pairing backend for {name!r}")
