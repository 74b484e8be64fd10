"""Elliptic-curve substrate: parameters, point arithmetic, scalar recoding.

Implements the short-Weierstrass curves the paper evaluates (Table 1) and the
XYZZ-coordinate group law its kernels use (Algorithms 1 and 4):

* :mod:`repro.curves.params` — the curve registry (BN254, BLS12-377,
  BLS12-381, MNT4753) with self-checking parameter derivations.
* :mod:`repro.curves.point` — affine and XYZZ point arithmetic: PADD, PACC,
  PDBL and double-and-add PMUL.
* :mod:`repro.curves.scalar` — window decomposition and signed-digit recoding
  for Pippenger's algorithm.
"""

from repro.curves.params import (
    BN254,
    BLS12_377,
    BLS12_381,
    MNT4753,
    CurveParams,
    curve_by_name,
    list_curves,
)
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    pdbl,
    pmul,
    pmul_wnaf,
    xyzz_add,
    xyzz_acc,
)
from repro.curves.scalar import signed_windows, unsigned_windows, wnaf

__all__ = [
    "BN254",
    "BLS12_377",
    "BLS12_381",
    "MNT4753",
    "CurveParams",
    "curve_by_name",
    "list_curves",
    "AffinePoint",
    "XyzzPoint",
    "pdbl",
    "pmul",
    "pmul_wnaf",
    "xyzz_add",
    "xyzz_acc",
    "signed_windows",
    "unsigned_windows",
    "wnaf",
]
