"""Curve registry for the curves the paper evaluates (Table 1).

Parameters for BN254, BLS12-377 and BLS12-381 are derived from their family
parameters (the BN parameter ``t`` and the BLS12 parameter ``u``), which makes
them self-checking: tests re-derive the field sizes from the closed-form
family polynomials and assert primality, generator membership and subgroup
order.

MNT4-753 is represented by a **synthetic** 753-bit curve (see DESIGN.md §2):
the paper uses MNT4753 purely as its 24-limb register-pressure stress point,
and any 753-bit short-Weierstrass curve exercises identical code paths and
costs.  The synthetic prime has the closed form ``2^752 + 2^64 + 0x3cf``
(smallest prime ``p ≡ 3 (mod 4)`` above ``2^752 + 2^64``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.fields.limbs import limb_count

# -- family parameters -------------------------------------------------------

BN254_T = 4965661367192848881
BLS12_377_U = 0x8508C00000000001
BLS12_381_U = -0xD201000000010000

_SYNTHETIC_753_PRIME = (1 << 752) + (1 << 64) + 0x3CF


@dataclass(frozen=True)
class CurveParams:
    """A short-Weierstrass curve ``y^2 = x^3 + a x + b`` over ``GF(p)``.

    Attributes
    ----------
    name: canonical curve name as used in the paper.
    p: base-field modulus (coordinates).
    r: scalar-field modulus (MSM scalars are taken mod ``r``).
    a, b: curve coefficients.
    gx, gy: affine coordinates of the group generator.
    cofactor: ``#E(GF(p)) / r`` for the prime-order subgroup.
    scalar_bits: λ, the scalar bit width used by Pippenger windowing.
    synthetic: True when parameters are a documented stand-in (MNT4753).
    """

    name: str
    p: int
    r: int
    a: int
    b: int
    gx: int
    gy: int
    cofactor: int = 1
    synthetic: bool = False
    tags: tuple = field(default_factory=tuple)

    @property
    def scalar_bits(self) -> int:
        return self.r.bit_length()

    @property
    def field_bits(self) -> int:
        return self.p.bit_length()

    @property
    def num_limbs(self) -> int:
        """32-bit limbs per base-field element (the kernel cost driver)."""
        return limb_count(self.field_bits)

    def __repr__(self):
        return f"CurveParams({self.name}, p={self.field_bits}b, r={self.scalar_bits}b)"


def _bn_fields(t: int) -> tuple[int, int]:
    p = 36 * t**4 + 36 * t**3 + 24 * t**2 + 6 * t + 1
    r = 36 * t**4 + 36 * t**3 + 18 * t**2 + 6 * t + 1
    return p, r


def _bls12_fields(u: int) -> tuple[int, int, int]:
    r = u**4 - u**2 + 1
    p = ((u - 1) ** 2 * r) // 3 + u
    h1 = (u - 1) ** 2 // 3
    return p, r, h1


def _sqrt_3_mod_4(value: int, p: int) -> int | None:
    root = pow(value % p, (p + 1) // 4, p)
    return root if (root * root - value) % p == 0 else None


def _find_subgroup_generator(p: int, a: int, b: int, cofactor: int, r: int) -> tuple[int, int]:
    """Find a point of order ``r`` by cofactor-clearing a small-x point.

    Robust against mis-remembered generator constants: only ``p``, ``a``,
    ``b``, ``r`` and the cofactor need to be correct, which tests verify via
    the family-polynomial derivations.
    """
    from repro.curves.point import AffinePoint, pmul_affine

    for x in range(1, 1000):
        rhs = (x * x * x + a * x + b) % p
        if p % 4 == 3:
            y = _sqrt_3_mod_4(rhs, p)
        else:
            from repro.fields.prime_field import sqrt_mod

            y = sqrt_mod(rhs, p)
        if y is None:
            continue
        candidate = AffinePoint(x, y)
        cleared = pmul_affine(candidate, cofactor, p, a)
        if not cleared.infinity:
            return cleared.x, cleared.y
    raise RuntimeError("no generator found in the first 1000 x values")


@lru_cache(maxsize=None)
def _build_registry() -> dict[str, CurveParams]:
    curves = {}

    p, r = _bn_fields(BN254_T)
    curves["BN254"] = CurveParams(
        name="BN254",
        p=p,
        r=r,
        a=0,
        b=3,
        gx=1,
        gy=2,
        cofactor=1,
        tags=("pairing", "groth16"),
    )

    p, r, h1 = _bls12_fields(BLS12_377_U)
    gx, gy = _find_subgroup_generator(p, 0, 1, h1, r)
    curves["BLS12-377"] = CurveParams(
        name="BLS12-377",
        p=p,
        r=r,
        a=0,
        b=1,
        gx=gx,
        gy=gy,
        cofactor=h1,
        tags=("pairing",),
    )

    p, r, h1 = _bls12_fields(BLS12_381_U)
    curves["BLS12-381"] = CurveParams(
        name="BLS12-381",
        p=p,
        r=r,
        a=0,
        b=4,
        gx=0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
        gy=0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
        cofactor=h1,
        tags=("pairing",),
    )

    p753 = _SYNTHETIC_753_PRIME
    gy753 = _sqrt_3_mod_4((1 + 2 + 28) % p753, p753)
    if gy753 is None:  # pragma: no cover - fixed constant, checked by tests
        raise AssertionError("synthetic MNT4753 generator construction failed")
    curves["MNT4753"] = CurveParams(
        name="MNT4753",
        p=p753,
        r=p753,  # scalars are full-width 753-bit values, as in MNT4-753
        a=2,
        b=28,
        gx=1,
        gy=gy753,
        cofactor=1,
        synthetic=True,
        tags=("stress",),
    )
    return curves


def curve_by_name(name: str) -> CurveParams:
    """Look up a curve by its paper name (case-insensitive)."""
    registry = _build_registry()
    for key, params in registry.items():
        if key.lower() == name.lower():
            return params
    raise KeyError(f"unknown curve {name!r}; known: {sorted(registry)}")


def list_curves() -> list[CurveParams]:
    """All registered curves, in the paper's Table 1 order."""
    registry = _build_registry()
    return [registry[n] for n in ("BN254", "BLS12-377", "BLS12-381", "MNT4753")]


def __getattr__(name: str):
    """Module-level lazy curve constants: BN254, BLS12_377, BLS12_381, MNT4753."""
    aliases = {
        "BN254": "BN254",
        "BLS12_377": "BLS12-377",
        "BLS12_381": "BLS12-381",
        "MNT4753": "MNT4753",
    }
    if name in aliases:
        return curve_by_name(aliases[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
