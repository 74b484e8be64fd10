"""Square roots in a prime field."""

import random

import pytest

from repro.curves.params import curve_by_name
from repro.fields.prime_field import sqrt_mod

from tests.conftest import TOY_CURVE

P_BN = 21888242871839275222246405745257275088696311157297823662689037894645226208583


class TestBasics:
    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            sqrt_mod(0, 1)


class TestSqrt:
    def test_sqrt_of_zero(self):
        assert sqrt_mod(0, 13) == 0

    def test_sqrt_of_square(self):
        for v in range(1, 13):
            sq = v * v % 13
            root = sqrt_mod(sq, 13)
            assert root is not None
            assert root * root % 13 == sq

    def test_non_residue_returns_none(self):
        # 2 is a non-residue mod 13
        assert sqrt_mod(2, 13) is None

    def test_tonelli_shanks_path(self):
        # p = 17 has p % 4 == 1, forcing the Tonelli–Shanks branch
        for v in range(1, 17):
            sq = v * v % 17
            root = sqrt_mod(sq, 17)
            assert root * root % 17 == sq

    def test_large_field_sqrt(self):
        rng = random.Random(7)
        p = P_BN
        for _ in range(5):
            sq = pow(rng.randrange(1, p), 2, p)
            root = sqrt_mod(sq, p)
            assert root * root % p == sq


def _curve_fields():
    curves = [
        curve_by_name(n) for n in ("BN254", "BLS12-377", "BLS12-381", "MNT4753")
    ]
    fields = {
        f"{curve.name}-{label}": modulus
        for curve in curves
        for label, modulus in (("base", curve.p), ("scalar", curve.r))
    }
    # the toy group's order is composite: only its base field is a field
    fields[f"{TOY_CURVE.name}-base"] = TOY_CURVE.p
    return fields


CURVE_FIELDS = _curve_fields()


@pytest.mark.parametrize("field_name", sorted(CURVE_FIELDS))
class TestCurveFields:
    """Every registered curve's base and scalar field, both sqrt branches."""

    def test_roots_of_squares(self, field_name):
        p = CURVE_FIELDS[field_name]
        rng = random.Random(field_name)
        for _ in range(4):
            sq = pow(rng.randrange(1, p), 2, p)
            root = sqrt_mod(sq, p)
            assert root is not None and root * root % p == sq

    def test_non_residues_have_no_root(self, field_name):
        p = CURVE_FIELDS[field_name]
        rng = random.Random(field_name)
        found = 0
        while found < 4:
            v = rng.randrange(2, p)
            if pow(v, (p - 1) // 2, p) == p - 1:
                assert sqrt_mod(v, p) is None
                found += 1


@pytest.mark.parametrize("name", ["toy", "BN254", "BLS12-377", "BLS12-381", "MNT4753"])
def test_generator_y_is_a_root_of_the_curve_equation(name):
    curve = TOY_CURVE if name == "toy" else curve_by_name(name)
    p = curve.p
    rhs = (curve.gx ** 3 + curve.a * curve.gx + curve.b) % p
    assert sqrt_mod(rhs, p) in (curve.gy, p - curve.gy)
