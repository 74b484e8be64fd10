"""Curve registry validation — including the paper's Table 1 bit widths."""

import pytest

from repro.curves.params import curve_by_name, list_curves
from repro.curves.point import AffinePoint, XyzzPoint, pmul, xyzz_on_curve

from tests.curves.numtheory import is_probable_prime


class TestRegistry:
    def test_four_curves_registered(self):
        assert [c.name for c in list_curves()] == [
            "BN254",
            "BLS12-377",
            "BLS12-381",
            "MNT4753",
        ]

    def test_lookup_case_insensitive(self):
        assert curve_by_name("bn254").name == "BN254"

    def test_unknown_curve_raises(self):
        with pytest.raises(KeyError):
            curve_by_name("secp256k1")

    def test_module_level_constants(self):
        from repro.curves import params

        assert params.BLS12_377.name == "BLS12-377"
        with pytest.raises(AttributeError):
            params.NOPE  # noqa: B018


class TestTable1BitWidths:
    """Paper Table 1: scalar and point bit counts per curve."""

    @pytest.mark.parametrize(
        "name,scalar_bits,field_bits",
        [
            ("BN254", 254, 254),
            ("BLS12-377", 253, 377),
            ("BLS12-381", 255, 381),
            ("MNT4753", 753, 753),
        ],
    )
    def test_bit_widths(self, name, scalar_bits, field_bits):
        curve = curve_by_name(name)
        assert curve.scalar_bits == scalar_bits
        assert curve.field_bits == field_bits

    @pytest.mark.parametrize(
        "name,limbs", [("BN254", 8), ("BLS12-377", 12), ("BLS12-381", 12), ("MNT4753", 24)]
    )
    def test_limb_counts(self, name, limbs):
        assert curve_by_name(name).num_limbs == limbs


class TestParameterSoundness:
    @pytest.mark.parametrize("name", ["BN254", "BLS12-377", "BLS12-381", "MNT4753"])
    def test_field_modulus_prime(self, name):
        assert is_probable_prime(curve_by_name(name).p)

    @pytest.mark.parametrize("name", ["BN254", "BLS12-377", "BLS12-381"])
    def test_scalar_modulus_prime(self, name):
        assert is_probable_prime(curve_by_name(name).r)

    def test_generators_on_curve(self, any_curve):
        generator = AffinePoint(any_curve.gx, any_curve.gy)
        assert xyzz_on_curve(XyzzPoint.from_affine(generator), any_curve)

    @pytest.mark.parametrize("name", ["BN254", "BLS12-377", "BLS12-381"])
    @pytest.mark.slow
    def test_generator_has_order_r(self, name):
        curve = curve_by_name(name)
        generator = AffinePoint(curve.gx, curve.gy)
        assert pmul(generator, curve.r, curve).infinity

    def test_synthetic_flag(self):
        assert curve_by_name("MNT4753").synthetic
        assert not curve_by_name("BN254").synthetic

    def test_is_on_curve_rejects_off_curve(self, bn254):
        assert not xyzz_on_curve(XyzzPoint.from_affine(AffinePoint(1, 3)), bn254)

    def test_repr(self, bn254):
        assert "BN254" in repr(bn254)
