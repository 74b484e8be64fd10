"""BN254 pairing: tower arithmetic fast tests + slow bilinearity checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint, affine_neg, pmul
from repro.zksnark.pairing import (
    ATE_LOOP_COUNT,
    B2,
    FQ2,
    FQ12,
    G1_GENERATOR,
    G2_GENERATOR,
    cast_g1_to_fq12,
    g2_add,
    g2_mul,
    is_on_curve_fq,
    pairing,
    pairing_check,
    point_add,
    point_double,
    point_mul,
    point_neg,
    twist,
)

BN254 = curve_by_name("BN254")
P = BN254.p

small = st.integers(0, P - 1)


class TestFQ2:
    def test_i_squared_is_minus_one(self):
        i = FQ2([0, 1])
        assert i * i == FQ2([-1, 0])

    def test_add_sub(self):
        a, b = FQ2([3, 4]), FQ2([10, 20])
        assert a + b == FQ2([13, 24])
        assert b - a == FQ2([7, 16])
        assert a + 1 == FQ2([4, 4])
        assert 1 - a == FQ2([-2, -4])

    @given(small, small)
    @settings(max_examples=20, deadline=None)
    def test_inverse(self, x, y):
        a = FQ2([x, y])
        if a.is_zero():
            return
        assert a * a.inverse() == FQ2.one()

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            FQ2([0, 0]).inverse()

    def test_division(self):
        a, b = FQ2([3, 4]), FQ2([5, 6])
        assert (a / b) * b == a

    def test_pow(self):
        a = FQ2([3, 4])
        assert a**3 == a * a * a
        assert a**0 == FQ2.one()
        assert a**-1 == a.inverse()

    def test_coefficient_count_checked(self):
        with pytest.raises(ValueError):
            FQ2([1, 2, 3])

    def test_frobenius_via_pow_p(self):
        """x^p is the conjugate in FQ2."""
        a = FQ2([3, 4])
        assert a**P == FQ2([3, -4])


class TestFQ12:
    def test_tower_relation(self):
        """w^6 = 9 + i: the embedded i = w^6 - 9 must square to -1."""
        w = FQ12([0, 1] + [0] * 10)
        i_embedded = w**6 - 9
        assert i_embedded * i_embedded == FQ12.from_int(-1)

    def test_mul_associative(self):
        a = FQ12(list(range(1, 13)))
        b = FQ12(list(range(13, 25)))
        c = FQ12([7, 0, 3, 0, 1, 0, 4, 0, 1, 0, 5, 9])
        assert (a * b) * c == a * (b * c)

    def test_inverse(self):
        a = FQ12(list(range(1, 13)))
        assert a * a.inverse() == FQ12.one()

    def test_distributive(self):
        a = FQ12(list(range(1, 13)))
        b = FQ12(list(range(2, 14)))
        c = FQ12(list(range(3, 15)))
        assert a * (b + c) == a * b + a * c


class TestG2:
    def test_generator_on_twist(self):
        assert is_on_curve_fq(G2_GENERATOR, B2)

    def test_double_and_add_consistent(self):
        d = point_double(G2_GENERATOR)
        a = point_add(G2_GENERATOR, G2_GENERATOR)
        assert d == a
        assert is_on_curve_fq(d, B2)

    def test_identity_handling(self):
        assert point_add(None, G2_GENERATOR) == G2_GENERATOR
        assert point_add(G2_GENERATOR, None) == G2_GENERATOR
        assert point_double(None) is None
        assert point_mul(G2_GENERATOR, 0) is None

    def test_inverse_addition(self):
        assert point_add(G2_GENERATOR, point_neg(G2_GENERATOR)) is None

    def test_scalar_mul_homomorphic(self):
        assert g2_mul(g2_mul(G2_GENERATOR, 3), 5) == g2_mul(G2_GENERATOR, 15)

    def test_negative_scalar(self):
        assert point_mul(G2_GENERATOR, -2) == point_neg(g2_mul(G2_GENERATOR, 2))

    @pytest.mark.slow
    def test_generator_order(self):
        assert g2_mul(G2_GENERATOR, BN254.r) is None

    def test_twist_lands_on_fq12_curve(self):
        tx, ty = twist(G2_GENERATOR)
        assert ty * ty - tx * tx * tx == FQ12.from_int(3)

    def test_twist_identity(self):
        assert twist(None) is None


class TestPairingStructure:
    def test_ate_loop_count(self):
        from repro.curves.params import BN254_T

        assert ATE_LOOP_COUNT == 6 * BN254_T + 2

    def test_cast_g1(self):
        x, y = cast_g1_to_fq12(G1_GENERATOR)
        assert y * y - x * x * x == FQ12.from_int(3)
        assert cast_g1_to_fq12(None) is None

    def test_off_curve_inputs_rejected(self):
        with pytest.raises(ValueError):
            pairing(G2_GENERATOR, (1, 3))
        bad_g2 = (G2_GENERATOR[0], G2_GENERATOR[0])
        with pytest.raises(ValueError):
            pairing(bad_g2, G1_GENERATOR)


@pytest.mark.slow
class TestPairingProperties:
    @pytest.fixture(scope="class")
    def e_gen(self):
        return pairing(G2_GENERATOR, G1_GENERATOR)

    def test_non_degenerate(self, e_gen):
        assert e_gen != FQ12.one()

    def test_bilinear_in_g1(self, e_gen):
        g = AffinePoint(BN254.gx, BN254.gy)
        p2 = pmul(g, 2, BN254)
        assert pairing(G2_GENERATOR, (p2.x, p2.y)) == e_gen * e_gen

    def test_bilinear_in_g2(self, e_gen):
        q2 = g2_mul(G2_GENERATOR, 2)
        assert pairing(q2, G1_GENERATOR) == e_gen * e_gen

    def test_full_bilinearity(self, e_gen):
        """e(aP, bQ) == e(P, Q)^(ab)."""
        g = AffinePoint(BN254.gx, BN254.gy)
        a, b = 3, 5
        pa = pmul(g, a, BN254)
        qb = g2_mul(G2_GENERATOR, b)
        assert pairing(qb, (pa.x, pa.y)) == e_gen ** (a * b)

    def test_inverse_pair_cancels(self):
        g = AffinePoint(BN254.gx, BN254.gy)
        neg = affine_neg(g, BN254)
        assert pairing_check(
            [((neg.x, neg.y), G2_GENERATOR), ((g.x, g.y), G2_GENERATOR)]
        )

    def test_unbalanced_product_fails(self):
        g = AffinePoint(BN254.gx, BN254.gy)
        p2 = pmul(g, 2, BN254)
        assert not pairing_check(
            [((p2.x, p2.y), G2_GENERATOR), ((g.x, g.y), G2_GENERATOR)]
        )

    def test_identity_inputs_give_one(self):
        assert pairing(None, G1_GENERATOR) == FQ12.one()
        assert pairing(G2_GENERATOR, None) == FQ12.one()


class TestFqpValueSemantics:
    def test_equal_elements_hash_alike(self):
        a = FQ2([3, 5])
        b = FQ2([3 + P, 5 - P])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, FQ2([5, 3])}) == 2

    def test_repr_names_the_class_and_coefficients(self):
        assert repr(FQ2([3, 5])) == "FQ2(3, 5)"
