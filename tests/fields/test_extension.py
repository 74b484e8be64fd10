"""Tower extension fields and their isomorphism to the flat pairing basis."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.zksnark.pairing import FQ12

from tests.fields.extension import (
    Fp2,
    Fp6,
    Fp12,
    P,
    flat_to_tower,
    tower_to_flat,
)

ints = st.integers(0, P - 1)


def _rand_fp2(rng):
    return Fp2(rng.randrange(P), rng.randrange(P))


def _rand_fp6(rng):
    return Fp6(_rand_fp2(rng), _rand_fp2(rng), _rand_fp2(rng))


def _rand_fp12(rng):
    return Fp12(_rand_fp6(rng), _rand_fp6(rng))


class TestFp2:
    def test_u_squared(self):
        u = Fp2(0, 1)
        assert u * u == Fp2(-1, 0)

    @given(ints, ints, ints, ints)
    @settings(max_examples=25, deadline=None)
    def test_mul_commutative(self, a, b, c, d):
        x, y = Fp2(a, b), Fp2(c, d)
        assert x * y == y * x

    @given(ints, ints)
    @settings(max_examples=25, deadline=None)
    def test_square_matches_mul(self, a, b):
        x = Fp2(a, b)
        assert x.square() == x * x

    @given(ints, ints)
    @settings(max_examples=25, deadline=None)
    def test_inverse(self, a, b):
        x = Fp2(a, b)
        if x.is_zero():
            return
        assert x * x.inverse() == Fp2.one()

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            Fp2.zero().inverse()

    def test_mul_by_xi(self):
        x = Fp2(3, 7)
        assert x.mul_by_xi() == x * Fp2(9, 1)

    def test_conjugate_norm(self):
        x = Fp2(3, 7)
        n = x * x.conjugate()
        assert n.b == 0
        assert n.a == (3 * 3 + 7 * 7) % P


class TestFp6:
    def test_v_cubed_is_xi(self):
        v = Fp6(Fp2.zero(), Fp2.one(), Fp2.zero())
        v3 = v * v * v
        assert v3 == Fp6(Fp2(9, 1), Fp2.zero(), Fp2.zero())

    def test_mul_by_v_matches(self):
        rng = random.Random(1)
        x = _rand_fp6(rng)
        v = Fp6(Fp2.zero(), Fp2.one(), Fp2.zero())
        assert x.mul_by_v() == x * v

    def test_associative(self):
        rng = random.Random(2)
        x, y, z = (_rand_fp6(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)

    def test_inverse(self):
        rng = random.Random(3)
        for _ in range(5):
            x = _rand_fp6(rng)
            assert x * x.inverse() == Fp6.one()

    def test_distributive(self):
        rng = random.Random(4)
        x, y, z = (_rand_fp6(rng) for _ in range(3))
        assert x * (y + z) == x * y + x * z


class TestFp12:
    def test_w_squared_is_v(self):
        w = Fp12(Fp6.zero(), Fp6.one())
        v = Fp12(Fp6(Fp2.zero(), Fp2.one(), Fp2.zero()), Fp6.zero())
        assert w * w == v

    def test_inverse(self):
        rng = random.Random(5)
        x = _rand_fp12(rng)
        assert x * x.inverse() == Fp12.one()

    def test_pow(self):
        rng = random.Random(6)
        x = _rand_fp12(rng)
        assert x.pow(5) == x * x * x * x * x
        assert x.pow(0) == Fp12.one()
        assert x.pow(-1) == x.inverse()

    def test_conjugate_involution(self):
        rng = random.Random(7)
        x = _rand_fp12(rng)
        assert x.conjugate().conjugate() == x


class TestIsomorphism:
    """tower_to_flat must be a ring isomorphism onto the pairing's FQ12."""

    def test_round_trip(self):
        rng = random.Random(8)
        x = _rand_fp12(rng)
        assert flat_to_tower(tower_to_flat(x)) == x

    def test_one_maps_to_one(self):
        assert tower_to_flat(Fp12.one()) == FQ12.one().coeffs

    def test_w_maps_to_w(self):
        w_tower = Fp12(Fp6.zero(), Fp6.one())
        assert tower_to_flat(w_tower) == tuple([0, 1] + [0] * 10)

    def test_addition_homomorphism(self):
        rng = random.Random(9)
        x, y = _rand_fp12(rng), _rand_fp12(rng)
        lhs = FQ12(list(tower_to_flat(x))) + FQ12(list(tower_to_flat(y)))
        rhs = FQ12(list(tower_to_flat(x + y)))
        assert lhs == rhs

    def test_multiplication_homomorphism(self):
        """The load-bearing cross-check: tower mul == flat-basis mul."""
        rng = random.Random(10)
        for _ in range(5):
            x, y = _rand_fp12(rng), _rand_fp12(rng)
            lhs = FQ12(list(tower_to_flat(x))) * FQ12(list(tower_to_flat(y)))
            rhs = FQ12(list(tower_to_flat(x * y)))
            assert lhs == rhs

    def test_inverse_homomorphism(self):
        rng = random.Random(11)
        x = _rand_fp12(rng)
        lhs = FQ12(list(tower_to_flat(x))).inverse()
        rhs = FQ12(list(tower_to_flat(x.inverse())))
        assert lhs == rhs

    def test_flat_to_tower_validates_length(self):
        with pytest.raises(ValueError):
            flat_to_tower([1, 2, 3])
