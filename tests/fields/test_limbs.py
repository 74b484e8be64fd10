"""Unit and property tests for 32-bit limb arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.fields.limbs import (
    OpCounter,
    limb_count,
    limbs_cmp,
    limbs_mul,
    limbs_sub,
    to_limbs,
)

values_256 = st.integers(min_value=0, max_value=(1 << 256) - 1)


def from_limbs(limbs: list[int]) -> int:
    """Reassemble an integer from little-endian 32-bit limbs."""
    return sum(limb << (32 * i) for i, limb in enumerate(limbs))


class TestConversions:
    def test_round_trip_zero(self):
        assert from_limbs(to_limbs(0, 4)) == 0

    def test_round_trip_max(self):
        value = (1 << 128) - 1
        assert from_limbs(to_limbs(value, 4)) == value

    def test_to_limbs_little_endian(self):
        assert to_limbs(1 << 32, 2) == [0, 1]

    def test_to_limbs_rejects_overflow(self):
        with pytest.raises(ValueError):
            to_limbs(1 << 64, 2)

    def test_to_limbs_rejects_negative(self):
        with pytest.raises(ValueError):
            to_limbs(-1, 2)

    @given(values_256)
    def test_round_trip_property(self, value):
        assert from_limbs(to_limbs(value, 8)) == value


class TestLimbCount:
    @pytest.mark.parametrize(
        "bits,expected",
        [(1, 1), (32, 1), (33, 2), (254, 8), (377, 12), (381, 12), (753, 24)],
    )
    def test_paper_curve_limb_counts(self, bits, expected):
        assert limb_count(bits) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            limb_count(0)


class TestSub:
    @given(values_256, values_256)
    def test_sub_matches_int(self, a, b):
        la, lb = to_limbs(a, 8), to_limbs(b, 8)
        out, borrow = limbs_sub(la, lb)
        assert from_limbs(out) - (borrow << 256) == a - b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            limbs_sub([0], [0, 0])


class TestMul:
    @given(values_256, values_256)
    def test_mul_matches_int(self, a, b):
        la, lb = to_limbs(a, 8), to_limbs(b, 8)
        assert from_limbs(limbs_mul(la, lb)) == a * b

    def test_mul_counts_quadratic_mults(self):
        counter = OpCounter()
        limbs_mul([1] * 8, [1] * 8, counter)
        assert counter.mul == 64


class TestCmp:
    @given(values_256, values_256)
    def test_cmp_matches_int(self, a, b):
        expected = (a > b) - (a < b)
        assert limbs_cmp(to_limbs(a, 8), to_limbs(b, 8)) == expected


class TestOpCounter:
    def test_total(self):
        c = OpCounter(mul=1, add=2, mov=3)
        assert c.total == 6
