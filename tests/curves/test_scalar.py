"""Window decomposition and signed-digit recoding."""

import pytest
from hypothesis import given, strategies as st

from repro.curves.scalar import (
    num_windows,
    signed_windows,
    unsigned_windows,
)

scalars_253 = st.integers(0, (1 << 253) - 1)
window_sizes = st.integers(1, 24)


def reassemble(digits: list[int], window_size: int) -> int:
    """Inverse of the decompositions: ``sum(d_j * 2^(j*s))``."""
    return sum(d << (i * window_size) for i, d in enumerate(digits))


class TestNumWindows:
    @pytest.mark.parametrize(
        "bits,s,expected", [(253, 11, 23), (253, 16, 16), (254, 20, 13), (753, 11, 69)]
    )
    def test_paper_window_counts(self, bits, s, expected):
        assert num_windows(bits, s) == expected

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            num_windows(253, 0)


class TestUnsigned:
    def test_docstring_example(self):
        assert unsigned_windows(0b101101, 2, 3) == [1, 3, 2]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            unsigned_windows(-1, 4, 2)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            unsigned_windows(1 << 16, 4, 4)

    @given(scalars_253, window_sizes)
    def test_round_trip(self, k, s):
        digits = unsigned_windows(k, s, num_windows(253, s))
        assert reassemble(digits, s) == k
        assert all(0 <= d < (1 << s) for d in digits)


class TestSigned:
    @given(scalars_253, window_sizes)
    def test_round_trip(self, k, s):
        digits = signed_windows(k, s, num_windows(253, s))
        assert reassemble(digits, s) == k

    @given(scalars_253, window_sizes)
    def test_digit_range(self, k, s):
        digits = signed_windows(k, s, num_windows(253, s))
        half = 1 << (s - 1)
        assert all(-half < d <= half for d in digits[:-1])
        assert digits[-1] in (0, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            signed_windows(-5, 4, 2)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            signed_windows(1 << 20, 4, 4)

    def test_carry_chain(self):
        # all-ones digits force carries through every window
        s = 4
        k = int("f" * 8, 16)
        digits = signed_windows(k, s, 8)
        assert reassemble(digits, s) == k
        assert digits[-1] == 1  # the final carry spills into the extra digit
