"""NTT correctness: transforms and cosets."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.params import curve_by_name
from repro.zksnark.ntt import NttDomain, two_adicity

BN_R = curve_by_name("BN254").r
BLS381_R = curve_by_name("BLS12-381").r


def poly_eval(coefficients: list[int], x: int, modulus: int) -> int:
    """Horner evaluation of a coefficient-form polynomial."""
    acc = 0
    for c in reversed(coefficients):
        acc = (acc * x + c) % modulus
    return acc


def domain_elements(dom: NttDomain) -> list[int]:
    """The domain points ``omega^0 .. omega^(n-1)``."""
    return [pow(dom.omega, i, dom.modulus) for i in range(dom.size)]


class TestTwoAdicity:
    def test_bn254_is_28(self):
        assert two_adicity(BN_R) == 28

    def test_bls12_381_is_32(self):
        assert two_adicity(BLS381_R) == 32

    def test_small(self):
        assert two_adicity(17) == 4

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            two_adicity(2)


class TestDomain:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            NttDomain(17, 3)

    def test_rejects_oversized_domain(self):
        with pytest.raises(ValueError):
            NttDomain(17, 32)  # 2-adicity of 17 is 4

    def test_omega_has_exact_order(self):
        dom = NttDomain(BN_R, 64)
        assert pow(dom.omega, 64, BN_R) == 1
        assert pow(dom.omega, 32, BN_R) != 1

    def test_elements(self):
        dom = NttDomain(17, 4)
        elems = domain_elements(dom)
        assert len(set(elems)) == 4
        assert elems[0] == 1

    def test_ntt_matches_naive_dft(self):
        dom = NttDomain(BN_R, 8)
        rng = random.Random(1)
        coeffs = [rng.randrange(BN_R) for _ in range(8)]
        expected = [poly_eval(coeffs, x, BN_R) for x in domain_elements(dom)]
        assert dom.ntt(coeffs) == expected

    def test_round_trip(self):
        dom = NttDomain(BN_R, 16)
        rng = random.Random(2)
        coeffs = [rng.randrange(BN_R) for _ in range(16)]
        assert dom.intt(dom.ntt(coeffs)) == coeffs

    @given(st.lists(st.integers(0, BN_R - 1), min_size=32, max_size=32))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, coeffs):
        dom = NttDomain(BN_R, 32)
        assert dom.intt(dom.ntt(coeffs)) == [c % BN_R for c in coeffs]

    def test_length_checked(self):
        dom = NttDomain(BN_R, 8)
        with pytest.raises(ValueError):
            dom.ntt([1, 2, 3])

    def test_coset_round_trip(self):
        dom = NttDomain(BN_R, 16)
        rng = random.Random(3)
        coeffs = [rng.randrange(BN_R) for _ in range(16)]
        shift = 5
        assert dom.coset_intt(dom.coset_ntt(coeffs, shift), shift) == coeffs

    def test_coset_evaluates_at_shifted_points(self):
        dom = NttDomain(BN_R, 8)
        coeffs = [3, 1, 4, 1, 5, 9, 2, 6]
        shift = 7
        got = dom.coset_ntt(coeffs, shift)
        expected = [
            poly_eval(coeffs, shift * w % BN_R, BN_R) for w in domain_elements(dom)
        ]
        assert got == expected

    def test_vanishing_constant_on_coset(self):
        dom = NttDomain(BN_R, 16)
        shift = 5
        z = dom.vanishing_on_coset(shift)
        for w in domain_elements(dom)[:4]:
            x = shift * w % BN_R
            assert (pow(x, 16, BN_R) - 1) % BN_R == z

    def test_vanishing_zero_on_domain(self):
        dom = NttDomain(BN_R, 16)
        for w in domain_elements(dom)[:4]:
            assert (pow(w, 16, BN_R) - 1) % BN_R == 0
