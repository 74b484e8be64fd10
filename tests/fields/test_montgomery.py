"""Montgomery multiplication: SOS / CIOS / FIOS vs integer reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.params import curve_by_name, list_curves
from repro.fields.limbs import OpCounter, to_limbs
from repro.fields.montgomery import MontgomeryContext

BN254_P = curve_by_name("BN254").p

from tests.fields.test_limbs import from_limbs

METHODS = ["sos", "cios", "fios"]


def mont_mul(ctx: MontgomeryContext, a_mont: int, b_mont: int, method: str) -> int:
    """Montgomery-multiply two Montgomery-domain integers with one word-level
    algorithm (``mont_mul_sos`` / ``_cios`` / ``_fios``)."""
    limbs = getattr(ctx, f"mont_mul_{method}")(
        to_limbs(a_mont, ctx.num_limbs), to_limbs(b_mont, ctx.num_limbs)
    )
    return from_limbs(limbs)


@pytest.fixture(scope="module")
def ctx():
    return MontgomeryContext(BN254_P)


class TestContextSetup:
    def test_rejects_even_modulus(self):
        with pytest.raises(ValueError):
            MontgomeryContext(100)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            MontgomeryContext(1)

    def test_rejects_undersized_limb_count(self):
        with pytest.raises(ValueError):
            MontgomeryContext(BN254_P, num_limbs=4)

    def test_n0_prime_identity(self, ctx):
        # n * n' == -1 mod 2^32  <=>  n * n0' == 2^32 - 1 mod 2^32
        assert (BN254_P * ctx.n0_prime) % (1 << 32) == (1 << 32) - 1

    def test_domain_round_trip(self, ctx):
        for x in [0, 1, 12345, BN254_P - 1]:
            assert ctx.from_mont(ctx.to_mont(x)) == x


class TestCorrectness:
    @pytest.mark.parametrize("method", METHODS)
    def test_small_product(self, ctx, method):
        a, b = 3, 5
        am, bm = ctx.to_mont(a), ctx.to_mont(b)
        product = mont_mul(ctx, am, bm, method)
        assert ctx.from_mont(product) == 15

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, BN254_P - 1), st.integers(0, BN254_P - 1))
    def test_matches_integer_reference(self, ctx, method, a, b):
        am, bm = ctx.to_mont(a), ctx.to_mont(b)
        assert ctx.from_mont(mont_mul(ctx, am, bm, method)) == (a * b) % BN254_P

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_mont_mul_int(self, ctx, method):
        am, bm = ctx.to_mont(0xDEADBEEF), ctx.to_mont(0xC0FFEE)
        assert mont_mul(ctx, am, bm, method) == ctx.mont_mul_int(am, bm)

    @pytest.mark.parametrize("method", METHODS)
    def test_edge_operands(self, ctx, method):
        for a, b in [(0, 0), (0, BN254_P - 1), (BN254_P - 1, BN254_P - 1)]:
            am, bm = ctx.to_mont(a), ctx.to_mont(b)
            assert ctx.from_mont(mont_mul(ctx, am, bm, method)) == (a * b) % BN254_P

    def test_all_paper_curves(self):
        for curve in list_curves():
            ctx = MontgomeryContext(curve.p)
            a, b = curve.p // 3, curve.p // 7
            am, bm = ctx.to_mont(a), ctx.to_mont(b)
            for method in METHODS:
                assert ctx.from_mont(mont_mul(ctx, am, bm, method)) == (a * b) % curve.p

    def test_operand_length_checked(self, ctx):
        with pytest.raises(ValueError):
            ctx.mont_mul_sos([0] * 4, [0] * 8)


class TestOpCounts:
    """Word-op counts drive the GPU cost model; pin their structure."""

    def test_sos_mul_count(self, ctx):
        n = ctx.num_limbs
        counter = OpCounter()
        a = to_limbs(ctx.to_mont(123), n)
        b = to_limbs(ctx.to_mont(456), n)
        ctx.mont_mul_sos(a, b, counter)
        # N^2 (product) + N (m_i) + N^2 (m x n), Koc et al.'s 2N^2 + N
        assert counter.mul == 2 * n * n + n

    def test_cios_mul_count(self, ctx):
        n = ctx.num_limbs
        counter = OpCounter()
        a = to_limbs(ctx.to_mont(123), n)
        b = to_limbs(ctx.to_mont(456), n)
        ctx.mont_mul_cios(a, b, counter)
        assert counter.mul == 2 * n * n + n

    def test_fios_mul_count(self, ctx):
        n = ctx.num_limbs
        counter = OpCounter()
        a = to_limbs(ctx.to_mont(123), n)
        b = to_limbs(ctx.to_mont(456), n)
        ctx.mont_mul_fios(a, b, counter)
        assert counter.mul == 2 * n * n + n

    def test_counts_scale_quadratically_with_limbs(self):
        counts = {}
        for name in ("BN254", "MNT4753"):
            curve = curve_by_name(name)
            ctx = MontgomeryContext(curve.p)
            counter = OpCounter()
            x = to_limbs(ctx.to_mont(7), ctx.num_limbs)
            ctx.mont_mul_sos(x, x, counter)
            counts[name] = counter.mul
        # 24 limbs vs 8 limbs: multiply count ratio == (2*24^2+24)/(2*8^2+8)
        assert counts["MNT4753"] / counts["BN254"] == pytest.approx(1176 / 136)
