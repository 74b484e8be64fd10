"""Tensor-core Montgomery multiplication and on-the-fly compaction (§4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.params import curve_by_name, list_curves
from repro.fields.montgomery import MontgomeryContext
from repro.kernels.compaction import (
    compact_accumulators,
    compacted_bits,
    compaction_cost,
    partials_to_int,
)
from repro.kernels.montmul_tc import (
    TensorCoreMontgomery,
    accumulators_to_int,
    constant_operand_matrix,
    int_to_bytes_vector,
    tensor_core_multiply,
)

BN254 = curve_by_name("BN254")


class TestByteVectors:
    def test_round_trip(self):
        v = 0x1234_5678_9ABC_DEF0
        assert accumulators_to_int(int_to_bytes_vector(v, 8)) == v

    def test_little_endian(self):
        vec = int_to_bytes_vector(0x0102, 4)
        assert list(vec) == [0x02, 0x01, 0, 0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            int_to_bytes_vector(-1, 4)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            int_to_bytes_vector(1 << 32, 4)


class TestConstantMatrix:
    def test_shape(self):
        mat = constant_operand_matrix(BN254.p, 32)
        assert mat.shape == (32, 64)

    def test_banded_structure(self):
        mat = constant_operand_matrix(0x0102, 4)
        # row j holds the constant's bytes shifted right by j columns
        assert list(mat[0][:4]) == [0x02, 0x01, 0, 0]
        assert list(mat[1][1:5]) == [0x02, 0x01, 0, 0]
        assert mat[1][0] == 0

    @given(st.integers(0, (1 << 256) - 1), st.integers(0, (1 << 256) - 1))
    @settings(max_examples=25, deadline=None)
    def test_matrix_product_is_integer_product(self, a, n):
        mat = constant_operand_matrix(n, 32)
        acc = tensor_core_multiply(a, mat)
        assert accumulators_to_int(acc) == a * n

    def test_significant_bits_claim(self):
        """Paper: <= 23 significant bits per uint32 output for <= 95 bytes."""
        assert (95 * 255 * 255).bit_length() == 23
        # worst case operands really stay within the bound
        a = n = (1 << 256) - 1
        acc = tensor_core_multiply(a, constant_operand_matrix(n, 32))
        assert int(acc.max()) < (1 << (32 * 255 * 255).bit_length())


class TestTensorCoreMontgomery:
    @pytest.fixture(scope="class")
    def tc(self):
        return TensorCoreMontgomery(MontgomeryContext(BN254.p))

    def test_matches_reference(self, tc):
        ctx = tc.ctx
        a, b = 0xDEADBEEF, 0xC0FFEE
        am, bm = ctx.to_mont(a), ctx.to_mont(b)
        result = tc.multiply(am, bm)
        assert result.product == ctx.mont_mul_int(am, bm)

    @given(st.integers(0, BN254.p - 1), st.integers(0, BN254.p - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_property(self, tc, a, b):
        ctx = tc.ctx
        am, bm = ctx.to_mont(a), ctx.to_mont(b)
        assert tc.multiply(am, bm).product == ctx.mont_mul_int(am, bm)

    def test_works_for_all_curves(self):
        for curve in list_curves():
            ctx = MontgomeryContext(curve.p)
            tc = TensorCoreMontgomery(ctx)
            am, bm = ctx.to_mont(curve.p // 5), ctx.to_mont(curve.p // 9)
            assert tc.multiply(am, bm).product == ctx.mont_mul_int(am, bm)

    def test_op_counts(self, tc):
        result = tc.multiply(tc.ctx.to_mont(3), tc.ctx.to_mont(5))
        n = tc.ctx.num_limbs
        assert result.mma_ops == (4 * n) ** 2
        assert result.cuda_mul_ops == n * n + n

    def test_reduction_m_is_exact(self, tc):
        """C + m*n must vanish mod R — the defining property of m."""
        c = 123456789 * BN254.p + 987654321
        m = tc.reduction_m(c)
        assert (c + m * tc.ctx.modulus) % tc.ctx.r == 0


class TestCompaction:
    def test_round_trip_random(self):
        rng = np.random.default_rng(5)
        acc = rng.integers(0, 1 << 23, size=64, dtype=np.int64).astype(np.uint32)
        assert partials_to_int(compact_accumulators(acc)) == accumulators_to_int(acc)

    def test_round_trip_real_product(self):
        tc = TensorCoreMontgomery(MontgomeryContext(BN254.p))
        am = tc.ctx.to_mont(424242)
        result = tc.multiply(am, tc.ctx.to_mont(171717))
        acc = result.tc_accumulators
        assert partials_to_int(compact_accumulators(acc)) == accumulators_to_int(acc)

    def test_partial_bit_width(self):
        """Paper: compacted partials are 45-bit for 256-bit operands."""
        assert compacted_bits(32) == 45

    def test_group_divisibility_checked(self):
        with pytest.raises(ValueError):
            compact_accumulators(np.zeros(6, dtype=np.uint32))

    def test_partials_reassemble(self):
        acc = np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.uint32)
        partials = compact_accumulators(acc)
        assert partials_to_int(partials) == accumulators_to_int(acc)

    def test_traffic_model_quotes_4x(self):
        """Paper: the naive path incurs 4x the optimal memory transfer."""
        cost = compaction_cost(32)
        assert cost.bytes_naive == 4 * cost.bytes_compacted
