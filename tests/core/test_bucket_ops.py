"""Bucket-sum and bucket-reduce: functional correctness + count models."""

from unittest import mock

import pytest

from repro.core.bucket_reduce import (
    cpu_bucket_reduce,
    cpu_bucket_reduce_counts,
    cpu_window_reduce,
    gpu_bucket_reduce_counts,
    gpu_bucket_reduce_per_thread_ops,
)
from repro.core import bucket_sum as bucket_sum_module
from repro.core.bucket_sum import (
    bucket_sum,
    bucket_sum_counts,
    expected_active_buckets,
    intra_bucket_overhead,
    per_thread_pacc,
    threads_per_bucket,
)
from repro.curves import point as point_module
from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint, XyzzPoint, pdbl, to_affine, xyzz_acc, xyzz_add
from repro.curves.sampling import sample_points
from repro.msm.batch_affine import add_affine_pairs

from tests.conftest import TOY_CURVE


def _reference_bucket_sums(buckets, points, negate=None):
    from repro.curves.point import affine_neg

    sums = []
    for members in buckets:
        acc = XyzzPoint.identity()
        for pid in members:
            pt = points[pid]
            if negate and negate[pid]:
                pt = affine_neg(pt, TOY_CURVE)
            acc = xyzz_acc(acc, pt, TOY_CURVE)
        sums.append(acc)
    return sums


class TestThreadsPerBucket:
    def test_minimum_is_warp(self):
        assert threads_per_bucket(1 << 20, 1 << 16) == 32

    def test_scales_when_buckets_scarce(self):
        # paper: 2^s < N_T -> N_T / 2^s threads per bucket
        assert threads_per_bucket(2048, 1 << 16) == 32
        assert threads_per_bucket(128, 1 << 16) == 512

    def test_warp_granularity(self):
        assert threads_per_bucket(100, 1 << 16) % 32 == 0

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            threads_per_bucket(0, 1 << 16)

    def test_never_below_a_non_warp_minimum(self):
        """Regression: a minimum of 48 was rounded down to one warp."""
        assert threads_per_bucket(4096, 1024, minimum=48) == 64
        assert threads_per_bucket(4, 1 << 16, minimum=48) == 16384

    @pytest.mark.parametrize("minimum", [1, 3, 8, 32, 128])
    def test_minimums_in_use_keep_their_result(self, minimum):
        """Rounding the minimum up changes nothing for the tuner's values."""
        for buckets in (1, 7, 64, 1000, 4096, 1 << 20):
            for concurrent in (1024, 1 << 16, 221184):
                before = max(32, (max(minimum, concurrent // buckets) // 32) * 32)
                assert threads_per_bucket(buckets, concurrent, minimum) == before


class TestBucketSum:
    def test_matches_serial_reference(self):
        points = sample_points(TOY_CURVE, 30, seed=1)
        buckets = [[0, 3, 6], [], [1, 2, 4, 5], [7]]
        for n_threads in (1, 2, 4, 32):
            out = bucket_sum(buckets, points, TOY_CURVE, n_threads)
            expected = _reference_bucket_sums(buckets, points)
            got = [to_affine(p, TOY_CURVE) for p in out.sums]
            want = [to_affine(p, TOY_CURVE) for p in expected]
            assert got == want

    def test_negation_flags(self):
        points = sample_points(TOY_CURVE, 6, seed=2)
        negate = [False, True, False, True, False, False]
        buckets = [[0, 1, 2, 3]]
        out = bucket_sum(buckets, points, TOY_CURVE, 2, negate)
        expected = _reference_bucket_sums(buckets, points, negate)
        assert to_affine(out.sums[0], TOY_CURVE) == to_affine(expected[0], TOY_CURVE)

    def test_pacc_count_is_membership(self):
        points = sample_points(TOY_CURVE, 10, seed=3)
        buckets = [[0, 1], [2, 3, 4], []]
        out = bucket_sum(buckets, points, TOY_CURVE, 4)
        assert out.counters.pacc == 5

    def test_tree_padd_count(self):
        points = sample_points(TOY_CURVE, 16, seed=4)
        buckets = [list(range(16))]
        out = bucket_sum(buckets, points, TOY_CURVE, 8)
        # 8 partials reduce with 7 PADDs
        assert out.counters.padd == 7

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            bucket_sum([[]], [], TOY_CURVE, 0)

    def test_negating_identity_point_is_noop(self):
        """Regression (found by fuzzing): negating the point at infinity
        must not fabricate the garbage point (0, 0)."""
        from repro.curves.point import AffinePoint

        points = sample_points(TOY_CURVE, 2, seed=12) + [AffinePoint.identity()]
        negate = [True, True, True]
        out = bucket_sum([[0, 1, 2]], points, TOY_CURVE, 2, negate)
        expected = _reference_bucket_sums([[0, 1, 2]], points, negate)
        assert to_affine(out.sums[0], TOY_CURVE) == to_affine(
            expected[0], TOY_CURVE
        )

    def test_empty_bucket_is_identity(self):
        out = bucket_sum([[]], [], TOY_CURVE, 4)
        assert out.sums[0].is_identity


def _forced(affine):
    """Force bucket_sum's kernel: batched affine, or XYZZ per pair."""
    return mock.patch.object(
        bucket_sum_module, "uses_affine_kernel", lambda curve: affine
    )


class TestBucketSumKernels:
    """Batched affine and XYZZ give the same group elements and counters."""

    @pytest.mark.parametrize("name", ["BN254", "BLS12-381"])
    def test_pair_add_edge_cases_in_one_batch(self, name):
        curve = curve_by_name(name)
        p_, q, r = sample_points(curve, 3, seed=21)
        neg_q = AffinePoint(q.x, -q.y % curve.p)
        ident = AffinePoint.identity()
        pairs = [
            (ident, p_),  # identity left
            (q, ident),  # identity right
            (ident, ident),
            (p_, p_),  # doubling
            (q, neg_q),  # inverse pair
            (p_, q),  # ordinary addition ...
            (p_, q),  # ... and the same pair again
            (q, r),
        ]

        def bare(pt):
            return None if pt.infinity else (pt.x, pt.y)

        got = add_affine_pairs(
            [bare(a) for a, _ in pairs], [bare(b) for _, b in pairs], curve.p, curve.a
        )
        for (a, b), s in zip(pairs, got):
            lhs = XyzzPoint.from_affine(a)
            want = to_affine(xyzz_add(lhs, XyzzPoint.from_affine(b), curve), curve)
            assert to_affine(xyzz_acc(lhs, b, curve), curve) == want
            assert (AffinePoint.identity() if s is None else AffinePoint(*s)) == want

    @pytest.mark.parametrize("name", ["BN254", "BLS12-381"])
    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_bucket_sums_match_across_kernels(self, name, n_threads):
        """Rounds and tree levels mixing identities, doublings, inverses."""
        curve = curve_by_name(name)
        p_, q, r, s = sample_points(curve, 4, seed=22)
        ident = AffinePoint.identity()
        points = [p_, p_, p_, p_, q, q, q, r, ident, s, r, ident]
        negate = [False] * 6 + [True] + [False] * 5  # point 6 is -q
        buckets = [
            [0, 1, 2, 3],  # duplicates: doublings in rounds and the tree
            [4, 5, 6, 7],  # q + q, then q + (-q): an inverse pair
            [8, 9, 10, 11],  # identity operands on both sides
            [],
            [3],
            [6, 4],  # -q + q
        ]
        with _forced(False):
            xyzz = bucket_sum(buckets, points, curve, n_threads, negate)
        with _forced(True):
            affine = bucket_sum(buckets, points, curve, n_threads, negate)
        assert xyzz.counters == affine.counters
        assert [to_affine(pt, curve) for pt in xyzz.sums] == [
            to_affine(pt, curve) for pt in affine.sums
        ]
        assert all(pt.zz in (0, 1) and pt.zz == pt.zzz for pt in affine.sums)

    def test_toy_xyzz_kernel_bit_identical_to_serial_deal(self):
        """The XYZZ kernel's batching keeps each lane's operation order."""
        points = sample_points(TOY_CURVE, 24, seed=23)
        buckets = [list(range(0, 11)), list(range(11, 24))]
        out = bucket_sum(buckets, points, TOY_CURVE, 4)
        for members, got in zip(buckets, out.sums):
            lanes = [XyzzPoint.identity()] * min(4, len(members))
            for i, pid in enumerate(members):
                lanes[i % len(lanes)] = xyzz_acc(lanes[i % len(lanes)], points[pid], TOY_CURVE)
            while len(lanes) > 1:
                half = (len(lanes) + 1) // 2
                for i in range(len(lanes) - half):
                    lanes[i] = xyzz_add(lanes[i], lanes[half + i], TOY_CURVE)
                lanes = lanes[:half]
            assert got == lanes[0]


class TestBucketSumCounts:
    def test_analytic_close_to_functional(self):
        import random

        rng = random.Random(9)
        points = sample_points(TOY_CURVE, 64, seed=5)
        num_buckets = 8
        digits = [rng.randrange(num_buckets) for _ in range(64)]
        buckets = [[] for _ in range(num_buckets)]
        for pid, d in enumerate(digits):
            if d:
                buckets[d].append(pid)
        out = bucket_sum(buckets, points, TOY_CURVE, 2)
        analytic = bucket_sum_counts(64, num_buckets, 2)
        assert analytic.pacc == pytest.approx(out.counters.pacc, rel=0.2)
        assert analytic.padd == pytest.approx(out.counters.padd, rel=0.5)

    def test_expected_active_buckets(self):
        assert expected_active_buckets(0, 8) == 0
        assert expected_active_buckets(10_000, 8) == pytest.approx(7, rel=0.01)
        assert expected_active_buckets(5, 1) == 0

    def test_per_thread_pacc_shrinks_with_threads(self):
        few = per_thread_pacc(1 << 20, 2048, 32)
        many = per_thread_pacc(1 << 20, 2048, 128)
        assert many < few

    def test_intra_bucket_overhead_paper_example(self):
        """Paper §3.2.2: N_thread=32, N=2^26, 2^11 buckets -> ~0.49%."""
        overhead = intra_bucket_overhead(1 << 26, 1 << 11, 32)
        assert overhead == pytest.approx(0.0049, rel=0.01)

    def test_intra_bucket_overhead_128_buckets_case(self):
        """1024 threads/bucket over 128 buckets at N=2^28 stays small.

        The paper quotes "a mere 4%" for this configuration; a log-depth
        tree gives 0.5% (their figure appears to count a partially
        serialised reduction) — either way, the overhead is minor.
        """
        overhead = intra_bucket_overhead(1 << 28, 128, 1024)
        assert overhead == pytest.approx((1024 * 128 * 10) / (1 << 28))
        assert overhead < 0.04

    def test_zero_points(self):
        assert intra_bucket_overhead(0, 8, 32) == 0.0


class TestBucketReduce:
    def test_cpu_reduce_matches_weighted_sum(self):
        points = sample_points(TOY_CURVE, 5, seed=7)
        sums = [XyzzPoint.identity()] + [XyzzPoint.from_affine(p) for p in points]
        out = cpu_bucket_reduce(sums, TOY_CURVE)
        # expected: sum(i * B_i) for i = 1..5
        from repro.curves.point import pmul, xyzz_add

        acc = XyzzPoint.identity()
        for i, pt in enumerate(points, start=1):
            acc = xyzz_add(acc, XyzzPoint.from_affine(pmul(pt, i, TOY_CURVE)), TOY_CURVE)
        assert to_affine(out.result, TOY_CURVE) == to_affine(acc, TOY_CURVE)

    @pytest.mark.parametrize("name", ["BN254", "BLS12-381", "MNT4753"])
    def test_cpu_reduce_takes_affine_sums_by_pacc(self, name):
        # bucket_sum's production-curve partials have ZZ = ZZZ = 1: the
        # running sum takes them by PACC, which yields exactly the XYZZ
        # coordinates of the PADD-only fold; counters stay 2 per bucket
        curve = curve_by_name(name)
        pts = [XyzzPoint.from_affine(p) for p in sample_points(curve, 5, seed=13)]
        sums = [pts[0], pts[1], XyzzPoint.identity(), pdbl(pts[2], curve), pts[3], pts[1]]
        running = total = XyzzPoint.identity()
        for b in range(len(sums) - 1, 0, -1):
            running = xyzz_add(running, sums[b], curve)
            total = xyzz_add(total, running, curve)
        with mock.patch.object(point_module, "_pacc", wraps=point_module._pacc) as pacc:
            out = cpu_bucket_reduce(sums, curve)
        assert out.result == total
        assert pacc.call_count == 3  # the affine buckets 1, 4 and 5
        assert out.counters.cpu_padd == 2 * (len(sums) - 1)

    def test_cpu_reduce_padd_count(self):
        sums = [XyzzPoint.identity()] * 9
        out = cpu_bucket_reduce(sums, TOY_CURVE)
        assert out.counters.cpu_padd == 16  # 2 * (9 - 1)
        assert cpu_bucket_reduce_counts(9).cpu_padd == 16

    def test_window_reduce_matches_shift(self):
        points = sample_points(TOY_CURVE, 2, seed=8)
        windows = [XyzzPoint.from_affine(p) for p in points]
        s = 3
        out = cpu_window_reduce(windows, s, TOY_CURVE)
        from repro.curves.point import pmul, xyzz_add

        expected = xyzz_add(
            XyzzPoint.from_affine(points[0]),
            XyzzPoint.from_affine(pmul(points[1], 1 << s, TOY_CURVE)),
            TOY_CURVE,
        )
        assert to_affine(out.result, TOY_CURVE) == to_affine(expected, TOY_CURVE)
        assert out.counters.cpu_pdbl == 2 * s

    def test_gpu_reduce_modes(self):
        scan = gpu_bucket_reduce_counts(1 << 11, 11, 1 << 16, "scan")
        simd = gpu_bucket_reduce_counts(1 << 11, 11, 1 << 16, "simd")
        assert scan.padd < simd.padd + simd.pdbl
        with pytest.raises(ValueError):
            gpu_bucket_reduce_counts(8, 3, 64, "magic")

    def test_simd_per_thread_formula(self):
        """§3.1: 2s * ceil(2^s/N_T) + min(ceil(2^s/N_T) + log2(N_T), s)."""
        import math

        b, s, nt = 1 << 20, 20, 1 << 16
        expected = 2 * s * 16 + min(16 + math.log2(nt), s)
        assert gpu_bucket_reduce_per_thread_ops(b, s, nt) == expected
