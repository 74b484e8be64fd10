"""MSM algorithm tests: naive reference, Pippenger, precomputation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.point import AffinePoint, pmul
from repro.curves.sampling import msm_instance, sample_points
from repro.curves.scalar import num_windows
from repro.msm.naive import naive_msm
from repro.msm.pippenger import PippengerStats, default_window_size, pippenger_msm
from repro.msm.precompute import msm_with_precompute, precompute_tables

from tests.conftest import TOY_CURVE


class TestNaive:
    def test_empty(self):
        assert naive_msm([], [], TOY_CURVE).infinity

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            naive_msm([1], [], TOY_CURVE)

    def test_negative_scalar_rejected(self):
        pts = sample_points(TOY_CURVE, 1, seed=0)
        with pytest.raises(ValueError):
            naive_msm([-1], pts, TOY_CURVE)

    def test_single_term_matches_pmul(self):
        pts = sample_points(TOY_CURVE, 1, seed=0)
        assert naive_msm([29], pts, TOY_CURVE) == pmul(pts[0], 29, TOY_CURVE)

    def test_two_terms(self):
        pts = sample_points(TOY_CURVE, 2, seed=1)
        expected = pmul(pts[0], 3, TOY_CURVE)
        expected2 = pmul(pts[1], 5, TOY_CURVE)
        from repro.curves.point import XyzzPoint, to_affine, xyzz_add

        combined = to_affine(
            xyzz_add(
                XyzzPoint.from_affine(expected),
                XyzzPoint.from_affine(expected2),
                TOY_CURVE,
            ),
            TOY_CURVE,
        )
        assert naive_msm([3, 5], pts, TOY_CURVE) == combined

    def test_zero_scalars_give_identity(self):
        pts = sample_points(TOY_CURVE, 4, seed=2)
        assert naive_msm([0, 0, 0, 0], pts, TOY_CURVE).infinity


class TestPippenger:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("window_size", [1, 2, 3, 5, 8])
    def test_matches_naive_toy(self, window_size, signed):
        scalars, points = msm_instance(TOY_CURVE, 40, seed=7)
        expected = naive_msm(scalars, points, TOY_CURVE)
        got = pippenger_msm(
            scalars, points, TOY_CURVE, window_size=window_size, signed=signed
        )
        assert got == expected

    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_naive_bn254(self, bn254, signed):
        scalars, points = msm_instance(bn254, 16, seed=11)
        expected = naive_msm(scalars, points, bn254)
        got = pippenger_msm(scalars, points, bn254, window_size=8, signed=signed)
        assert got == expected

    def test_matches_naive_every_curve(self, any_curve):
        scalars, points = msm_instance(any_curve, 6, seed=13)
        expected = naive_msm(scalars, points, any_curve)
        assert pippenger_msm(scalars, points, any_curve, window_size=6) == expected

    def test_empty(self):
        assert pippenger_msm([], [], TOY_CURVE).infinity

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pippenger_msm([1, 2], sample_points(TOY_CURVE, 1), TOY_CURVE)

    def test_invalid_window(self):
        scalars, points = msm_instance(TOY_CURVE, 4, seed=1)
        with pytest.raises(ValueError):
            pippenger_msm(scalars, points, TOY_CURVE, window_size=0)

    def test_duplicate_points(self):
        """Duplicate base points land in the same bucket, forcing PACC's
        doubling edge case."""
        pts = sample_points(TOY_CURVE, 1, seed=3) * 6
        scalars = [5] * 6
        expected = naive_msm(scalars, pts, TOY_CURVE)
        assert pippenger_msm(scalars, pts, TOY_CURVE, window_size=3) == expected

    def test_stats_populated(self):
        scalars, points = msm_instance(TOY_CURVE, 30, seed=5)
        stats = PippengerStats()
        pippenger_msm(scalars, points, TOY_CURVE, window_size=3, stats=stats)
        assert stats.pacc > 0
        assert stats.padd > 0
        assert stats.pdbl > 0
        assert stats.window_size == 3

    def test_pacc_count_bounded_by_nonzero_digits(self):
        """Each non-zero digit causes exactly one PACC."""
        scalars, points = msm_instance(TOY_CURVE, 25, seed=6)
        s = 3
        n_win = num_windows(TOY_CURVE.scalar_bits, s)
        from repro.curves.scalar import unsigned_windows

        nonzero = sum(
            1 for k in scalars for d in unsigned_windows(k, s, n_win) if d != 0
        )
        stats = PippengerStats()
        pippenger_msm(scalars, points, TOY_CURVE, window_size=s, stats=stats)
        assert stats.pacc == nonzero

    @given(st.integers(0, 2**32))
    @settings(max_examples=20, deadline=None)
    def test_property_single_scalar(self, k):
        k %= TOY_CURVE.r  # scalars must fit the curve's λ-bit windows
        pts = sample_points(TOY_CURVE, 1, seed=9)
        assert pippenger_msm([k], pts, TOY_CURVE, window_size=4) == pmul(
            pts[0], k, TOY_CURVE
        )

    def test_scalar_exceeding_lambda_rejected(self):
        pts = sample_points(TOY_CURVE, 1, seed=9)
        with pytest.raises(ValueError):
            pippenger_msm([1 << 12], pts, TOY_CURVE, window_size=4)

    def test_default_window_size_heuristic(self):
        assert default_window_size(1 << 20) == 18
        assert default_window_size(8) == 1
        assert default_window_size(0) == 1


class TestPrecompute:
    def test_matches_naive(self):
        scalars, points = msm_instance(TOY_CURVE, 20, seed=21)
        s = 3
        n_win = num_windows(TOY_CURVE.scalar_bits, s) + 1
        tables = precompute_tables(points, TOY_CURVE, s, n_win)
        expected = naive_msm(scalars, points, TOY_CURVE)
        for signed in (False, True):
            got = msm_with_precompute(
                scalars, tables, TOY_CURVE, s, signed=signed
            )
            assert got == expected

    def test_tables_shape(self):
        points = sample_points(TOY_CURVE, 4, seed=2)
        tables = precompute_tables(points, TOY_CURVE, 3, 4)
        assert len(tables) == 4
        assert all(len(t) == 4 for t in tables)

    def test_tables_content(self):
        points = sample_points(TOY_CURVE, 2, seed=2)
        tables = precompute_tables(points, TOY_CURVE, 3, 3)
        for j, table in enumerate(tables):
            for i, pt in enumerate(table):
                assert pt == pmul(points[i], 1 << (3 * j), TOY_CURVE)

    def test_insufficient_tables_rejected(self):
        scalars, points = msm_instance(TOY_CURVE, 4, seed=2)
        tables = precompute_tables(points, TOY_CURVE, 3, 1)
        with pytest.raises(ValueError):
            msm_with_precompute(scalars, tables, TOY_CURVE, 3)

    def test_empty(self):
        assert msm_with_precompute([], [], TOY_CURVE, 3).infinity

    def test_stats_single_window(self):
        scalars, points = msm_instance(TOY_CURVE, 10, seed=4)
        s = 3
        n_win = num_windows(TOY_CURVE.scalar_bits, s)
        tables = precompute_tables(points, TOY_CURVE, s, n_win)
        stats = PippengerStats()
        msm_with_precompute(scalars, tables, TOY_CURVE, s, stats=stats)
        assert stats.windows == 1
        assert stats.pdbl == 0  # no window-reduce doublings with precompute
