"""Batched-affine addition: the bare-pair kernel and its shared inversion."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.params import curve_by_name
from repro.curves.point import AffinePoint, XyzzPoint, affine_neg, pdbl, to_affine, xyzz_acc
from repro.curves.sampling import sample_points
from repro.msm.batch_affine import add_affine_pairs, batch_inverse

from tests.conftest import TOY_CURVE


def _bare(pt: AffinePoint):
    return None if pt.infinity else (pt.x, pt.y)


def _add_pairs(pairs, curve=TOY_CURVE):
    sums = add_affine_pairs(
        [_bare(lhs) for lhs, _ in pairs],
        [_bare(rhs) for _, rhs in pairs],
        curve.p,
        curve.a,
    )
    return [AffinePoint.identity() if s is None else AffinePoint(*s) for s in sums]


class TestBatchInverse:
    @given(st.lists(st.integers(0, TOY_CURVE.p - 1), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_inverts_all_nonzero(self, values):
        out = batch_inverse(values, TOY_CURVE.p)
        for v, inv in zip(values, out):
            if v % TOY_CURVE.p == 0:
                assert inv == 0
            else:
                assert v * inv % TOY_CURVE.p == 1

    def test_all_zero(self):
        assert batch_inverse([0, 0], TOY_CURVE.p) == [0, 0]


class TestBatchAdd:
    def test_matches_xyzz(self):
        pts = sample_points(TOY_CURVE, 10, seed=4)
        pairs = [(pts[i], pts[i + 1]) for i in range(0, 10, 2)]
        results = _add_pairs(pairs)
        for (a, b), got in zip(pairs, results):
            expected = to_affine(
                xyzz_acc(XyzzPoint.from_affine(a), b, TOY_CURVE), TOY_CURVE
            )
            assert got == expected

    def test_edge_cases_in_one_batch(self):
        pts = sample_points(TOY_CURVE, 4, seed=5)
        pairs = [
            (AffinePoint.identity(), pts[0]),  # left identity
            (pts[1], AffinePoint.identity()),  # right identity
            (pts[2], pts[2]),  # doubling
            (pts[3], affine_neg(pts[3], TOY_CURVE)),  # inverse pair
            (pts[0], pts[1]),  # ordinary add
        ]
        results = _add_pairs(pairs)
        assert results[0] == pts[0]
        assert results[1] == pts[1]
        assert results[2] == to_affine(
            pdbl(XyzzPoint.from_affine(pts[2]), TOY_CURVE), TOY_CURVE
        )
        assert results[3].infinity
        assert not results[4].infinity


@pytest.mark.parametrize("name", ["BN254", "BLS12-377", "BLS12-381", "MNT4753"])
class TestProductionCurves:
    """``bucket_sum`` runs the kernel on the registered curves' base fields."""

    def test_batch_inverse(self, name):
        p = curve_by_name(name).p
        rng = random.Random(name)
        values = [rng.randrange(1, p) for _ in range(12)] + [0, p]
        out = batch_inverse(values, p)
        assert out[-2:] == [0, 0]
        assert all(v * inv % p == 1 for v, inv in zip(values[:-2], out))

    def test_matches_xyzz(self, name):
        curve = curve_by_name(name)
        pts = sample_points(curve, 8, seed=6)
        pairs = [(pts[i], pts[i + 1]) for i in range(0, 8, 2)]
        for (a, b), got in zip(pairs, _add_pairs(pairs, curve)):
            assert got == to_affine(xyzz_acc(XyzzPoint.from_affine(a), b, curve), curve)

    def test_edge_cases_in_one_batch(self, name):
        curve = curve_by_name(name)
        pts = sample_points(curve, 3, seed=7)
        pairs = [
            (AffinePoint.identity(), pts[0]),
            (pts[1], pts[1]),
            (pts[2], affine_neg(pts[2], curve)),
        ]
        left, doubled, cancelled = _add_pairs(pairs, curve)
        assert left == pts[0]
        assert doubled == to_affine(pdbl(XyzzPoint.from_affine(pts[1]), curve), curve)
        assert cancelled.infinity
