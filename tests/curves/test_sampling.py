"""Instance sampling and batch affine normalisation."""

from repro.curves.point import XyzzPoint, pdbl, to_affine, xyzz_add, xyzz_on_curve
from repro.curves.sampling import (
    batch_to_affine,
    msm_instance,
    sample_points,
    sample_scalars,
)

from tests.conftest import TOY_CURVE


class TestScalars:
    def test_deterministic(self, bn254):
        assert sample_scalars(bn254, 10, seed=1) == sample_scalars(bn254, 10, seed=1)

    def test_seed_changes_output(self, bn254):
        assert sample_scalars(bn254, 10, seed=1) != sample_scalars(bn254, 10, seed=2)

    def test_range(self, bn254):
        assert all(0 <= k < bn254.r for k in sample_scalars(bn254, 50, seed=0))


class TestPoints:
    def test_empty(self):
        assert sample_points(TOY_CURVE, 0) == []

    def test_points_on_curve(self):
        for pt in sample_points(TOY_CURVE, 20, seed=3):
            assert xyzz_on_curve(XyzzPoint.from_affine(pt), TOY_CURVE)

    def test_points_on_curve_bn254(self, bn254):
        for pt in sample_points(bn254, 8, seed=3):
            assert xyzz_on_curve(XyzzPoint.from_affine(pt), bn254)

    def test_deterministic(self):
        assert sample_points(TOY_CURVE, 5, seed=9) == sample_points(TOY_CURVE, 5, seed=9)

    def test_walk_structure(self):
        """Consecutive sampled points differ by a constant stride."""
        pts = sample_points(TOY_CURVE, 4, seed=1)
        d01 = xyzz_add(
            XyzzPoint.from_affine(pts[1]),
            XyzzPoint(pts[0].x, (-pts[0].y) % TOY_CURVE.p, 1, 1),
            TOY_CURVE,
        )
        d12 = xyzz_add(
            XyzzPoint.from_affine(pts[2]),
            XyzzPoint(pts[1].x, (-pts[1].y) % TOY_CURVE.p, 1, 1),
            TOY_CURVE,
        )
        assert to_affine(d01, TOY_CURVE) == to_affine(d12, TOY_CURVE)


class TestBatchToAffine:
    def test_empty(self):
        assert batch_to_affine([], TOY_CURVE) == []

    def test_identity_preserved(self):
        out = batch_to_affine([XyzzPoint.identity()], TOY_CURVE)
        assert out[0].infinity

    def test_matches_individual_conversion(self):
        pts = sample_points(TOY_CURVE, 6, seed=2)
        xyzz = [XyzzPoint.from_affine(p) for p in pts]
        doubled = [pdbl(p, TOY_CURVE) for p in xyzz]
        batch = batch_to_affine(doubled, TOY_CURVE)
        individual = [to_affine(p, TOY_CURVE) for p in doubled]
        assert batch == individual

    def test_mixed_identity_and_finite(self):
        pts = sample_points(TOY_CURVE, 3, seed=2)
        mixed = [
            XyzzPoint.identity(),
            pdbl(XyzzPoint.from_affine(pts[0]), TOY_CURVE),
            XyzzPoint.identity(),
            pdbl(XyzzPoint.from_affine(pts[1]), TOY_CURVE),
        ]
        out = batch_to_affine(mixed, TOY_CURVE)
        assert out[0].infinity and out[2].infinity
        assert out[1] == to_affine(mixed[1], TOY_CURVE)
        assert out[3] == to_affine(mixed[3], TOY_CURVE)


class TestInstance:
    def test_shapes(self):
        scalars, points = msm_instance(TOY_CURVE, 12, seed=5)
        assert len(scalars) == len(points) == 12
