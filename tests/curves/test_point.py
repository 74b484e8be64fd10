"""Group-law tests: PADD / PACC / PDBL in XYZZ coordinates."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    affine_neg,
    pdbl,
    pmul,
    to_affine,
    xyzz_acc,
    xyzz_add,
    xyzz_neg,
    xyzz_on_curve,
)

from tests.conftest import TOY_CURVE


def _toy_points():
    """All affine points of the toy curve (excluding infinity)."""
    pts = []
    for x in range(TOY_CURVE.p):
        rhs = (x**3 + TOY_CURVE.a * x + TOY_CURVE.b) % TOY_CURVE.p
        for y in range(TOY_CURVE.p):
            if (y * y) % TOY_CURVE.p == rhs:
                pts.append(AffinePoint(x, y))
    return pts


TOY_POINTS = _toy_points()
point_indices = st.integers(0, len(TOY_POINTS) - 1)


def _as_xyzz_scaled(pt: AffinePoint, z: int) -> XyzzPoint:
    """Re-express an affine point with a non-trivial ZZ/ZZZ denominator."""
    p = TOY_CURVE.p
    zz = (z * z) % p
    zzz = (zz * z) % p
    return XyzzPoint(pt.x * zz % p, pt.y * zzz % p, zz, zzz)


class TestIdentity:
    def test_identity_round_trip(self):
        assert to_affine(XyzzPoint.identity(), TOY_CURVE).infinity

    def test_add_identity_left(self):
        pt = XyzzPoint.from_affine(TOY_POINTS[0])
        assert xyzz_add(XyzzPoint.identity(), pt, TOY_CURVE) == pt

    def test_add_identity_right(self):
        pt = XyzzPoint.from_affine(TOY_POINTS[0])
        assert xyzz_add(pt, XyzzPoint.identity(), TOY_CURVE) == pt

    def test_acc_infinity_point_is_noop(self):
        acc = XyzzPoint.from_affine(TOY_POINTS[0])
        assert xyzz_acc(acc, AffinePoint.identity(), TOY_CURVE) == acc

    def test_acc_into_identity(self):
        pt = TOY_POINTS[3]
        result = to_affine(xyzz_acc(XyzzPoint.identity(), pt, TOY_CURVE), TOY_CURVE)
        assert result == pt

    def test_double_identity(self):
        assert pdbl(XyzzPoint.identity(), TOY_CURVE).is_identity


class TestGroupLaw:
    @given(point_indices, point_indices)
    @settings(max_examples=60, deadline=None)
    def test_add_commutative(self, i, j):
        a = XyzzPoint.from_affine(TOY_POINTS[i])
        b = XyzzPoint.from_affine(TOY_POINTS[j])
        lhs = to_affine(xyzz_add(a, b, TOY_CURVE), TOY_CURVE)
        rhs = to_affine(xyzz_add(b, a, TOY_CURVE), TOY_CURVE)
        assert lhs == rhs

    @given(point_indices, point_indices, point_indices)
    @settings(max_examples=60, deadline=None)
    def test_add_associative(self, i, j, k):
        a = XyzzPoint.from_affine(TOY_POINTS[i])
        b = XyzzPoint.from_affine(TOY_POINTS[j])
        c = XyzzPoint.from_affine(TOY_POINTS[k])
        lhs = to_affine(xyzz_add(xyzz_add(a, b, TOY_CURVE), c, TOY_CURVE), TOY_CURVE)
        rhs = to_affine(xyzz_add(a, xyzz_add(b, c, TOY_CURVE), TOY_CURVE), TOY_CURVE)
        assert lhs == rhs

    @given(point_indices)
    @settings(max_examples=40, deadline=None)
    def test_inverse_sums_to_identity(self, i):
        pt = TOY_POINTS[i]
        a = XyzzPoint.from_affine(pt)
        b = XyzzPoint.from_affine(affine_neg(pt, TOY_CURVE))
        assert xyzz_add(a, b, TOY_CURVE).is_identity

    @given(point_indices)
    @settings(max_examples=40, deadline=None)
    def test_add_equal_points_doubles(self, i):
        pt = XyzzPoint.from_affine(TOY_POINTS[i])
        via_add = to_affine(xyzz_add(pt, pt, TOY_CURVE), TOY_CURVE)
        via_dbl = to_affine(pdbl(pt, TOY_CURVE), TOY_CURVE)
        assert via_add == via_dbl

    @given(point_indices, point_indices)
    @settings(max_examples=60, deadline=None)
    def test_results_stay_on_curve(self, i, j):
        a = XyzzPoint.from_affine(TOY_POINTS[i])
        b = XyzzPoint.from_affine(TOY_POINTS[j])
        result = to_affine(xyzz_add(a, b, TOY_CURVE), TOY_CURVE)
        assert xyzz_on_curve(XyzzPoint.from_affine(result), TOY_CURVE)

    @given(point_indices, st.integers(2, 100))
    @settings(max_examples=40, deadline=None)
    def test_add_handles_projective_denominators(self, i, z):
        """Addition must be independent of the XYZZ representative chosen."""
        pt = TOY_POINTS[i]
        other = XyzzPoint.from_affine(TOY_POINTS[(i + 7) % len(TOY_POINTS)])
        scaled = _as_xyzz_scaled(pt, z % TOY_CURVE.p or 2)
        plain = XyzzPoint.from_affine(pt)
        lhs = to_affine(xyzz_add(scaled, other, TOY_CURVE), TOY_CURVE)
        rhs = to_affine(xyzz_add(plain, other, TOY_CURVE), TOY_CURVE)
        assert lhs == rhs


class TestPacc:
    @given(point_indices, point_indices)
    @settings(max_examples=60, deadline=None)
    def test_acc_matches_general_add(self, i, j):
        acc = XyzzPoint.from_affine(TOY_POINTS[i])
        pt = TOY_POINTS[j]
        via_acc = to_affine(xyzz_acc(acc, pt, TOY_CURVE), TOY_CURVE)
        via_add = to_affine(
            xyzz_add(acc, XyzzPoint.from_affine(pt), TOY_CURVE), TOY_CURVE
        )
        assert via_acc == via_add

    @given(point_indices)
    @settings(max_examples=30, deadline=None)
    def test_acc_same_point_doubles(self, i):
        pt = TOY_POINTS[i]
        via_acc = to_affine(
            xyzz_acc(XyzzPoint.from_affine(pt), pt, TOY_CURVE), TOY_CURVE
        )
        via_dbl = to_affine(pdbl(XyzzPoint.from_affine(pt), TOY_CURVE), TOY_CURVE)
        assert via_acc == via_dbl

    @given(point_indices)
    @settings(max_examples=30, deadline=None)
    def test_acc_inverse_gives_identity(self, i):
        pt = TOY_POINTS[i]
        acc = XyzzPoint.from_affine(affine_neg(pt, TOY_CURVE))
        assert xyzz_acc(acc, pt, TOY_CURVE).is_identity


class TestPdbl:
    def test_order_two_point_doubles_to_identity(self):
        # y == 0 points have order 2; synthesise one if the toy curve has any
        for pt in TOY_POINTS:
            if pt.y == 0:
                assert pdbl(XyzzPoint.from_affine(pt), TOY_CURVE).is_identity
                return
        # No order-2 point on this curve; the guard is covered by pmul tests.

    def test_negation_helpers(self):
        pt = XyzzPoint.from_affine(TOY_POINTS[0])
        assert xyzz_neg(xyzz_neg(pt, TOY_CURVE), TOY_CURVE) == pt
        assert xyzz_neg(XyzzPoint.identity(), TOY_CURVE).is_identity
        assert affine_neg(AffinePoint.identity(), TOY_CURVE).infinity


class TestPmul:
    def test_zero_scalar(self):
        assert pmul(TOY_POINTS[0], 0, TOY_CURVE).infinity

    def test_one_scalar(self):
        assert pmul(TOY_POINTS[5], 1, TOY_CURVE) == TOY_POINTS[5]

    def test_negative_scalar(self):
        pt = TOY_POINTS[5]
        assert pmul(pt, -3, TOY_CURVE) == affine_neg(pmul(pt, 3, TOY_CURVE), TOY_CURVE)

    @given(point_indices, st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_matches_repeated_addition_mod_order(self, i, k):
        pt = TOY_POINTS[i]
        direct = pmul(pt, k, TOY_CURVE)
        reduced = pmul(pt, k % TOY_CURVE.r, TOY_CURVE)
        # scalar multiplication is periodic with the group order
        assert direct == reduced

    def test_order_annihilates(self):
        assert pmul(TOY_POINTS[0], TOY_CURVE.r, TOY_CURVE).infinity

    def test_distributes_over_scalar_addition(self):
        rng = random.Random(3)
        pt = TOY_POINTS[2]
        a, b = rng.randrange(500), rng.randrange(500)
        lhs = pmul(pt, a + b, TOY_CURVE)
        rhs = to_affine(
            xyzz_add(
                XyzzPoint.from_affine(pmul(pt, a, TOY_CURVE)),
                XyzzPoint.from_affine(pmul(pt, b, TOY_CURVE)),
                TOY_CURVE,
            ),
            TOY_CURVE,
        )
        assert lhs == rhs


class TestRealCurves:
    def test_generator_small_multiples_on_curve(self, any_curve):
        generator = AffinePoint(any_curve.gx, any_curve.gy)
        pt = XyzzPoint.from_affine(generator)
        for _ in range(5):
            pt = xyzz_add(pt, XyzzPoint.from_affine(generator), any_curve)
            affine = to_affine(pt, any_curve)
            assert xyzz_on_curve(XyzzPoint.from_affine(affine), any_curve)

    def test_pmul_homomorphism_bn254(self, bn254):
        generator = AffinePoint(bn254.gx, bn254.gy)
        lhs = pmul(pmul(generator, 7, bn254), 11, bn254)
        rhs = pmul(generator, 77, bn254)
        assert lhs == rhs


class TestRepr:
    def test_identity(self):
        assert repr(AffinePoint.identity()) == "AffinePoint(infinity)"

    def test_finite_point_shows_hex_coordinates(self):
        assert repr(AffinePoint(0x1F, 2)) == "AffinePoint(0x1f, 0x2)"
