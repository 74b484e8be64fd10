"""2G2T verifiable outsourcing: challenge, response, and batch algebra."""

import math
import random

import pytest

from repro.curves.params import curve_by_name
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    pdbl,
    pmul,
    to_affine,
    xyzz_add,
    xyzz_mul,
    xyzz_neg,
    xyzz_on_curve,
)
from repro.curves.sampling import sample_points
from repro.msm.outsource import (
    RHO_BITS,
    Challenge,
    Session,
    batch_verify,
    chunk_value,
    make_response,
    mask_scalar,
    response_padds,
    rho_coeff,
    sample_challenge,
    soundness_bits,
    verify_chunk,
    verify_padds,
)

from tests.conftest import TOY_CURVE


#: window size of the toy chunks below (8 buckets a slot)
WINDOW = 3


def _partials(seed=3, slots=2, buckets=8):
    """Bucket partials as a worker would deliver: slots x buckets points."""
    points = sample_points(TOY_CURVE, slots * buckets, seed=seed)
    return [
        [XyzzPoint.from_affine(points[s * buckets + b]) for b in range(buckets)]
        for s in range(slots)
    ]


def _value(partials):
    """The value of a chunk whose slots all sit in one window."""
    return chunk_value(partials, [0] * len(partials), WINDOW, TOY_CURVE)


class TestChallenge:
    def test_deterministic_in_seed_and_curve(self):
        assert sample_challenge(TOY_CURVE, 7) == sample_challenge(TOY_CURVE, 7)
        assert sample_challenge(TOY_CURVE, 7) != sample_challenge(TOY_CURVE, 8)

    def test_challenge_is_a_unit_mod_group_order(self):
        # the toy curve's order is composite: soundness on it *requires*
        # gcd(c, r) == 1, or a forgery of small order d | c would pass
        for seed in range(50):
            c = sample_challenge(TOY_CURVE, seed).c
            assert 1 <= c < TOY_CURVE.r
            assert math.gcd(c, TOY_CURVE.r) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Challenge(seed=0, c=0)
        with pytest.raises(ValueError):
            Challenge(seed=0, c=3, rho_bits=0)

    def test_soundness_bits(self):
        assert soundness_bits(TOY_CURVE) == TOY_CURVE.r.bit_length() - 1

    def test_masks_and_rhos_replayable_from_seed(self):
        ch = sample_challenge(TOY_CURVE, 11)
        assert mask_scalar(ch, 0, 1, TOY_CURVE) == mask_scalar(ch, 0, 1, TOY_CURVE)
        assert mask_scalar(ch, 0, 1, TOY_CURVE) != mask_scalar(ch, 1, 1, TOY_CURVE)
        assert 1 <= rho_coeff(ch, 0, 2) < (1 << RHO_BITS)
        assert rho_coeff(ch, 0, 2) == rho_coeff(ch, 0, 2)


class TestChunkValue:
    def test_matches_weighted_bucket_sum(self):
        # V must be sum_{b>=1} b * B_b — the functional the host's
        # bucket-reduce consumes
        partials = _partials()
        expected = XyzzPoint.identity()
        for sums in partials:
            for b in range(1, len(sums)):
                term = pmul(to_affine(sums[b], TOY_CURVE), b, TOY_CURVE)
                expected = xyzz_add(
                    expected, XyzzPoint.from_affine(term), TOY_CURVE
                )
        got = _value(partials)
        assert to_affine(got, TOY_CURVE) == to_affine(expected, TOY_CURVE)

    def test_bucket_zero_has_no_weight(self):
        partials = _partials(slots=1)
        tampered = [list(partials[0])]
        tampered[0][0] = XyzzPoint.identity()
        assert to_affine(_value(partials), TOY_CURVE) == to_affine(
            _value(tampered), TOY_CURVE
        )


class TestResponseCheck:
    def test_honest_response_accepted(self):
        session = Session(sample_challenge(TOY_CURVE, 5), TOY_CURVE)
        value = _value(_partials())
        resp = make_response(session, value, 0, 2)
        assert verify_chunk(session, value, resp, 0, 2)

    def test_response_bound_to_chunk_coordinates(self):
        # the mask differs per (round, gpu): replaying another chunk's
        # honest response must fail
        session = Session(sample_challenge(TOY_CURVE, 5), TOY_CURVE)
        value = _value(_partials())
        resp = make_response(session, value, 0, 2)
        assert not verify_chunk(session, value, resp, 0, 3)
        assert not verify_chunk(session, value, resp, 1, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_forged_value_rejected(self, seed):
        session = Session(sample_challenge(TOY_CURVE, seed), TOY_CURVE)
        honest = _partials(seed=seed + 1)
        value = _value(honest)
        resp = make_response(session, value, 0, 0)
        forged = [list(s) for s in honest]
        forged[0][3] = xyzz_add(forged[0][3], forged[0][4], TOY_CURVE)
        forged_value = _value(forged)
        if to_affine(forged_value, TOY_CURVE) == to_affine(value, TOY_CURVE):
            pytest.skip("corruption happened to preserve the value")
        assert not verify_chunk(session, forged_value, resp, 0, 0)


class TestBatchVerify:
    def _items(self, session, count=4):
        items = []
        for i in range(count):
            value = _value(_partials(seed=20 + i))
            items.append((0, i, value, make_response(session, value, 0, i)))
        return items

    def test_honest_batch_accepted(self):
        session = Session(sample_challenge(TOY_CURVE, 9), TOY_CURVE)
        assert batch_verify(session, self._items(session))

    def test_empty_batch_trivially_accepted(self):
        assert batch_verify(Session(sample_challenge(TOY_CURVE, 9), TOY_CURVE), [])

    def test_one_forged_item_fails_the_whole_batch(self):
        session = Session(sample_challenge(TOY_CURVE, 9), TOY_CURVE)
        items = self._items(session)
        rnd, gpu, value, resp = items[2]
        # shift chunk 2's value by the (full-order) generator: the RLC
        # difference rho_2 * c * G cannot vanish for a 16-bit rho on the
        # toy group, so the batch must fail and the per-chunk fallback
        # must localise exactly the forged item
        from repro.curves.point import AffinePoint

        g = XyzzPoint.from_affine(AffinePoint(TOY_CURVE.gx, TOY_CURVE.gy))
        items[2] = (rnd, gpu, xyzz_add(value, g, TOY_CURVE), resp)
        assert not batch_verify(session, items)
        verdicts = [verify_chunk(session, v, r, rd, gp) for rd, gp, v, r in items]
        assert verdicts == [True, True, False, True]


@pytest.fixture(scope="module", params=["BN254", "BLS12-381", "MNT4753", "toy"])
def curve(request):
    """The production curves (MNT4753 has ``a != 0``) and the
    composite-order toy curve."""
    return TOY_CURVE if request.param == "toy" else curve_by_name(request.param)


def _projective(pt, curve, z):
    """``pt`` in XYZZ form with ``ZZ = z^2``, ``ZZZ = z^3`` (not affine)."""
    p = curve.p
    return XyzzPoint(pt.x * z * z % p, pt.y * z * z * z % p, z * z % p, z * z * z % p)


class TestArithmetic:
    """The fixed-base mask, the wNAF multiplication and the weighted fold
    against textbook double-and-add, on every curve family."""

    def test_wnaf_multiply_matches_pmul(self, curve):
        pt = sample_points(curve, 1, seed=61)[0]
        rng = random.Random(61)
        scalars = [1, 2, curve.r - 1, rng.randrange(1, curve.r), rng.randrange(1, 1 << 16)]
        for k in scalars:
            for base in (XyzzPoint.from_affine(pt), _projective(pt, curve, 7)):
                assert to_affine(xyzz_mul(base, k, curve), curve) == pmul(pt, k, curve)
        assert xyzz_mul(XyzzPoint.identity(), scalars[3], curve).is_identity
        assert xyzz_mul(XyzzPoint.from_affine(pt), 0, curve).is_identity

    def test_fixed_base_mask_matches_pmul(self, curve):
        session = Session(sample_challenge(curve, 3), curve)
        g = AffinePoint(curve.gx, curve.gy)
        for rnd, gpu in ((0, 0), (0, 5), (2, 1)):
            h = mask_scalar(session.challenge, rnd, gpu, curve)
            assert to_affine(session.mask(rnd, gpu), curve) == pmul(g, h, curve)
        # each mask is derived once per session
        assert session.mask(0, 5) is session.mask(0, 5)

    def test_weighted_fold_matches_per_bucket_oracle(self, curve):
        # slots in windows 6, 2, 2 and 3: non-contiguous and repeated, as
        # recovery rounds mix them; identity buckets; affine and XYZZ
        window_size, buckets = 3, 8
        windows = [6, 2, 2, 3]
        points = sample_points(curve, len(windows) * buckets, seed=67)
        partials = []
        for si in range(len(windows)):
            sums = []
            for b in range(buckets):
                pt = points[si * buckets + b]
                if (si + b) % 4 == 0:
                    sums.append(XyzzPoint.identity())
                elif b % 2:
                    sums.append(_projective(pt, curve, 3 + b))
                else:
                    sums.append(XyzzPoint.from_affine(pt))
            partials.append(sums)
        expected = XyzzPoint.identity()
        for w, sums in zip(windows, partials):
            for b, pt in enumerate(sums):
                if b and not pt.is_identity:
                    k = b << (window_size * (w - min(windows)))
                    term = pmul(to_affine(pt, curve), k, curve)
                    expected = xyzz_add(expected, XyzzPoint.from_affine(term), curve)
        got = chunk_value(partials, windows, window_size, curve)
        assert to_affine(got, curve) == to_affine(expected, curve)

    def test_window_weights_catch_a_cross_window_shift(self, curve):
        # moving G from bucket 1 of window 0 to bucket 1 of window 1 keeps
        # the unweighted sum but not the chunk's share of the point
        session = Session(sample_challenge(curve, 4), curve)
        g = XyzzPoint.from_affine(AffinePoint(curve.gx, curve.gy))
        points = sample_points(curve, 8, seed=71)
        honest = [[XyzzPoint.from_affine(pt) for pt in points[i * 4:(i + 1) * 4]] for i in range(2)]
        forged = [list(sums) for sums in honest]
        forged[0][1] = xyzz_add(forged[0][1], g, curve)
        forged[1][1] = xyzz_add(forged[1][1], xyzz_neg(g, curve), curve)
        same_window = [0, 0]
        assert to_affine(chunk_value(forged, same_window, 2, curve), curve) == to_affine(
            chunk_value(honest, same_window, 2, curve), curve
        )
        value = chunk_value(honest, [1, 0], 2, curve)
        response = make_response(session, value, 0, 1)
        assert verify_chunk(session, value, response, 0, 1)
        assert not verify_chunk(session, chunk_value(forged, [1, 0], 2, curve), response, 0, 1)


class TestOnCurveCheck:
    def test_points_in_both_forms(self, curve):
        pt = sample_points(curve, 1, seed=73)[0]
        on = [XyzzPoint.identity(), XyzzPoint.from_affine(pt), _projective(pt, curve, 5)]
        assert all(xyzz_on_curve(q, curve) for q in on)
        doubled = pdbl(XyzzPoint.from_affine(pt), curve)
        off = [
            XyzzPoint(pt.x, (pt.y + 1) % curve.p, 1, 1),
            XyzzPoint(doubled.x, doubled.y, doubled.zz, (doubled.zzz + 1) % curve.p),
            XyzzPoint(doubled.x ^ 1, doubled.y, doubled.zz, doubled.zzz),
            XyzzPoint(pt.x, pt.y, curve.p, curve.p),
        ]
        assert not any(xyzz_on_curve(q, curve) for q in off)

    def test_off_curve_bucket_zero_is_rejected(self, curve):
        # bucket 0 has weight zero, so only the on-curve check sees it
        session = Session(sample_challenge(curve, 5), curve)
        points = sample_points(curve, 4, seed=79)
        honest = [[XyzzPoint.from_affine(pt) for pt in points]]
        value = chunk_value(honest, [0], 2, curve)
        response = make_response(session, value, 0, 0)
        forged = [list(honest[0])]
        forged[0][0] = XyzzPoint(points[0].x, (points[0].y + 1) % curve.p, 1, 1)
        assert chunk_value(forged, [0], 2, curve) is None
        assert not verify_chunk(session, None, response, 0, 0)
        assert not batch_verify(session, [(0, 0, None, response)])
        assert batch_verify(session, [(0, 0, value, response)])

    def test_malformed_response_is_rejected(self, curve):
        # the response is worker input too: ZZZ = 0 with ZZ != 0 has no
        # affine form, and must be a rejection rather than an exception
        session = Session(sample_challenge(curve, 6), curve)
        points = sample_points(curve, 4, seed=83)
        value = chunk_value([[XyzzPoint.from_affine(pt) for pt in points]], [0], 2, curve)
        malformed = XyzzPoint(1, 1, 1, 0)
        assert not verify_chunk(session, value, malformed, 0, 0)
        assert not batch_verify(session, [(0, 0, value, malformed)])


class TestCostModel:
    def test_response_cost_scales_with_scalar_bits(self):
        assert response_padds(256) > response_padds(10) > 0

    def test_batched_check_cheaper_than_individual(self):
        batched = verify_padds(64, 256, batched=True)
        single = verify_padds(64, 256, batched=False)
        assert batched < single
        # the bucket fold is charged either way
        assert batched > 2 * 64
