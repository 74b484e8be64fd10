"""Differential: batch XYZZ group law vs the scalar reference, lane for lane.

:class:`repro.curves.batch.BatchCurve` must reproduce ``xyzz_add`` /
``xyzz_acc`` / ``pdbl`` *exactly* — same canonical XYZZ coordinates, not
just the same affine point — on every lane, including the degenerate ones
(identity operands, doubling, cancellation) that bucket columns on small
curves hit routinely.  The batch lanes only take base fields below 2^32,
so the differential runs on the toy curve and wider curves are rejected.
An exhaustive pool×pool sweep covers the special cases deterministically
on every curve — checking the scalar formulas against the affine group
law, and the batch lanes against the scalar formulas where the curve takes
the batch path — and Hypothesis shuffles random toy lane mixes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import uses_batch_path
from repro.curves.batch import batch_curve
from repro.curves.params import curve_by_name
from repro.curves.point import (
    AffinePoint,
    XyzzPoint,
    affine_neg,
    pdbl,
    to_affine,
    xyzz_acc,
    xyzz_add,
    xyzz_neg,
)
from repro.curves.sampling import sample_points
from tests.conftest import TOY_CURVE


def _xyzz_pool(curve, n_base: int = 4) -> list[XyzzPoint]:
    """Identity + affine-lifted + non-trivial-ZZ + negated lanes."""
    base = [XyzzPoint.from_affine(p) for p in sample_points(curve, n_base, seed=7)]
    mixed = [xyzz_add(a, b, curve) for a, b in zip(base, base[1:])]
    return (
        [XyzzPoint.identity()]
        + base
        + mixed
        + [xyzz_neg(q, curve) for q in base[:2] + mixed[:1]]
    )


def _affine_pool(curve, n_base: int = 4) -> list[AffinePoint]:
    pts = sample_points(curve, n_base, seed=11)
    return (
        [AffinePoint.identity()]
        + pts
        + [AffinePoint(p.x, (-p.y) % curve.p) for p in pts[:2]]
    )


def _affine_add(a: AffinePoint, b: AffinePoint, curve) -> AffinePoint:
    """Textbook chord-and-tangent addition: the oracle for the XYZZ formulas."""
    p = curve.p
    if a.infinity:
        return b
    if b.infinity:
        return a
    if a.x == b.x and (a.y + b.y) % p == 0:
        return AffinePoint.identity()
    if a.x == b.x:
        lam = (3 * a.x * a.x + curve.a) * pow(2 * a.y, -1, p) % p
    else:
        lam = (b.y - a.y) * pow(b.x - a.x, -1, p) % p
    x3 = (lam * lam - a.x - b.x) % p
    return AffinePoint(x3, (lam * (a.x - x3) - a.y) % p)


@pytest.fixture(scope="module", params=["toy", "BN254", "BLS12-377", "BLS12-381", "MNT4753"])
def sweep_curve(request):
    return TOY_CURVE if request.param == "toy" else curve_by_name(request.param)


class TestExhaustivePairs:
    """Every (lane1, lane2) pool combination per op, on every curve.

    The scalar XYZZ formulas — what the MSM runs on curves too wide for the
    batch lanes — must agree with the affine group law on every lane.  Where
    the batch path takes the curve (the toy curve), one batch call per op
    must reproduce the scalar XYZZ coordinates exactly.
    """

    def test_add_all_pairs(self, sweep_curve):
        c = sweep_curve
        pool = _xyzz_pool(c)
        p1 = [a for a in pool for _ in pool]
        p2 = [b for _ in pool for b in pool]
        want = [xyzz_add(a, b, c) for a, b in zip(p1, p2)]
        assert [to_affine(w, c) for w in want] == [
            _affine_add(to_affine(a, c), to_affine(b, c), c) for a, b in zip(p1, p2)
        ]
        if uses_batch_path(c):
            bc = batch_curve(c)
            assert bc.decode(bc.add(bc.encode_xyzz(p1), bc.encode_xyzz(p2))) == want

    def test_acc_all_pairs(self, sweep_curve):
        c = sweep_curve
        accs = _xyzz_pool(c)
        pts = _affine_pool(c)
        a_lanes = [a for a in accs for _ in pts]
        p_lanes = [p for _ in accs for p in pts]
        want = [xyzz_acc(a, p, c) for a, p in zip(a_lanes, p_lanes)]
        assert [to_affine(w, c) for w in want] == [
            _affine_add(to_affine(a, c), p, c) for a, p in zip(a_lanes, p_lanes)
        ]
        if uses_batch_path(c):
            bc = batch_curve(c)
            got = bc.decode(bc.acc(bc.encode_xyzz(a_lanes), bc.encode_affine(p_lanes)))
            assert got == want

    def test_acc_cancellation_pairs(self, sweep_curve):
        """acc(P, -P) must cancel to the identity on every lane."""
        c = sweep_curve
        pts = sample_points(c, 4, seed=3)
        accs = [XyzzPoint.from_affine(p) for p in pts]
        negs = [AffinePoint(p.x, (-p.y) % c.p) for p in pts]
        want = [XyzzPoint.identity()] * len(pts)
        assert [xyzz_acc(a, n, c) for a, n in zip(accs, negs)] == want
        if uses_batch_path(c):
            bc = batch_curve(c)
            assert bc.decode(bc.acc(bc.encode_xyzz(accs), bc.encode_affine(negs))) == want

    def test_pdbl_all_lanes(self, sweep_curve):
        c = sweep_curve
        pool = _xyzz_pool(c)
        want = [pdbl(a, c) for a in pool]
        assert [to_affine(w, c) for w in want] == [
            _affine_add(to_affine(a, c), to_affine(a, c), c) for a in pool
        ]
        if uses_batch_path(c):
            bc = batch_curve(c)
            assert bc.decode(bc.pdbl(bc.encode_xyzz(pool))) == want

    def test_from_affine_and_neg_affine(self, sweep_curve):
        c = sweep_curve
        pts = _affine_pool(c)
        lifted = [XyzzPoint.from_affine(p) for p in pts]
        assert [to_affine(q, c) for q in lifted] == pts
        mask = [i % 2 == 0 for i in range(len(pts))]
        want = [affine_neg(p, c) if m else p for m, p in zip(mask, pts)]
        assert all(w.x == p.x and w.infinity == p.infinity for w, p in zip(want, pts))
        assert all(_affine_add(w, p, c).infinity for w, p, m in zip(want, pts, mask) if m)
        if uses_batch_path(c):
            bc = batch_curve(c)
            assert bc.decode(bc.from_affine(bc.encode_affine(pts))) == lifted
            neg = bc.neg_affine(bc.encode_affine(pts), np.asarray(mask))
            xs = bc.field.decode(neg.x)
            ys = bc.field.decode(neg.y)
            for i, w in enumerate(want):
                assert xs[i] == w.x
                assert ys[i] == w.y
                assert bool(neg.infinity[i]) == w.infinity


_TOY_POOL = _xyzz_pool(TOY_CURVE, n_base=6)
_TOY_AFFINE = _affine_pool(TOY_CURVE, n_base=6)

lane_idx = st.lists(
    st.integers(min_value=0, max_value=len(_TOY_POOL) - 1), min_size=1, max_size=32
)
aff_idx = st.lists(
    st.integers(min_value=0, max_value=len(_TOY_AFFINE) - 1), min_size=1, max_size=32
)


class TestHypothesisLanes:
    @given(i1=lane_idx, i2=lane_idx)
    @settings(max_examples=40, deadline=None)
    def test_add_random_lanes(self, i1, i2):
        n = min(len(i1), len(i2))
        p1 = [_TOY_POOL[i] for i in i1[:n]]
        p2 = [_TOY_POOL[i] for i in i2[:n]]
        bc = batch_curve(TOY_CURVE)
        got = bc.decode(bc.add(bc.encode_xyzz(p1), bc.encode_xyzz(p2)))
        assert got == [xyzz_add(a, b, TOY_CURVE) for a, b in zip(p1, p2)]

    @given(ia=lane_idx, ip=aff_idx)
    @settings(max_examples=40, deadline=None)
    def test_acc_random_lanes(self, ia, ip):
        n = min(len(ia), len(ip))
        accs = [_TOY_POOL[i] for i in ia[:n]]
        pts = [_TOY_AFFINE[i] for i in ip[:n]]
        bc = batch_curve(TOY_CURVE)
        got = bc.decode(bc.acc(bc.encode_xyzz(accs), bc.encode_affine(pts)))
        assert got == [xyzz_acc(a, p, TOY_CURVE) for a, p in zip(accs, pts)]

    @given(i1=lane_idx)
    @settings(max_examples=40, deadline=None)
    def test_pdbl_random_lanes(self, i1):
        pts = [_TOY_POOL[i] for i in i1]
        bc = batch_curve(TOY_CURVE)
        got = bc.decode(bc.pdbl(bc.encode_xyzz(pts)))
        assert got == [pdbl(a, TOY_CURVE) for a in pts]


def test_take_put_round_trip():
    bc = batch_curve(TOY_CURVE)
    lanes = bc.encode_xyzz(_TOY_POOL)
    idx = np.asarray([0, 2, 4])
    sub = lanes.take(idx)
    assert bc.decode(sub) == [_TOY_POOL[i] for i in idx]
    lanes.put(idx, sub)
    assert bc.decode(lanes) == list(_TOY_POOL)


def test_batch_curve_is_cached():
    assert batch_curve(TOY_CURVE) is batch_curve(TOY_CURVE)


@pytest.mark.parametrize(
    "curve",
    [
        dataclasses.replace(TOY_CURVE, name="WIDE-TOY", p=(1 << 32) + 15),
        curve_by_name("BN254"),
    ],
    ids=["prime32-next", "BN254"],
)
def test_batch_curve_rejects_wide_fields(curve):
    with pytest.raises(ValueError, match="below 2\\^32"):
        batch_curve(curve)
