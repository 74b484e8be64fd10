"""Differential: batch field arithmetic vs plain integer arithmetic, lane for lane.

Every :class:`~repro.fields.batch.BatchPrimeField` operation must agree
elementwise with the same operation on Python ints mod ``p``.  The lanes
are single-limb ``uint64`` residues, so the moduli run from the toy curve's
field up to the largest 32-bit prime, where lane products come closest to
overflowing ``uint64``.  Hypothesis drives the lane values.  Moduli of
``2^32`` and above are rejected.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.curves.params import curve_by_name
from repro.fields.batch import BatchPrimeField
from tests.conftest import TOY_CURVE

#: the toy curve's field, a Mersenne prime, and the largest 32-bit prime
MODULI = {
    "toy": TOY_CURVE.p,
    "mersenne31": (1 << 31) - 1,
    "prime32-max": (1 << 32) - 5,
}

lane_lists = st.lists(st.integers(min_value=0, max_value=1 << 512), min_size=1, max_size=8)


@pytest.fixture(scope="module", params=sorted(MODULI))
def f(request):
    return BatchPrimeField(MODULI[request.param])


class TestBatchMatchesScalar:
    @given(a=lane_lists, b=lane_lists)
    @settings(max_examples=20, deadline=None)
    def test_add_sub_mul(self, f, a, b):
        p = f.modulus
        n = min(len(a), len(b))
        a, b = [v % p for v in a[:n]], [v % p for v in b[:n]]
        ea, eb = f.encode(a), f.encode(b)
        assert f.decode(f.add(ea, eb)) == [(x + y) % p for x, y in zip(a, b)]
        assert f.decode(f.sub(ea, eb)) == [(x - y) % p for x, y in zip(a, b)]
        assert f.decode(f.mul(ea, eb)) == [(x * y) % p for x, y in zip(a, b)]

    @given(a=lane_lists)
    @settings(max_examples=20, deadline=None)
    def test_unary_ops(self, f, a):
        p = f.modulus
        a = [v % p for v in a]
        ea = f.encode(a)
        assert f.decode(f.neg(ea)) == [(-x) % p for x in a]
        assert f.decode(f.double(ea)) == [2 * x % p for x in a]
        assert f.decode(f.triple(ea)) == [3 * x % p for x in a]
        assert f.is_zero(ea).tolist() == [x == 0 for x in a]

    @given(a=lane_lists, b=lane_lists, data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_select(self, f, a, b, data):
        p = f.modulus
        n = min(len(a), len(b))
        a, b = [v % p for v in a[:n]], [v % p for v in b[:n]]
        mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        picked = f.decode(f.select(np.asarray(mask), f.encode(a), f.encode(b)))
        assert picked == [x if m else y for m, x, y in zip(mask, a, b)]


_OPS = {
    "add": lambda x, y, p: (x + y) % p,
    "sub": lambda x, y, p: (x - y) % p,
    "mul": lambda x, y, p: x * y % p,
}


@pytest.mark.parametrize("modulus", [TOY_CURVE.p, (1 << 32) - 5], ids=["toy", "prime32-max"])
class TestWrapEdges:
    """Each reduction's one wrap, broadcast operands and untouched inputs.

    ``add`` and ``sub`` fold their wrap with ``min(t, t -/+ p)`` on a
    ``uint64`` that has wrapped past every residue, and ``mul`` reduces the
    product in its own buffer, so these lanes sit at the edges.
    """

    def _lanes(self, p):
        return [0, 1, 2, p // 2, p // 2 + 1, p - 2, p - 1]

    def test_edges_against_python_ints(self, modulus):
        f = BatchPrimeField(modulus)
        p = modulus
        # every pair, so sub meets a < b and add meets a + b >= p
        a = [x for x in self._lanes(p) for _ in self._lanes(p)]
        b = [y for _ in self._lanes(p) for y in self._lanes(p)]
        assert any(x < y for x, y in zip(a, b))
        assert any(x + y >= p for x, y in zip(a, b))
        assert (p - 1, p - 1) in zip(a, b)
        for name, ref in _OPS.items():
            got = f.decode(getattr(f, name)(f.encode(a), f.encode(b)))
            assert got == [ref(x, y, p) for x, y in zip(a, b)], name
        assert f.decode(f.neg(f.encode(a))) == [(-x) % p for x in a]

    @pytest.mark.parametrize("name", sorted(_OPS))
    def test_broadcast_constant_either_side(self, modulus, name):
        f = BatchPrimeField(modulus)
        p = modulus
        lanes = self._lanes(p)
        op = getattr(f, name)
        for c in (0, 1, p - 1):
            const = f.constant(c)
            assert const.shape == (1,)
            assert f.decode(op(const, f.encode(lanes))) == [
                _OPS[name](c, x, p) for x in lanes
            ]
            assert f.decode(op(f.encode(lanes), const)) == [
                _OPS[name](x, c, p) for x in lanes
            ]

    def test_inputs_untouched(self, modulus):
        f = BatchPrimeField(modulus)
        lanes = self._lanes(modulus)
        a, b = f.encode(lanes), f.encode(lanes[::-1])
        const = f.constant(modulus - 1)
        saved = (a.copy(), b.copy(), const.copy())
        for name in ("add", "sub", "mul"):
            op = getattr(f, name)
            op(a, b)
            op(const, a)
            op(b, const)
        for name in ("neg", "double", "triple"):
            getattr(f, name)(a)
            getattr(f, name)(const)
        f.select(f.is_zero(a), a, b)
        for before, after in zip(saved, (a, b, const)):
            assert np.array_equal(before, after)


class TestEncodeDecodeRoundTrip:
    @given(a=lane_lists)
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, f, a):
        p = f.modulus
        a = [v % p for v in a]
        assert f.decode(f.encode(a)) == a

    def test_non_canonical_inputs_reduce(self, f):
        """Unreduced/negative ints keep mod-p semantics."""
        p = f.modulus
        values = [-1, -p, p, p + 7, 2 * p + 5, (1 << 520) + 3]
        # the encode fast path falls back to per-element reduction for
        # anything uint64 conversion rejects
        assert f.decode(f.encode(values)) == [v % p for v in values]
        for v in values:
            assert f.decode(f.constant(v)) == [v % p]


class TestRejectsWideModuli:
    @pytest.mark.parametrize(
        "modulus",
        [(1 << 32) + 15, curve_by_name("BN254").p],
        ids=["prime32-next", "BN254"],
    )
    def test_rejected(self, modulus):
        with pytest.raises(ValueError, match="below 2\\^32"):
            BatchPrimeField(modulus)

    @given(modulus=st.integers(min_value=1 << 32, max_value=1 << 800))
    @settings(max_examples=30, deadline=None)
    def test_every_modulus_from_2_32_rejected(self, modulus):
        with pytest.raises(ValueError):
            BatchPrimeField(modulus)
