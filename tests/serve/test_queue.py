"""Request model, bounded queue, and the seeded arrival generators."""

import pytest

from repro.curves.params import curve_by_name
from repro.serve import (
    MsmPayload,
    ProofRequest,
    RequestQueue,
    bursty_trace,
    poisson_trace,
)

BLS = curve_by_name("BLS12-381")


def _req(rid, at=0.0, **kw):
    return ProofRequest(rid, BLS, kw.pop("n", 1 << 12), arrival_ms=at, **kw)


class TestProofRequest:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be positive"):
            _req(0, n=0)
        with pytest.raises(ValueError, match="negative arrival"):
            _req(0, at=-1.0)
        with pytest.raises(ValueError, match="deadline"):
            _req(0, at=5.0, deadline_ms=4.0)

    @pytest.mark.parametrize(
        "at,deadline,match",
        [
            (float("nan"), None, "arrival must be finite"),
            (float("inf"), None, "arrival must be finite"),
            (0.0, float("nan"), "deadline must be finite"),
            (0.0, float("inf"), "deadline must be finite"),
        ],
    )
    def test_non_finite_times_rejected(self, at, deadline, match):
        # a NaN deadline would compare False against every completion and
        # silently read as zero SLO violations
        with pytest.raises(ValueError, match=rf"request 7: {match}"):
            _req(7, at=at, deadline_ms=deadline)

    def test_payload_length_must_match_n(self):
        from repro.curves.sampling import msm_instance
        from repro.curves.toy import toy_curve

        toy = toy_curve()
        scalars, points = msm_instance(toy, 8, seed=1)
        payload = MsmPayload(tuple(scalars), tuple(points))
        ProofRequest(0, toy, 8, arrival_ms=0.0, payload=payload)
        with pytest.raises(ValueError, match="payload has"):
            ProofRequest(1, toy, 16, arrival_ms=0.0, payload=payload)

    def test_urgency_orders_deadline_then_fifo(self):
        tight = _req(1, at=2.0, deadline_ms=5.0)
        loose = _req(2, at=2.0, deadline_ms=9.0)
        early = _req(3, at=1.0)
        late = _req(4, at=2.0)
        assert sorted(
            [late, loose, early, tight], key=lambda r: r.urgency
        ) == [tight, loose, early, late]

    def test_urgency_breaks_full_ties_by_request_id(self):
        first = _req(3, at=1.0, deadline_ms=4.0)
        second = _req(7, at=1.0, deadline_ms=4.0)
        assert sorted([second, first], key=lambda r: r.urgency) == [first, second]


class TestRequestQueue:
    def test_bounded_push(self):
        q = RequestQueue(2)
        q.push(_req(0))
        q.push(_req(1))
        assert q.full
        with pytest.raises(OverflowError, match="admission must shed"):
            q.push(_req(2))

    def test_pop_batch_in_urgency_order(self):
        q = RequestQueue(8)
        for r in (_req(0, at=3.0), _req(1, at=1.0), _req(2, at=2.0)):
            q.push(r)
        batch = q.pop_batch(2)
        assert [r.req_id for r in batch] == [1, 2]
        assert len(q) == 1
        assert q.oldest_arrival_ms() == 3.0


class TestTraces:
    def test_poisson_trace_deterministic_and_sorted(self):
        a = poisson_trace(BLS, 32, rate_rps=200.0, seed=9)
        b = poisson_trace(BLS, 32, rate_rps=200.0, seed=9)
        assert [r.arrival_ms for r in a] == [r.arrival_ms for r in b]
        assert all(x.arrival_ms <= y.arrival_ms for x, y in zip(a, a[1:]))
        c = poisson_trace(BLS, 32, rate_rps=200.0, seed=10)
        assert [r.arrival_ms for r in a] != [r.arrival_ms for r in c]

    def test_poisson_rate_roughly_honoured(self):
        trace = poisson_trace(BLS, 400, rate_rps=100.0, seed=3)
        mean_gap = trace[-1].arrival_ms / len(trace)
        assert mean_gap == pytest.approx(10.0, rel=0.25)

    def test_mixed_sizes_cycle(self):
        trace = poisson_trace(BLS, 6, 100.0, seed=1, sizes=(1 << 10, 1 << 14))
        assert [r.n for r in trace] == [1 << 10, 1 << 14] * 3

    def test_relative_deadline_attached(self):
        trace = poisson_trace(BLS, 5, 100.0, seed=1, deadline_ms=25.0)
        for r in trace:
            assert r.deadline_ms == pytest.approx(r.arrival_ms + 25.0)

    def test_bursty_trace_synchronised_bursts(self):
        trace = bursty_trace(BLS, bursts=3, burst_size=4, gap_ms=10.0)
        assert len(trace) == 12
        for b in range(3):
            burst = trace[4 * b : 4 * b + 4]
            assert {r.arrival_ms for r in burst} == {b * 10.0}

    def test_bursty_jitter_spreads_within_window(self):
        trace = bursty_trace(
            BLS, bursts=2, burst_size=8, gap_ms=20.0, seed=5, jitter_ms=3.0
        )
        for r in trace[:8]:
            assert 0.0 <= r.arrival_ms <= 3.0

