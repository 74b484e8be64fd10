"""SLO metrics: percentiles, counts and the summary line."""

import pytest

from repro.curves.params import curve_by_name
from repro.observe.stats import percentile
from repro.serve import (
    SHED_QUEUE_FULL,
    ProofRequest,
    RequestRecord,
    ServeMetrics,
    ShedEvent,
)

BLS = curve_by_name("BLS12-381")


def _record(rid, arrival, complete, **kw):
    return RequestRecord(
        req_id=rid,
        label=f"r{rid}",
        n=1 << 12,
        arrival_ms=arrival,
        formed_ms=kw.pop("formed", arrival + 1.0),
        admit_ms=kw.pop("admit", arrival + 1.5),
        start_ms=kw.pop("start", arrival + 2.0),
        complete_ms=complete,
        batch_id=kw.pop("batch_id", 0),
        group=kw.pop("group", 0),
        **kw,
    )


class TestPercentile:
    def test_nearest_rank_values_occur_in_input(self):
        values = [5.0, 1.0, 9.0, 3.0]
        for q in (0.0, 25.0, 50.0, 75.0, 95.0, 100.0):
            assert percentile(values, q) in values

    def test_metrics_module_uses_the_stats_percentile(self):
        """serve/metrics must not regrow a private percentile (ISSUE 10).

        The serving layer's SLO numbers are defined to be the
        ``observe.stats`` nearest-rank percentile — the import must be the
        very same function object, not a copy that could drift.
        """
        import repro.observe.stats as stats
        import repro.serve.metrics as metrics

        assert metrics.percentile is stats.percentile

    def test_pinned_slo_percentiles_on_known_latencies(self):
        """Explicit nearest-rank p50/p95/p99 pins through ServeMetrics."""
        # 10 requests with latencies 10, 20, ..., 100 ms
        records = [
            _record(i, 0.0, float((i + 1) * 10)) for i in range(10)
        ]
        metrics = ServeMetrics(records=records)
        assert metrics.p50_ms == 50.0  # rank ceil(5.0)  = 5  -> 50
        assert metrics.p95_ms == 100.0  # rank ceil(9.5)  = 10 -> 100
        assert metrics.p99_ms == 100.0  # rank ceil(9.9)  = 10 -> 100
        # and they agree with calling the shared helper directly
        lat = metrics.latencies_ms()
        assert metrics.p50_ms == percentile(lat, 50.0)
        assert metrics.p95_ms == percentile(lat, 95.0)
        assert metrics.p99_ms == percentile(lat, 99.0)

    def test_known_points(self):
        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 50.0) == 5.0
        assert percentile(values, 95.0) == 10.0
        assert percentile(values, 100.0) == 10.0
        assert percentile(values, 0.0) == 1.0

    def test_empty_and_invalid(self):
        assert percentile([], 95.0) == 0.0
        with pytest.raises(ValueError, match="q must be in"):
            percentile([1.0], 101.0)


class TestRequestRecord:
    def test_total_runs_from_arrival_to_completion(self):
        r = _record(0, arrival=10.0, complete=20.0)
        assert r.total_ms == pytest.approx(10.0)

    def test_deadline_violation(self):
        assert _record(0, 0.0, 10.0, deadline_ms=9.0).deadline_violated
        assert not _record(1, 0.0, 10.0, deadline_ms=11.0).deadline_violated
        assert not _record(2, 0.0, 10.0).deadline_violated


class TestServeMetrics:
    def _metrics(self):
        records = [_record(i, float(i), float(i) + 4.0 + i) for i in range(10)]
        shed = [
            ShedEvent(
                ProofRequest(99, BLS, 1 << 12, arrival_ms=1.0), 1.0, SHED_QUEUE_FULL
            )
        ]
        return ServeMetrics(
            records=records,
            shed=shed,
            makespan_ms=50.0,
            utilization={"gpu0": 0.5, "gpu1": 0.3, "cpu": 0.9, "node0-link": 0.1},
        )

    def test_counts_and_throughput(self):
        m = self._metrics()
        assert m.served == 10 and m.submitted == 11
        assert m.shed_count() == 1
        assert m.throughput_rps == pytest.approx(10 / 50.0 * 1e3)

    def test_percentiles_over_latencies(self):
        m = self._metrics()
        # latencies are 4+i for i in 0..9: 4, 5, ..., 13
        assert m.p50_ms == pytest.approx(8.0)
        assert m.p99_ms == pytest.approx(13.0)

    def test_gpu_utilization_averages_gpus_only(self):
        assert self._metrics().gpu_utilization() == pytest.approx(0.4)

    def test_render_mentions_the_slo_story(self):
        text = self._metrics().render()
        assert "p95" in text and "req/s" in text and "shed 1" in text

    def test_empty_metrics_do_not_crash(self):
        m = ServeMetrics()
        assert m.p95_ms == 0.0 and m.throughput_rps == 0.0
        assert m.gpu_utilization() == 0.0
