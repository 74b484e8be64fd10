"""observe.stats: the shared nearest-rank percentile."""

import pytest

from repro.observe.stats import percentile


class TestPercentile:
    def test_nearest_rank_no_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50.0) == 20.0
        assert percentile(values, 75.0) == 30.0
        assert percentile(values, 100.0) == 40.0
        # nearest-rank always returns a value that occurred
        assert percentile(values, 60.0) in values

    def test_p0_returns_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_empty_returns_zero(self):
        assert percentile([], 95.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)

    def test_pinned_p50_p95_p99_on_known_series(self):
        """Explicit nearest-rank regression pins (ISSUE 10 satellite).

        These exact values are what the serving SLO report and the tuner's
        p95 objective are built on; any interpolation creeping into
        ``percentile`` shows up here, not as a subtle SLO shift.
        """
        # 1..100: percentiles land exactly on their rank
        century = [float(v) for v in range(1, 101)]
        assert percentile(century, 50.0) == 50.0
        assert percentile(century, 95.0) == 95.0
        assert percentile(century, 99.0) == 99.0
        # 5 values, unsorted input: rank = ceil(q/100 * 5)
        five = [12.0, 7.0, 42.0, 3.0, 99.0]
        assert percentile(five, 50.0) == 12.0  # rank 3 of [3,7,12,42,99]
        assert percentile(five, 95.0) == 99.0  # rank 5
        assert percentile(five, 99.0) == 99.0  # rank 5
        # 20 values: p99 rounds UP to the max (nearest rank, never below)
        twenty = [float(v) for v in range(10, 210, 10)]
        assert percentile(twenty, 50.0) == 100.0  # rank 10
        assert percentile(twenty, 95.0) == 190.0  # rank 19
        assert percentile(twenty, 99.0) == 200.0  # rank 20
        # duplicates: ranks fall on repeated values, not blends
        dupes = [1.0, 1.0, 1.0, 10.0]
        assert percentile(dupes, 50.0) == 1.0
        assert percentile(dupes, 75.0) == 1.0
        assert percentile(dupes, 76.0) == 10.0

    def test_serve_shim_removed(self):
        """The deprecated serve-layer aliases are gone; stats is the home."""
        import repro.serve as serve_pkg

        assert "percentile" not in serve_pkg.__all__
        assert not hasattr(serve_pkg, "percentile")

