"""Tests for the statistics package: histograms, time series, breakdowns."""

import pytest

from repro.stats.histogram import BucketHistogram, Histogram, merge_histograms
from repro.stats.latency import LatencyBreakdown
from repro.stats.timeseries import (
    PeriodicSampler,
    TimeSeries,
    WindowedCounter,
    normalized_shape,
)


class TestHistogram:
    def test_add_and_count(self):
        histogram = Histogram()
        histogram.add(3)
        histogram.add(3)
        histogram.add(5)
        assert histogram.count(3) == 2
        assert histogram.count(5) == 1
        assert histogram.total == 3

    def test_fraction(self):
        histogram = Histogram()
        histogram.add(1, 3)
        histogram.add(2, 1)
        assert histogram.fraction(1) == pytest.approx(0.75)

    def test_mean(self):
        histogram = Histogram()
        histogram.add(2, 2)
        histogram.add(4, 2)
        assert histogram.mean() == pytest.approx(3.0)

    def test_keys_sorted(self):
        histogram = Histogram()
        for key in (5, 1, 3):
            histogram.add(key)
        assert histogram.keys() == [1, 3, 5]

    def test_empty_fraction_zero(self):
        assert Histogram().fraction(1) == 0.0

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.add(1, 2)
        b.add(1, 1)
        b.add(2, 1)
        merged = merge_histograms([a, b])
        assert merged.count(1) == 3
        assert merged.count(2) == 1


class TestBucketHistogram:
    def test_bucket_assignment(self):
        histogram = BucketHistogram([10, 100])
        histogram.add(5)
        histogram.add(50)
        histogram.add(500)
        assert histogram.counts == [1, 1, 1]

    def test_boundary_goes_to_upper_bucket(self):
        histogram = BucketHistogram([10])
        histogram.add(10)
        assert histogram.counts == [0, 1]

    def test_fractions(self):
        histogram = BucketHistogram([10])
        histogram.add(1, 3)
        histogram.add(20, 1)
        assert histogram.fractions() == pytest.approx([0.75, 0.25])

    def test_cumulative_fraction(self):
        histogram = BucketHistogram([10, 100])
        histogram.add(5, 1)
        histogram.add(50, 1)
        histogram.add(500, 2)
        assert histogram.cumulative_fraction_below(100) == pytest.approx(0.5)

    def test_labels_cover_all_buckets(self):
        histogram = BucketHistogram([10, 100])
        assert len(histogram.labels()) == 3

    def test_invalid_boundaries(self):
        with pytest.raises(ValueError):
            BucketHistogram([10, 5])
        with pytest.raises(ValueError):
            BucketHistogram([])


class TestLatencyBreakdown:
    def test_means_and_percentages(self):
        breakdown = LatencyBreakdown(["a", "b"])
        breakdown.record(a=10, b=30)
        breakdown.record(a=20, b=40)
        assert breakdown.mean("a") == pytest.approx(15.0)
        assert breakdown.percentages()["b"] == pytest.approx(70.0)

    def test_dominant_phase(self):
        breakdown = LatencyBreakdown(["x", "y", "z"])
        breakdown.record(x=1, y=100, z=5)
        assert breakdown.dominant_phase() == "y"

    def test_unknown_phase_rejected(self):
        breakdown = LatencyBreakdown(["a"])
        with pytest.raises(KeyError):
            breakdown.record(b=5)

    def test_negative_latency_rejected(self):
        breakdown = LatencyBreakdown(["a"])
        with pytest.raises(ValueError):
            breakdown.record(a=-1)

    def test_rows_structure(self):
        breakdown = LatencyBreakdown(["a", "b"])
        breakdown.record(a=10, b=10)
        rows = breakdown.rows()
        assert [row["phase"] for row in rows] == ["a", "b"]
        assert rows[0]["percent"] == pytest.approx(50.0)

    def test_empty_percentages(self):
        breakdown = LatencyBreakdown(["a"])
        assert breakdown.percentages() == {"a": 0.0}


class TestTimeSeries:
    def test_sample_and_stats(self):
        series = TimeSeries("s")
        series.sample(0, 1.0)
        series.sample(10, 3.0)
        assert series.max() == 3.0
        assert series.mean() == pytest.approx(2.0)
        assert series.points() == [(0, 1.0), (10, 3.0)]

    def test_empty_stats(self):
        series = TimeSeries()
        assert series.max() == 0.0
        assert series.mean() == 0.0


class TestWindowedCounter:
    def test_window_bucketing(self):
        counter = WindowedCounter(100)
        counter.record(5)
        counter.record(50)
        counter.record(150)
        assert counter.windows == [2, 1]

    def test_series_cycle_labels(self):
        counter = WindowedCounter(100)
        counter.record(250)
        assert counter.series() == [(0, 0), (100, 0), (200, 1)]

    def test_normalized_shape(self):
        counter = WindowedCounter(10)
        counter.record(5, 2)
        counter.record(15, 4)
        assert normalized_shape(counter.windows) == pytest.approx([0.5, 1.0])

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            WindowedCounter(0)


class TestPeriodicSampler:
    def test_samples_while_events_pending(self, sim):
        series = TimeSeries()
        values = iter(range(100))
        PeriodicSampler(sim, lambda: next(values), period=10, series=series)
        sim.schedule(35, lambda: None)  # keep the sim alive until cycle 35
        sim.run()
        assert series.times == [10, 20, 30, 40]

    def test_stop_disables_sampling(self, sim):
        series = TimeSeries()
        sampler = PeriodicSampler(sim, lambda: 1.0, period=10, series=series)
        sampler.stop()
        sim.schedule(50, lambda: None)
        sim.run()
        assert len(series) == 0
