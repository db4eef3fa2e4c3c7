"""Tests for the O3/O4 trace analyzers (reuse distance, spatial locality)."""

import pytest

from repro.stats.locality import SpatialLocalityAnalyzer, fraction_within
from repro.stats.reuse import (
    ReuseDistanceAnalyzer,
    TranslationCountAnalyzer,
    fraction_short,
    fraction_single_translation,
    mean_translations_per_page,
    repeated_requests,
    unique_pages,
)


class TestTranslationCountAnalyzer:
    def test_counts_per_page(self):
        analyzer = TranslationCountAnalyzer()
        for vpn in (1, 2, 1, 1):
            analyzer.record(vpn)
        assert analyzer.count_of(1) == 3
        assert unique_pages(analyzer.summary()) == 2
        assert analyzer.total_requests == 4

    def test_single_translation_fraction(self):
        analyzer = TranslationCountAnalyzer()
        for vpn in (1, 2, 3, 3):
            analyzer.record(vpn)
        assert fraction_single_translation(analyzer.summary()) == pytest.approx(2 / 3)

    def test_histogram_keys_are_counts(self):
        analyzer = TranslationCountAnalyzer()
        for vpn in (1, 1, 2):
            analyzer.record(vpn)
        histogram = analyzer.histogram()
        assert histogram.count(1) == 1  # one page translated once
        assert histogram.count(2) == 1  # one page translated twice

    def test_mean_translations(self):
        analyzer = TranslationCountAnalyzer()
        for vpn in (1, 1, 2, 2):
            analyzer.record(vpn)
        assert mean_translations_per_page(analyzer.summary()) == pytest.approx(2.0)

    def test_empty(self):
        analyzer = TranslationCountAnalyzer()
        assert fraction_single_translation(analyzer.summary()) == 0.0
        assert mean_translations_per_page(analyzer.summary()) == 0.0


class TestReuseDistanceAnalyzer:
    def test_distance_counts_intervening_requests(self):
        analyzer = ReuseDistanceAnalyzer()
        for vpn in (1, 2, 3, 1):  # two requests between the 1s
            analyzer.record(vpn)
        assert repeated_requests(analyzer.summary()) == 1
        assert analyzer.max_distance == 2
        assert analyzer.min_distance == 2

    def test_back_to_back_distance_zero(self):
        analyzer = ReuseDistanceAnalyzer()
        analyzer.record(7)
        analyzer.record(7)
        assert analyzer.min_distance == 0

    def test_no_repeats(self):
        analyzer = ReuseDistanceAnalyzer()
        for vpn in (1, 2, 3):
            analyzer.record(vpn)
        assert repeated_requests(analyzer.summary()) == 0

    def test_fraction_short(self):
        analyzer = ReuseDistanceAnalyzer()
        analyzer.record(1)
        analyzer.record(1)  # distance 0
        for vpn in range(100, 150):
            analyzer.record(vpn)
        analyzer.record(1)  # distance 50
        assert fraction_short(analyzer.summary(), 10) == pytest.approx(0.5)

    def test_distance_resets_after_each_touch(self):
        analyzer = ReuseDistanceAnalyzer()
        for vpn in (1, 1, 2, 1):
            analyzer.record(vpn)
        assert repeated_requests(analyzer.summary()) == 2
        assert analyzer.max_distance == 1


class TestSpatialLocalityAnalyzer:
    def test_adjacent_pages_within_one(self):
        analyzer = SpatialLocalityAnalyzer()
        for vpn in (10, 11, 12):
            analyzer.record(vpn)
        assert fraction_within(analyzer.summary(), 1) == pytest.approx(1.0)

    def test_far_pages(self):
        analyzer = SpatialLocalityAnalyzer()
        analyzer.record(0)
        analyzer.record(1000)
        assert fraction_within(analyzer.summary(), 16) == 0.0
        assert analyzer.far == 1

    def test_fraction_within_is_cumulative(self):
        analyzer = SpatialLocalityAnalyzer()
        for vpn in (0, 1, 3, 7):  # distances 1, 2, 4
            analyzer.record(vpn)
        assert fraction_within(analyzer.summary(), 1) == pytest.approx(1 / 3)
        assert fraction_within(analyzer.summary(), 2) == pytest.approx(2 / 3)
        assert fraction_within(analyzer.summary(), 4) == pytest.approx(1.0)

    def test_fractions_sum_to_one(self):
        analyzer = SpatialLocalityAnalyzer()
        for vpn in (0, 1, 5, 100, 101):
            analyzer.record(vpn)
        assert sum(analyzer.fractions()) == pytest.approx(1.0)

    def test_labels_match_fraction_buckets(self):
        analyzer = SpatialLocalityAnalyzer()
        assert len(analyzer.labels()) == len(analyzer.fractions())

    def test_single_request_no_pairs(self):
        analyzer = SpatialLocalityAnalyzer()
        analyzer.record(5)
        assert analyzer.total_pairs == 0
        assert fraction_within(analyzer.summary(), 1) == 0.0
