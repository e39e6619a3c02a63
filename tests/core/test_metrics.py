"""Tests for the timekeeping metric collectors."""

import pytest

from repro.common.types import MissClass
from repro.core.generations import GenerationRecord
from repro.core.metrics import NO_PREV_LIVE, RELOAD_BIN, TIME_BIN, TimekeepingMetrics


def record(live=10, dead=100, block=1, start=0, hits=1, max_int=5, prev=None):
    return GenerationRecord(
        block_addr=block, start=start, live_time=live, dead_time=dead,
        hit_count=hits, max_access_interval=max_int, prev_live_time=prev,
    )


class TestGenerationFeed:
    def test_histograms_populated(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=50, dead=5000))
        assert m.live_time.total == 1
        assert m.dead_time.total == 1
        assert m.fraction_live_below(TIME_BIN) == 1.0
        assert m.fraction_dead_below(TIME_BIN) == 0.0

    def test_zero_live_fraction(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=0))
        m.on_generation(record(live=10))
        assert m.zero_live_fraction() == pytest.approx(0.5)

    def test_zero_live_fraction_empty(self):
        assert TimekeepingMetrics().zero_live_fraction() == 0.0

    def test_live_time_pairs_collected(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=10, prev=None))
        m.on_generation(record(live=20, prev=10))
        assert m.live_time_pairs == [(10, 20)]

    def test_generations_kept(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=7, prev=None))
        assert m.generations == [record(live=7, prev=None)]
        assert m.total_generations == 1
        assert m.generation_columns.prev_live_time.tolist() == [NO_PREV_LIVE]


class TestMissCorrelations:
    def test_split_by_class(self):
        m = TimekeepingMetrics()
        m.on_miss_correlation(MissClass.CONFLICT, 500, 200, 0)
        m.on_miss_correlation(MissClass.CAPACITY, 500_000, 90_000, 400)
        assert m.reload_by_class[MissClass.CONFLICT].total == 1
        assert m.reload_by_class[MissClass.CAPACITY].total == 1
        assert m.dead_by_class[MissClass.CONFLICT].fraction_below(TIME_BIN * 100) == 1.0
        assert len(m.miss_correlations) == 2

    def test_cold_not_split(self):
        m = TimekeepingMetrics()
        m.on_miss_correlation(MissClass.COLD, 100, 100, 0)
        assert m.reload_by_class[MissClass.CONFLICT].total == 0
        assert m.reload_interval.total == 1

    def test_reload_histogram_bin_width(self):
        m = TimekeepingMetrics()
        m.on_miss_correlation(MissClass.CAPACITY, RELOAD_BIN - 1, 0, 0)
        assert m.reload_interval.counts[0] == 1


class TestRatios:
    def test_live_time_ratios(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=20, prev=10))
        m.on_generation(record(live=5, prev=10))
        assert list(m.live_time_ratios()) == [2.0, 0.5]

    def test_zero_live_times_mapped_to_one(self):
        m = TimekeepingMetrics()
        m.on_generation(record(live=0, prev=0))
        assert list(m.live_time_ratios()) == [1.0]

    def test_access_interval_feed(self):
        m = TimekeepingMetrics()
        m.on_access_interval(50)
        m.on_access_interval(150)
        assert m.access_interval.total == 2
        assert m.access_interval.counts[0] == 1
        assert m.access_interval.counts[1] == 1
