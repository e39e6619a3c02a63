"""Tests for prefetch timeliness bookkeeping (paper Figure 21)."""

import pytest

from repro.common.types import PrefetchTimeliness
from repro.core.prefetch.timeliness import PrefetchBookkeeper, TimelinessCounts


def full_lifecycle(bk, frame=1, target=100, displaced=50):
    p = bk.scheduled(frame, target, fire_at=10)
    bk.fired(frame)
    bk.issued(frame, 20)
    bk.arrived(frame, 40, displaced)
    return p


class TestResolutionPaths:
    def test_correct_timely_via_demand_hit(self):
        bk = PrefetchBookkeeper()
        full_lifecycle(bk)
        bk.demand_hit_on_prefetched(1, 100, now=60)
        assert bk.counts.correct[PrefetchTimeliness.TIMELY] == 1
        assert bk.pending_for(1) is None

    def test_wrong_timely_via_demand_miss(self):
        bk = PrefetchBookkeeper()
        full_lifecycle(bk, target=100)
        bk.demand_miss(1, missed_block=999, now=60)
        assert bk.counts.wrong[PrefetchTimeliness.TIMELY] == 1

    def test_late_when_in_flight(self):
        bk = PrefetchBookkeeper()
        bk.scheduled(1, 100, 10)
        bk.fired(1)
        bk.issued(1, 20)
        pending = bk.demand_miss(1, missed_block=100, now=30)
        assert bk.counts.correct[PrefetchTimeliness.LATE] == 1
        assert pending is not None  # engine can merge with the in-flight fetch

    def test_not_started_while_waiting(self):
        bk = PrefetchBookkeeper()
        bk.scheduled(1, 100, 10_000)
        bk.demand_miss(1, 100, now=50)
        assert bk.counts.correct[PrefetchTimeliness.NOT_STARTED] == 1

    def test_not_started_while_queued(self):
        bk = PrefetchBookkeeper()
        bk.scheduled(1, 100, 10)
        bk.fired(1)
        bk.demand_miss(1, 200, now=50)
        assert bk.counts.wrong[PrefetchTimeliness.NOT_STARTED] == 1

    def test_discarded(self):
        bk = PrefetchBookkeeper()
        p = bk.scheduled(1, 100, 10)
        bk.fired(1)
        bk.discarded(p)
        bk.demand_miss(1, 100, now=50)
        assert bk.counts.correct[PrefetchTimeliness.DISCARDED] == 1

    def test_no_pending_returns_none(self):
        bk = PrefetchBookkeeper()
        assert bk.demand_miss(1, 100, now=0) is None


class TestEarlyDetection:
    def test_displaced_live_block_marks_early(self):
        """The prefetch displaced block 50; block 50 missing again
        before resolution marks the prefetch early."""
        bk = PrefetchBookkeeper()
        full_lifecycle(bk, frame=1, target=100, displaced=50)
        # Block 50 misses back into the same frame: classification is
        # deferred to judge correctness at the following miss.
        returned = bk.demand_miss(1, missed_block=50, now=60)
        assert returned is not None
        assert bk.pending_for(1) is not None  # still pending, marked early
        # The following miss IS the predicted target: early but correct.
        bk.demand_miss(1, missed_block=100, now=80)
        assert bk.counts.correct[PrefetchTimeliness.EARLY] == 1

    def test_early_wrong(self):
        bk = PrefetchBookkeeper()
        full_lifecycle(bk, frame=1, target=100, displaced=50)
        bk.demand_miss(1, 50, now=60)
        bk.demand_miss(1, 999, now=80)
        assert bk.counts.wrong[PrefetchTimeliness.EARLY] == 1

    def test_early_correct_via_hit(self):
        bk = PrefetchBookkeeper()
        full_lifecycle(bk, frame=1, target=100, displaced=50)
        bk.demand_miss(1, 50, now=60)  # marks early, defers
        bk.demand_hit_on_prefetched(1, 100, now=70)
        assert bk.counts.correct[PrefetchTimeliness.EARLY] == 1


class TestLifecycleEdges:
    def test_superseded_rearm(self):
        bk = PrefetchBookkeeper()
        bk.scheduled(1, 100, 10)
        bk.scheduled(1, 200, 15)
        assert bk.superseded == 1
        assert bk.pending_for(1).target_block == 200

    def test_cancel(self):
        bk = PrefetchBookkeeper()
        bk.scheduled(1, 100, 10)
        bk.cancel(1)
        assert bk.cancelled == 1
        assert bk.pending_for(1) is None

    def test_arrival_after_resolution_ignored(self):
        bk = PrefetchBookkeeper()
        bk.scheduled(1, 100, 10)
        bk.demand_miss(1, 100, now=5)  # resolved NOT_STARTED
        bk.arrived(1, 40, 50)           # stale arrival
        assert bk.counts.total == 1

    def test_hit_on_non_target_ignored(self):
        bk = PrefetchBookkeeper()
        full_lifecycle(bk, target=100)
        bk.demand_hit_on_prefetched(1, 999, now=60)
        assert bk.counts.total == 0

    def test_reset_stats_keeps_pending(self):
        bk = PrefetchBookkeeper()
        bk.scheduled(1, 100, 10)
        bk.reset_stats()
        assert bk.pending_for(1) is not None
        assert bk.counts.total == 0


class TestTimelinessCounts:
    def test_accuracy(self):
        c = TimelinessCounts()
        c.add(True, PrefetchTimeliness.TIMELY)
        c.add(True, PrefetchTimeliness.LATE)
        c.add(False, PrefetchTimeliness.TIMELY)
        assert c.address_accuracy() == pytest.approx(2 / 3)
        assert c.total == 3

    def test_fraction(self):
        c = TimelinessCounts()
        c.add(True, PrefetchTimeliness.TIMELY)
        c.add(True, PrefetchTimeliness.TIMELY)
        c.add(True, PrefetchTimeliness.LATE)
        assert c.fraction(True, PrefetchTimeliness.TIMELY) == pytest.approx(2 / 3)
        assert c.fraction(False, PrefetchTimeliness.TIMELY) == 0.0

    def test_empty_accuracy(self):
        assert TimelinessCounts().address_accuracy() == 0.0
