"""Prefetch timeliness and address-accuracy bookkeeping (Figures 20, 21).

The paper classifies every prefetch by *when* it acted relative to the
frame's generation boundaries, separately for correct and wrong address
predictions:

- **early**: arrived while the displaced block was still live (we
  detect this when the displaced block itself misses again before the
  prediction resolves);
- **discarded**: dropped from the prefetch queue before issue;
- **timely**: arrived within the dead time, before the next miss;
- **late** ("started_but_not_timely"): issued but arrived after the
  frame's next miss;
- **not started**: the timer or queue never got it out before the next
  miss.

:class:`PrefetchBookkeeper` tracks one pending prefetch per frame (the
hardware has a single prefetch counter/next-tag per line) through the
states WAITING -> QUEUED -> ISSUED -> ARRIVED, resolving it at the
frame's next demand miss or at the first demand use of the prefetched
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ...common.types import PrefetchTimeliness


class _State:
    WAITING = 0
    QUEUED = 1
    ISSUED = 2
    ARRIVED = 3
    DISCARDED = 4


class PendingPrefetch:
    """The in-flight prediction attached to one frame.

    A plain slotted class rather than a dataclass: one is allocated per
    scheduled prefetch and its fields are rewritten as the prediction
    moves through the engine, so compact instances matter.
    """

    __slots__ = (
        "frame_key",
        "target_block",
        "fire_at",
        "state",
        "displaced_block",
        "early",
    )

    def __init__(self, frame_key: int, target_block: int, fire_at: int) -> None:
        self.frame_key = frame_key
        self.target_block = target_block
        self.fire_at = fire_at
        self.state = _State.WAITING
        self.displaced_block = -1
        #: Set when the displaced block missed again before resolution —
        #: the prefetch displaced a live block.
        self.early = False

    def __repr__(self) -> str:
        return (
            f"PendingPrefetch(frame={self.frame_key}, target={self.target_block:#x}, "
            f"state={self.state})"
        )


@dataclass
class TimelinessCounts:
    """Counts per timeliness class, split by address correctness."""

    correct: Dict[PrefetchTimeliness, int] = field(
        default_factory=lambda: {t: 0 for t in PrefetchTimeliness}
    )
    wrong: Dict[PrefetchTimeliness, int] = field(
        default_factory=lambda: {t: 0 for t in PrefetchTimeliness}
    )

    def add(self, was_correct: bool, timeliness: PrefetchTimeliness) -> None:
        bucket = self.correct if was_correct else self.wrong
        bucket[timeliness] += 1

    @property
    def total_correct(self) -> int:
        return sum(self.correct.values())

    @property
    def total_wrong(self) -> int:
        return sum(self.wrong.values())

    @property
    def total(self) -> int:
        return self.total_correct + self.total_wrong

    def address_accuracy(self) -> float:
        """Fraction of resolved predictions whose address was right."""
        total = self.total
        return self.total_correct / total if total else 0.0

    def fraction(self, was_correct: bool, timeliness: PrefetchTimeliness) -> float:
        """Share of one bucket within its correctness class."""
        bucket = self.correct if was_correct else self.wrong
        denom = sum(bucket.values())
        return bucket[timeliness] / denom if denom else 0.0


class PrefetchBookkeeper:
    """Tracks pending prefetches and resolves their classification."""

    __slots__ = ("_pending", "_displaced", "counts", "superseded", "cancelled")

    def __init__(self) -> None:
        self._pending: Dict[int, PendingPrefetch] = {}
        #: displaced block address -> frame whose prefetch displaced it.
        self._displaced: Dict[int, int] = {}
        self.counts = TimelinessCounts()
        #: Predictions superseded by a re-arm before resolution.
        self.superseded = 0
        #: Prefetches whose target was already resident/cancelled at issue.
        self.cancelled = 0

    # -- engine events --------------------------------------------------------

    def scheduled(self, frame_key: int, target_block: int,
                  fire_at: int) -> PendingPrefetch:
        """A frame's timer was (re)armed; replaces any unresolved pending."""
        if frame_key in self._pending:
            self._drop(self._pending[frame_key])
            self.superseded += 1
        pending = PendingPrefetch(frame_key, target_block, fire_at)
        self._pending[frame_key] = pending
        return pending

    def fired(self, frame_key: int) -> None:
        """The timer expired and the request entered the prefetch queue."""
        pending = self._pending.get(frame_key)
        if pending is not None and pending.state == _State.WAITING:
            pending.state = _State.QUEUED

    def discarded(self, pending: PendingPrefetch) -> None:
        """The request was dropped from the queue before issue."""
        if pending.state == _State.QUEUED:
            pending.state = _State.DISCARDED

    def issued(self, frame_key: int, now: int) -> None:
        """The request left the queue for the L2/memory."""
        pending = self._pending.get(frame_key)
        if pending is not None and pending.state == _State.QUEUED:
            pending.state = _State.ISSUED

    def cancel(self, frame_key: int) -> None:
        """Target became resident by other means; drop silently."""
        pending = self._pending.pop(frame_key, None)
        if pending is not None:
            self._drop(pending)
            self.cancelled += 1

    def arrived(self, frame_key: int, now: int, displaced_block: int) -> None:
        """The prefetched block was installed, displacing *displaced_block*."""
        pending = self._pending.get(frame_key)
        if pending is None or pending.state not in (_State.ISSUED, _State.QUEUED):
            return
        pending.state = _State.ARRIVED
        pending.displaced_block = displaced_block
        if displaced_block >= 0:
            self._displaced[displaced_block] = frame_key

    # -- resolution -------------------------------------------------------------

    def demand_hit_on_prefetched(self, frame_key: int, block_addr: int, now: int) -> None:
        """First demand use of a prefetched block: correct prediction."""
        pending = self._pending.get(frame_key)
        if pending is None or pending.target_block != block_addr:
            return
        timeliness = (
            PrefetchTimeliness.EARLY if pending.early else PrefetchTimeliness.TIMELY
        )
        self.counts.add(True, timeliness)
        self._resolve(pending)

    def demand_miss(self, frame_key: int, missed_block: int, now: int) -> Optional[PendingPrefetch]:
        """The frame's next demand miss arrived; resolve the pending
        prediction.  Returns the pending record (so the engine can merge
        the demand with an in-flight prefetch of the same block)."""
        # Did this miss hit a block some prefetch displaced while live?
        owner = self._displaced.pop(missed_block, None)
        if owner is not None:
            early_pending = self._pending.get(owner)
            if early_pending is not None and early_pending.state == _State.ARRIVED:
                early_pending.early = True
                if owner == frame_key:
                    # The displaced block refills its own frame, evicting
                    # the prefetched block; classification waits for the
                    # *next* miss so correctness can still be judged.
                    return early_pending
        pending = self._pending.get(frame_key)
        if pending is None:
            return None
        correct = pending.target_block == missed_block
        if pending.state == _State.ARRIVED:
            timeliness = (
                PrefetchTimeliness.EARLY if pending.early else PrefetchTimeliness.TIMELY
            )
        elif pending.state == _State.ISSUED:
            timeliness = PrefetchTimeliness.LATE
        elif pending.state == _State.DISCARDED:
            timeliness = PrefetchTimeliness.DISCARDED
        else:
            timeliness = PrefetchTimeliness.NOT_STARTED
        self.counts.add(correct, timeliness)
        self._resolve(pending)
        return pending

    # -- internals ---------------------------------------------------------------

    def _resolve(self, pending: PendingPrefetch) -> None:
        self._pending.pop(pending.frame_key, None)
        if pending.displaced_block >= 0:
            self._displaced.pop(pending.displaced_block, None)

    def _drop(self, pending: PendingPrefetch) -> None:
        if pending.displaced_block >= 0:
            self._displaced.pop(pending.displaced_block, None)

    def pending_for(self, frame_key: int) -> Optional[PendingPrefetch]:
        """The unresolved prediction on *frame_key*, if any."""
        return self._pending.get(frame_key)

    def reset_stats(self) -> None:
        """Zero the tallies; pending predictions are kept (warm-up)."""
        self.counts = TimelinessCounts()
        self.superseded = 0
        self.cancelled = 0
