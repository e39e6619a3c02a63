"""Generational bookkeeping for cache lines (paper Section 3).

A *generation* of a cache frame starts with the miss that fills it and
ends when the block is evicted.  Within a generation (Figure 3):

- **live time**: fill to last hit (zero if never hit);
- **dead time**: last access to eviction;
- **access interval**: time between successive accesses within the live
  time;
- **reload interval**: time between the starts of two successive
  generations *of the same memory block* (equals the block's access
  interval one level down).

:class:`GenerationTracker` receives fill/hit/evict events from the
simulator and produces :class:`GenerationRecord` per closed generation,
plus per-block state needed to correlate a *miss* with the metrics of
the block's previous generation (Section 4 keys every miss-type
correlation off the last generation of the line that misses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


class GenerationRecord:
    """One closed cache-line generation.

    A slotted plain class rather than a frozen dataclass: one record is
    allocated per eviction, and ``object.__setattr__``-per-field makes
    frozen-dataclass construction the dominant cost of ``on_evict``.

    Attributes:
        max_access_interval: Largest access interval observed within the
            live time (0 when fewer than one hit); used by the decay
            dead-block evaluation.
        prev_live_time: Live time of the same block's previous
            generation, or None — the input to the live-time dead-block
            predictor evaluation.
    """

    __slots__ = (
        "block_addr",
        "start",
        "live_time",
        "dead_time",
        "hit_count",
        "max_access_interval",
        "prev_live_time",
    )

    def __init__(
        self,
        block_addr: int,
        start: int,
        live_time: int,
        dead_time: int,
        hit_count: int,
        max_access_interval: int,
        prev_live_time: Optional[int],
    ) -> None:
        self.block_addr = block_addr
        self.start = start
        self.live_time = live_time
        self.dead_time = dead_time
        self.hit_count = hit_count
        self.max_access_interval = max_access_interval
        self.prev_live_time = prev_live_time

    @property
    def generation_time(self) -> int:
        """Fill to eviction."""
        return self.live_time + self.dead_time

    def __repr__(self) -> str:
        return (
            f"GenerationRecord(block_addr={self.block_addr}, start={self.start}, "
            f"live_time={self.live_time}, dead_time={self.dead_time}, "
            f"hit_count={self.hit_count}, "
            f"max_access_interval={self.max_access_interval}, "
            f"prev_live_time={self.prev_live_time})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenerationRecord):
            return NotImplemented
        return (
            self.block_addr == other.block_addr
            and self.start == other.start
            and self.live_time == other.live_time
            and self.dead_time == other.dead_time
            and self.hit_count == other.hit_count
            and self.max_access_interval == other.max_access_interval
            and self.prev_live_time == other.prev_live_time
        )


@dataclass(frozen=True)
class LastGeneration:
    """Summary of a block's most recent *closed* generation.

    Legacy view type: :meth:`GenerationTracker.last_generation` now
    returns the full :class:`GenerationRecord` (which carries the same
    ``start``/``live_time``/``dead_time`` fields) instead of allocating
    one of these per eviction.
    """

    start: int
    live_time: int
    dead_time: int


class GenerationTracker:
    """Tracks generations across all frames of one cache.

    The caller owns frame state (``repro.cache.block.Frame`` already
    carries fill/last-access times); this tracker adds what frames
    cannot know — per-*block* history across generations — and closes
    the books on evictions.

    Args:
        on_generation: Optional callback invoked with each closed
            :class:`GenerationRecord` (metrics collectors hook here).
        keep_records: When True, all closed records are retained in
            :attr:`records` (tests, offline analysis).
    """

    __slots__ = (
        "_on_generation",
        "_keep",
        "records",
        "_last_gen_map",
        "_pending_closed",
        "_open_last",
        "_open_max",
        "closed_generations",
    )

    def __init__(
        self,
        on_generation: Optional[Callable[[GenerationRecord], None]] = None,
        *,
        keep_records: bool = False,
    ) -> None:
        self._on_generation = on_generation
        self._keep = keep_records
        self.records: List[GenerationRecord] = []
        #: block_addr -> closed record of the block's previous tenancy
        #: (exposes the start/live_time/dead_time trio callers read).
        #: Backing store of the :attr:`_last_gen` property; batch-queued
        #: column tuples waiting to be folded in live in
        #: ``_pending_closed`` until someone reads per-block history.
        self._last_gen_map: Dict[int, GenerationRecord] = {}
        self._pending_closed: List[tuple] = []
        #: Open-generation state, split into parallel int-valued dicts
        #: so the per-hit update allocates nothing (no tuple per access);
        #: frame id is any hashable the caller uses.
        self._open_last: Dict[int, int] = {}
        self._open_max: Dict[int, int] = {}
        self.closed_generations = 0

    def set_on_generation(
        self, callback: Optional[Callable[[GenerationRecord], None]]
    ) -> None:
        """Replace the closed-generation callback.

        The warm-up reset uses this to hook a fresh metrics collector
        without reaching into tracker internals.
        """
        self._on_generation = callback

    @property
    def has_consumer(self) -> bool:
        """Whether anything reads closed generations.

        True with an ``on_generation`` callback (metrics bank, flight
        recorder) or ``keep_records``.  The simulator's scalar loop
        feeds fill/hit/evict events only while this holds: without a
        consumer it skips the open-generation upkeep and record
        construction and just adds to :attr:`closed_generations`, so
        per-block history (:meth:`last_generation`) is not kept.
        """
        return self._on_generation is not None or self._keep

    # -- event feed ----------------------------------------------------------

    def on_fill(self, frame_id: int, block_addr: int, now: int) -> Optional[int]:
        """Record a fill; returns the block's reload interval, or None.

        The reload interval is ``now - start of the block's previous
        generation`` and is only defined from the second generation on.
        """
        self._open_last[frame_id] = now
        self._open_max[frame_id] = 0
        if self._pending_closed:
            self._flush_closed()
        last = self._last_gen_map.get(block_addr)
        if last is None:
            return None
        return now - last.start

    def on_hit(self, frame_id: int, now: int) -> int:
        """Record a demand hit; returns this access interval."""
        open_last = self._open_last
        interval = now - open_last[frame_id]
        open_last[frame_id] = now
        open_max = self._open_max
        if interval > open_max[frame_id]:
            open_max[frame_id] = interval
        return interval

    def on_evict(
        self,
        frame_id: int,
        block_addr: int,
        fill_time: int,
        live_time: int,
        now: int,
        hit_count: int = 0,
    ) -> GenerationRecord:
        """Close the generation open on *frame_id* and return its record.

        Args:
            block_addr: The evicted block.
            fill_time: Cycle its generation began.
            live_time: Fill-to-last-hit (0 when no hits) — the caller's
                frame holds this exactly (``Frame.live_time()``).
            now: Eviction cycle.
            hit_count: Demand hits the generation received.
        """
        self._open_last.pop(frame_id, None)
        max_interval = self._open_max.pop(frame_id, 0)
        if self._pending_closed:
            self._flush_closed()
        last_gen = self._last_gen_map
        prev = last_gen.get(block_addr)
        record = GenerationRecord(
            block_addr,
            fill_time,
            live_time,
            now - (fill_time + live_time),
            hit_count,
            max_interval,
            prev.live_time if prev is not None else None,
        )
        last_gen[block_addr] = record
        self.closed_generations += 1
        if self._on_generation is not None:
            self._on_generation(record)
        if self._keep:
            self.records.append(record)
        return record

    def absorb_closed(self, columns: tuple) -> None:
        """Fold a batch of closed generations, given as columns, into the books.

        The batch engine knows every record field from column math and
        delivers the metric effects in bulk itself, so this method
        deliberately does **not** invoke the per-record
        ``on_generation`` callback — it only counts the generations and
        queues *columns* (the 7-tuple of parallel plain-int lists
        ``(block_addr, start, live_time, dead_time, hit_count,
        max_access_interval, prev_live_time)``, in eviction order) for
        the per-block history.  :class:`GenerationRecord` objects are
        only built when someone reads that history (the next batch's
        correlation pass, a scalar fill/evict, or a direct
        ``last_generation`` query) — a run nobody inspects further
        never pays for them.  Last record per block wins, matching
        sequential :meth:`on_evict` order.  Open-generation state
        (``_open_last`` / ``_open_max``) is owned by the caller at
        batch granularity and is written back separately.
        """
        self.closed_generations += len(columns[0])
        if self._keep:
            if self._pending_closed:
                self._flush_closed()
            records = list(map(GenerationRecord, *columns))
            self._last_gen_map.update(zip(columns[0], records))
            self.records.extend(records)
        else:
            self._pending_closed.append(columns)

    def _flush_closed(self) -> None:
        """Materialize queued closed-generation columns into the map."""
        pending = self._pending_closed
        last_gen = self._last_gen_map
        for columns in pending:
            last_gen.update(
                zip(columns[0], map(GenerationRecord, *columns))
            )
        pending.clear()

    @property
    def _last_gen(self) -> Dict[int, GenerationRecord]:
        """The per-block history map, with pending batches folded in."""
        if self._pending_closed:
            self._flush_closed()
        return self._last_gen_map

    # -- miss-time queries (Section 4 correlations) ---------------------------

    def last_generation(self, block_addr: int) -> Optional[GenerationRecord]:
        """The block's most recent closed generation, if any.

        At a miss to ``block_addr``, this is "the last generation of the
        cache line that suffers the miss": its live time, dead time, and
        (via ``now - start``) the reload interval the paper's conflict
        predictors consume.
        """
        if self._pending_closed:
            self._flush_closed()
        return self._last_gen_map.get(block_addr)

    def reload_interval_at(self, block_addr: int, now: int) -> Optional[int]:
        """Reload interval if the block were refetched at *now*."""
        last = self.last_generation(block_addr)
        return None if last is None else now - last.start
