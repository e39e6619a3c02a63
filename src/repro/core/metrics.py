"""Metric collectors for the paper's characterization figures.

:class:`TimekeepingMetrics` accumulates, during one simulation run:

- live-time / dead-time histograms (Figure 4) and access-interval /
  reload-interval histograms (Figure 5), with the paper's bin widths
  (x100 cycles; reload intervals x1000);
- per-miss correlation records — the miss's 3C class together with the
  timekeeping metrics of the *previous* generation of the missing block
  (Figures 7, 9 splits and the predictor sweeps of Figures 8, 10, 11);
- per-generation records for dead-block predictor evaluation
  (Figures 14, 16), which also yield the consecutive live-time pairs of
  Figure 15.

The collectors store raw integers; binning to the paper's axes happens
at read time so one run feeds many figures.  The per-generation and
per-miss records live in a columnar *metric bank*: parallel int64
columns (:class:`GenerationColumns`, :class:`CorrelationColumns`) that
the figure evaluators read with numpy.  The record-object lists
(:attr:`TimekeepingMetrics.generations` and friends) are views built
from those columns on demand, for tests, examples and ad-hoc analysis.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..common.stats import Histogram
from ..common.types import MissClass
from .generations import GenerationRecord

#: Paper figure axes: 100 bins of 100 cycles (+overflow) for live/dead
#: time and access interval; 100 bins of 1000 cycles for reload interval.
TIME_BIN = 100
RELOAD_BIN = 1000
NUM_BINS = 100

#: ``prev_live_time`` column value of a generation with no predecessor
#: (the record field is ``None``; serialized rows carry ``null``).
NO_PREV_LIVE = -1

#: int value -> member, for materializing correlation columns.
_MISS_CLASS_BY_VALUE = {int(m): m for m in MissClass}
_MISS_CLASS_NAME = {int(m): m.name for m in MissClass}
_MISS_CLASS_VALUE = {m.name: int(m) for m in MissClass}


def _int_columns(rows: Sequence[Sequence[Any]], fields: Iterable[int]) -> List[np.ndarray]:
    """The int64 column of each of *fields* (row positions) in *rows*."""
    return [np.array(list(map(itemgetter(i), rows)), dtype=np.int64) for i in fields]


class MissCorrelation:
    """A non-cold miss joined with its block's previous generation.

    A view type: a metric bank stores correlations as columns and
    builds these only when :attr:`TimekeepingMetrics.miss_correlations`
    is read.
    """

    __slots__ = ("miss_class", "reload_interval", "last_dead_time", "last_live_time")

    def __init__(
        self,
        miss_class: MissClass,
        reload_interval: int,
        last_dead_time: int,
        last_live_time: int,
    ) -> None:
        self.miss_class = miss_class
        self.reload_interval = reload_interval
        self.last_dead_time = last_dead_time
        self.last_live_time = last_live_time

    def __repr__(self) -> str:
        return (
            f"MissCorrelation({self.miss_class}, reload={self.reload_interval}, "
            f"dead={self.last_dead_time}, live={self.last_live_time})"
        )


class GenerationColumns(NamedTuple):
    """Closed generations as parallel int64 columns, in eviction order.

    The field order is the serialized row order.  ``prev_live_time`` is
    :data:`NO_PREV_LIVE` for a block's first generation.
    """

    block_addr: np.ndarray
    start: np.ndarray
    live_time: np.ndarray
    dead_time: np.ndarray
    hit_count: np.ndarray
    max_access_interval: np.ndarray
    prev_live_time: np.ndarray

    @property
    def size(self) -> int:
        """Number of generations."""
        return len(self.block_addr)

    @classmethod
    def from_records(cls, records: Iterable[GenerationRecord]) -> "GenerationColumns":
        """Columns of a :class:`GenerationRecord` sequence."""
        return cls.from_rows([
            (g.block_addr, g.start, g.live_time, g.dead_time, g.hit_count,
             g.max_access_interval, g.prev_live_time)
            for g in records
        ])

    @classmethod
    def coerce(cls, data: Any) -> "GenerationColumns":
        """*data* itself when it is columns, else the columns of its records."""
        return data if isinstance(data, cls) else cls.from_records(data)

    @classmethod
    def concat(cls, parts: Iterable["GenerationColumns"]) -> "GenerationColumns":
        """One bank's worth of columns from several, in order."""
        parts = list(parts)
        if not parts:
            return cls.from_records(())
        return cls(*(np.concatenate(c) for c in zip(*parts)))

    def live_time_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(prev_live_time, live_time)`` of the generations with history."""
        has_prev = self.prev_live_time != NO_PREV_LIVE
        return self.prev_live_time[has_prev], self.live_time[has_prev]

    def live_time_ratios(self) -> np.ndarray:
        """current/previous live-time ratios (Figure 15 bottom), float64.

        Zero live times are mapped to one cycle so the ratio stays
        finite; the paper's 16-cycle counter resolution makes true zeros
        indistinguishable from <16 anyway.  Each ratio is the same
        binary64 value as ``max(cur, 1) / max(prev, 1)`` on Python ints.
        """
        prev, cur = self.live_time_pairs()
        return np.maximum(cur, 1) / np.maximum(prev, 1)

    def _fields_as_lists(self) -> List[list]:
        """Plain-int column lists, ``None`` for a missing previous live time."""
        out = [c.tolist() for c in self]
        prev = out[6]
        for i in np.flatnonzero(self.prev_live_time == NO_PREV_LIVE).tolist():
            prev[i] = None
        return out

    def records(self) -> List[GenerationRecord]:
        """The generations as :class:`GenerationRecord` objects."""
        return list(map(GenerationRecord, *self._fields_as_lists()))

    def rows(self) -> List[list]:
        """Serialized rows: one list per generation, ``None`` for no history."""
        return list(map(list, zip(*self._fields_as_lists())))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "GenerationColumns":
        """Inverse of :meth:`rows`."""
        prev = [NO_PREV_LIVE if p is None else p for p in map(itemgetter(6), rows)]
        return cls(*_int_columns(rows, range(6)), np.array(prev, dtype=np.int64))


class CorrelationColumns(NamedTuple):
    """Non-cold miss correlations as parallel int64 columns, in miss order.

    ``miss_class`` holds :class:`MissClass` values; the field order is
    the serialized row order.
    """

    miss_class: np.ndarray
    reload_interval: np.ndarray
    last_dead_time: np.ndarray
    last_live_time: np.ndarray

    @property
    def size(self) -> int:
        """Number of correlated misses."""
        return len(self.miss_class)

    @classmethod
    def from_records(cls, records: Iterable[MissCorrelation]) -> "CorrelationColumns":
        """Columns of a :class:`MissCorrelation` sequence."""
        return cls.from_rows([
            (MissClass(c.miss_class).name, c.reload_interval, c.last_dead_time,
             c.last_live_time)
            for c in records
        ])

    @classmethod
    def coerce(cls, data: Any) -> "CorrelationColumns":
        """*data* itself when it is columns, else the columns of its records."""
        return data if isinstance(data, cls) else cls.from_records(data)

    @classmethod
    def concat(cls, parts: Iterable["CorrelationColumns"]) -> "CorrelationColumns":
        """One bank's worth of columns from several, in order."""
        parts = list(parts)
        if not parts:
            return cls.from_records(())
        return cls(*(np.concatenate(c) for c in zip(*parts)))

    def records(self) -> List[MissCorrelation]:
        """The misses as :class:`MissCorrelation` objects."""
        return list(map(
            MissCorrelation,
            map(_MISS_CLASS_BY_VALUE.__getitem__, self.miss_class.tolist()),
            *(c.tolist() for c in self[1:]),
        ))

    def rows(self) -> List[list]:
        """Serialized rows: ``[class name, reload, dead, live]`` per miss."""
        names = map(_MISS_CLASS_NAME.__getitem__, self.miss_class.tolist())
        return list(map(list, zip(names, *(c.tolist() for c in self[1:]))))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "CorrelationColumns":
        """Inverse of :meth:`rows`."""
        classes = list(map(_MISS_CLASS_VALUE.__getitem__, map(itemgetter(0), rows)))
        return cls(np.array(classes, dtype=np.int64), *_int_columns(rows, range(1, 4)))


class _ColumnBank:
    """Parallel int64 columns, fed row by row or a chunk at a time.

    Rows appended to :attr:`rows` (one plain list per column) since the
    last chunk are sealed into a chunk before the next one lands, so
    chunk order is feed order; the chunks are concatenated on the first
    read and kept that way.
    """

    __slots__ = ("rows", "_chunks")

    def __init__(self, width: int) -> None:
        self.rows: Tuple[List[int], ...] = tuple([] for _ in range(width))
        self._chunks: List[Tuple[np.ndarray, ...]] = []

    def add_chunk(self, columns: Sequence[Any]) -> None:
        """Append parallel columns (int arrays or lists) after every row so far."""
        self._seal()
        self._chunks.append(tuple(np.asarray(c, dtype=np.int64) for c in columns))

    def _seal(self) -> None:
        if self.rows[0]:
            self._chunks.append(tuple(np.array(c, dtype=np.int64) for c in self.rows))
            for column in self.rows:
                column.clear()

    def columns(self) -> Tuple[np.ndarray, ...]:
        """Every row so far as one int64 array per column."""
        self._seal()
        chunks = self._chunks
        if len(chunks) != 1:
            if chunks:
                merged = tuple(np.concatenate(c) for c in zip(*chunks))
            else:
                merged = tuple(np.empty(0, dtype=np.int64) for _ in self.rows)
            self._chunks = [merged]
        return self._chunks[0]


class TimekeepingMetrics:
    """Accumulates every timekeeping statistic the paper reports."""

    def __init__(self) -> None:
        self.live_time = Histogram(TIME_BIN, NUM_BINS)
        self.dead_time = Histogram(TIME_BIN, NUM_BINS)
        self.access_interval = Histogram(TIME_BIN, NUM_BINS)
        self.reload_interval = Histogram(RELOAD_BIN, NUM_BINS)
        # Split histograms by miss type (Figures 7 and 9).  Keyed by the
        # *next* miss's class, as the paper correlates the metrics of a
        # block's last generation with the type of its next miss.
        self.reload_by_class = {
            MissClass.CONFLICT: Histogram(RELOAD_BIN, NUM_BINS),
            MissClass.CAPACITY: Histogram(RELOAD_BIN, NUM_BINS),
        }
        self.dead_by_class = {
            MissClass.CONFLICT: Histogram(TIME_BIN, NUM_BINS),
            MissClass.CAPACITY: Histogram(TIME_BIN, NUM_BINS),
        }
        self.live_by_class = {
            MissClass.CONFLICT: Histogram(TIME_BIN, NUM_BINS),
            MissClass.CAPACITY: Histogram(TIME_BIN, NUM_BINS),
        }
        #: Closed generations (read via :attr:`generation_columns`).
        self._generations = _ColumnBank(len(GenerationColumns._fields))
        #: Non-cold miss correlations (read via :attr:`correlation_columns`).
        self._correlations = _ColumnBank(len(CorrelationColumns._fields))
        self.zero_live_generations = 0
        self.total_generations = 0

    # -- event feed ----------------------------------------------------------

    def on_generation(self, record: GenerationRecord) -> None:
        """Consume a closed generation (GenerationTracker callback).

        The two histogram updates are written out inline (rather than
        through :meth:`Histogram.add`): this callback fires on every
        eviction and is the hottest metrics path.  Live and dead times
        are non-negative by construction, so the range check of
        ``Histogram.add`` is not needed here.
        """
        self.total_generations += 1
        lt = record.live_time
        dt = record.dead_time
        h = self.live_time
        idx = lt // h.bin_width
        if idx >= h.num_bins:
            h.overflow += 1
        else:
            h.counts[idx] += 1
        h.total += 1
        h._sum += lt
        h = self.dead_time
        idx = dt // h.bin_width
        if idx >= h.num_bins:
            h.overflow += 1
        else:
            h.counts[idx] += 1
        h.total += 1
        h._sum += dt
        if lt == 0:
            self.zero_live_generations += 1
        block, start, live, dead, hits, max_iv, prev = self._generations.rows
        block.append(record.block_addr)
        start.append(record.start)
        live.append(lt)
        dead.append(dt)
        hits.append(record.hit_count)
        max_iv.append(record.max_access_interval)
        prev_live = record.prev_live_time
        prev.append(NO_PREV_LIVE if prev_live is None else prev_live)

    def on_access_interval(self, interval: int) -> None:
        """Consume one within-live-time access interval."""
        self.access_interval.add(interval)

    def on_miss_correlation(
        self,
        miss_class: MissClass,
        reload_interval: int,
        last_dead_time: int,
        last_live_time: int,
    ) -> None:
        """Consume one non-cold miss with its previous-generation metrics."""
        self.reload_interval.add(reload_interval)
        if miss_class in self.reload_by_class:
            self.reload_by_class[miss_class].add(reload_interval)
            self.dead_by_class[miss_class].add(last_dead_time)
            self.live_by_class[miss_class].add(last_live_time)
        classes, reloads, deads, lives = self._correlations.rows
        classes.append(int(miss_class))
        reloads.append(reload_interval)
        deads.append(last_dead_time)
        lives.append(last_live_time)

    def bulk_generations(self, columns: Sequence[np.ndarray]) -> None:
        """Consume a batch of closed generations at once.

        Equivalent to calling :meth:`on_generation` per generation in
        order: histogram counts are commutative integers, and the float
        running sums go through :meth:`Histogram.add_many` (bitwise-
        identical to sequential adds within binary64's exact-integer
        range).  *columns* are the seven parallel int64 arrays of
        :class:`GenerationColumns`, in eviction order, with
        :data:`NO_PREV_LIVE` for a missing previous live time; the bank
        keeps them as they are.
        """
        live_arr = np.asarray(columns[2], dtype=np.int64)
        self.total_generations += len(live_arr)
        self.live_time.add_many(live_arr)
        self.dead_time.add_many(columns[3])
        self.zero_live_generations += int((live_arr == 0).sum())
        self._generations.add_chunk(columns)

    def bulk_correlations(
        self, classes, reload_intervals, dead_times, live_times
    ) -> None:
        """Consume a batch of non-cold miss correlations at once.

        Equivalent to :meth:`on_miss_correlation` per row in miss order:
        the arguments are parallel int columns (``classes`` as
        :class:`MissClass` values) feeding the split histograms in bulk;
        the bank keeps the columns as they are.
        """
        cls_arr = np.asarray(classes, dtype=np.int64)
        reload_arr = np.asarray(reload_intervals, dtype=np.int64)
        dead_arr = np.asarray(dead_times, dtype=np.int64)
        live_arr = np.asarray(live_times, dtype=np.int64)
        self.reload_interval.add_many(reload_arr)
        for miss_class in (MissClass.CONFLICT, MissClass.CAPACITY):
            mask = cls_arr == int(miss_class)
            if mask.any():
                self.reload_by_class[miss_class].add_many(reload_arr[mask])
                self.dead_by_class[miss_class].add_many(dead_arr[mask])
                self.live_by_class[miss_class].add_many(live_arr[mask])
        self._correlations.add_chunk((cls_arr, reload_arr, dead_arr, live_arr))

    # -- the metric bank -------------------------------------------------------

    @property
    def generation_columns(self) -> GenerationColumns:
        """Every closed generation, as int64 columns in eviction order."""
        return GenerationColumns(*self._generations.columns())

    @property
    def correlation_columns(self) -> CorrelationColumns:
        """Every non-cold miss correlation, as int64 columns in miss order."""
        return CorrelationColumns(*self._correlations.columns())

    # -- record views (built on demand; the figures read the columns) ---------

    @property
    def miss_correlations(self) -> List[MissCorrelation]:
        """Per-miss correlation records, in miss order (a fresh list per read)."""
        return self.correlation_columns.records()

    @property
    def generations(self) -> List[GenerationRecord]:
        """Closed generation records, in eviction order (a fresh list per read)."""
        return self.generation_columns.records()

    @property
    def live_time_pairs(self) -> List[Tuple[int, int]]:
        """(prev_live_time, live_time) pairs, in eviction order."""
        prev, cur = self.generation_columns.live_time_pairs()
        return list(zip(prev.tolist(), cur.tolist()))

    # -- derived views ---------------------------------------------------------

    def live_time_ratios(self) -> np.ndarray:
        """current/previous live-time ratios (Figure 15 bottom).

        See :meth:`GenerationColumns.live_time_ratios`.
        """
        return self.generation_columns.live_time_ratios()

    def zero_live_fraction(self) -> float:
        """Fraction of generations with zero live time."""
        if self.total_generations == 0:
            return 0.0
        return self.zero_live_generations / self.total_generations

    def fraction_live_below(self, cycles: int) -> float:
        """Fraction of live times below *cycles* (paper quotes 58% < 100)."""
        return self.live_time.fraction_below(cycles)

    def fraction_dead_below(self, cycles: int) -> float:
        """Fraction of dead times below *cycles* (paper quotes 31% < 100)."""
        return self.dead_time.fraction_below(cycles)

    # -- serialization (checkpoint store) --------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-able dict; the exact inverse of :meth:`from_dict`.

        Raw records serialize as compact integer rows (``None`` marks a
        missing ``prev_live_time``) so the figure pipeline can rebuild
        every characterization figure from the checkpoint store alone,
        byte-identically to a fresh in-memory run.  The live-time pairs
        are written out too, though they are a function of the
        generation rows.
        """
        generations = self.generation_columns
        prev, cur = generations.live_time_pairs()
        return {
            "live_time": self.live_time.to_dict(),
            "dead_time": self.dead_time.to_dict(),
            "access_interval": self.access_interval.to_dict(),
            "reload_interval": self.reload_interval.to_dict(),
            "reload_by_class": {
                k.name: h.to_dict() for k, h in self.reload_by_class.items()
            },
            "dead_by_class": {
                k.name: h.to_dict() for k, h in self.dead_by_class.items()
            },
            "live_by_class": {
                k.name: h.to_dict() for k, h in self.live_by_class.items()
            },
            "miss_correlations": self.correlation_columns.rows(),
            "live_time_pairs": list(map(list, zip(prev.tolist(), cur.tolist()))),
            "generations": generations.rows(),
            "zero_live_generations": self.zero_live_generations,
            "total_generations": self.total_generations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimekeepingMetrics":
        """Rebuild the collector state serialized by :meth:`to_dict`.

        Rows decode straight into columns; the stored live-time pairs
        are checked against the generations they derive from rather
        than decoded.
        """
        out = cls()
        out.live_time = Histogram.from_dict(data["live_time"])
        out.dead_time = Histogram.from_dict(data["dead_time"])
        out.access_interval = Histogram.from_dict(data["access_interval"])
        out.reload_interval = Histogram.from_dict(data["reload_interval"])
        out.reload_by_class = {
            MissClass[k]: Histogram.from_dict(h)
            for k, h in data["reload_by_class"].items()
        }
        out.dead_by_class = {
            MissClass[k]: Histogram.from_dict(h)
            for k, h in data["dead_by_class"].items()
        }
        out.live_by_class = {
            MissClass[k]: Histogram.from_dict(h)
            for k, h in data["live_by_class"].items()
        }
        generations = GenerationColumns.from_rows(data["generations"])
        with_history = int(np.count_nonzero(generations.prev_live_time != NO_PREV_LIVE))
        if len(data["live_time_pairs"]) != with_history:
            raise ValueError(
                f"{len(data['live_time_pairs'])} live-time pairs for "
                f"{with_history} generations with history"
            )
        out._generations.add_chunk(generations)
        out._correlations.add_chunk(CorrelationColumns.from_rows(data["miss_correlations"]))
        out.zero_live_generations = data["zero_live_generations"]
        out.total_generations = data["total_generations"]
        return out
