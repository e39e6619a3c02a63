"""Histogram and distribution utilities.

The paper's characterization figures (4, 5, 7, 9, 15) are histograms of
time durations with fixed-width bins (x100 or x1000 cycles) and a final
overflow bin, plus cumulative ratio distributions.  This module provides
the shared binning machinery, summary statistics, and geometric means
used throughout the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

#: Largest integer a binary64 float represents exactly; running sums at
#: or below this bound are identical whether accumulated one value at a
#: time or in bulk, which is what lets :meth:`Histogram.add_many` be
#: bitwise-equivalent to a loop of :meth:`Histogram.add` calls.
_EXACT_FLOAT_INT = 2 ** 53


class Histogram:
    """Fixed-bin-width histogram with an overflow bin (paper-figure style).

    ``bin_width`` cycles per bin, ``num_bins`` regular bins covering
    ``[0, bin_width * num_bins)``, plus one overflow bin (the paper's
    ">100" bar).  Matches the x-axes of Figures 4, 5, 7 and 9.

    A slotted plain class rather than a dataclass: :meth:`add` runs once
    per simulated access when metrics are on, so instance compactness
    and a short method body matter.
    """

    __slots__ = ("bin_width", "num_bins", "counts", "overflow", "total", "_sum")

    def __init__(self, bin_width: int, num_bins: int) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        self.bin_width = bin_width
        self.num_bins = num_bins
        self.counts: List[int] = [0] * num_bins
        self.overflow = 0
        self.total = 0
        self._sum = 0.0

    def __repr__(self) -> str:
        return (
            f"Histogram(bin_width={self.bin_width}, num_bins={self.num_bins}, "
            f"total={self.total})"
        )

    def add(self, value: float, weight: int = 1) -> None:
        """Record *value* (a duration in cycles)."""
        if value < 0:
            raise ValueError(f"histogram values must be non-negative, got {value}")
        idx = value // self.bin_width
        if idx >= self.num_bins:
            self.overflow += weight
        else:
            self.counts[idx] += weight
        self.total += weight
        self._sum += value * weight

    def extend(self, values: Iterable[float]) -> None:
        """Record every value in *values*."""
        for value in values:
            self.add(value)

    def add_many(self, values) -> None:
        """Record a batch of non-negative integer durations at once.

        Bitwise-equivalent to calling :meth:`add` on each value in
        order: counts are integers (always exact), and the float
        running sum of non-negative integers is exact as long as it
        stays at or below 2**53 — in that regime the bulk sum and the
        sequential sum are the same binary64 value.  When the bulk sum
        would leave the exact-integer range, the sum falls back to
        sequential accumulation so partial-sum rounding matches the
        scalar path.  *values* is any sequence accepted by
        ``np.asarray`` (the batch engine passes int64 arrays).
        """
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("add_many records integer durations; use add() for floats")
        arr = arr.astype(np.int64, copy=False)
        if arr.size == 0:
            return
        if arr.min() < 0:
            raise ValueError("histogram values must be non-negative")
        idx = np.minimum(arr // self.bin_width, self.num_bins)
        binned = np.bincount(idx, minlength=self.num_bins + 1)
        counts = self.counts
        for i in np.flatnonzero(binned[: self.num_bins]).tolist():
            counts[i] += int(binned[i])
        self.overflow += int(binned[self.num_bins])
        self.total += arr.size
        bulk = int(arr.sum(dtype=np.int64))
        if self._sum + bulk <= _EXACT_FLOAT_INT and self._sum == int(self._sum):
            self._sum += bulk
        else:  # pragma: no cover - exercised only by astronomical sums
            for value in arr.tolist():
                self._sum += value

    def fractions(self) -> List[float]:
        """Per-bin fractions including the overflow bin (sums to 1)."""
        if self.total == 0:
            return [0.0] * (self.num_bins + 1)
        return [c / self.total for c in self.counts] + [self.overflow / self.total]

    def fraction_below(self, threshold: float) -> float:
        """Fraction of recorded values strictly below *threshold*.

        *threshold* must be a multiple of ``bin_width`` (bin boundaries
        are the only exact cut points a binned histogram supports).
        """
        if threshold % self.bin_width != 0:
            raise ValueError(f"threshold {threshold} is not a multiple of bin width {self.bin_width}")
        upto = min(int(threshold // self.bin_width), self.num_bins)
        if self.total == 0:
            return 0.0
        return sum(self.counts[:upto]) / self.total

    @property
    def mean(self) -> float:
        """Mean of the recorded values (exact, not bin-quantized)."""
        return self._sum / self.total if self.total else 0.0

    def merged(self, other: "Histogram") -> "Histogram":
        """Return a new histogram combining self and *other* (same shape)."""
        if (self.bin_width, self.num_bins) != (other.bin_width, other.num_bins):
            raise ValueError("cannot merge histograms with different geometry")
        out = Histogram(self.bin_width, self.num_bins)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.overflow = self.overflow + other.overflow
        out.total = self.total + other.total
        out._sum = self._sum + other._sum
        return out

    # -- serialization (checkpoint store) ------------------------------------

    def to_dict(self) -> dict:
        """Serialize to a JSON-able dict; the exact inverse of :meth:`from_dict`.

        Counts are integers and the running sum is a binary64 float, so a
        JSON round-trip reproduces the histogram bit-for-bit (``json``
        serializes floats via ``repr``, which is lossless for binary64).
        """
        return {
            "bin_width": self.bin_width,
            "num_bins": self.num_bins,
            "counts": list(self.counts),
            "overflow": self.overflow,
            "total": self.total,
            "sum": self._sum,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild a histogram serialized by :meth:`to_dict`."""
        out = cls(data["bin_width"], data["num_bins"])
        out.counts = [int(c) for c in data["counts"]]
        out.overflow = data["overflow"]
        out.total = data["total"]
        out._sum = data["sum"]
        return out


@dataclass
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    median: float
    p90: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary` of *values* (empty input allowed)."""
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(values)
    n = len(ordered)
    return Summary(
        count=n,
        mean=sum(ordered) / n,
        median=ordered[n // 2],
        p90=ordered[min(n - 1, int(0.9 * n))],
        minimum=ordered[0],
        maximum=ordered[-1],
    )


def geometric_mean(values: Sequence[float], *, offset: float = 0.0) -> float:
    """Geometric mean, the paper's cross-benchmark aggregate.

    Speedup figures often contain values <= 0 (slowdowns expressed as
    negative percentages); pass ``offset=1.0`` to compute the geomean of
    ``1 + value`` and get back ``geomean - 1`` (standard practice for
    averaging relative improvements).
    """
    if not values:
        return 0.0
    shifted = [v + offset for v in values]
    if any(v <= 0 for v in shifted):
        raise ValueError("geometric mean requires positive values; consider a larger offset")
    log_sum = sum(math.log(v) for v in shifted)
    return math.exp(log_sum / len(shifted)) - offset


def ratio_cdf(ratios: Sequence[float], breakpoints: Sequence[float]) -> List[float]:
    """Cumulative fraction of *ratios* <= each breakpoint (paper Fig 15 bottom).

    Breakpoints must be increasing; values are compared inclusively.
    *ratios* is any array-like; one sort serves every breakpoint.
    """
    if list(breakpoints) != sorted(breakpoints):
        raise ValueError("breakpoints must be sorted ascending")
    ordered = np.sort(np.asarray(ratios, dtype=np.float64))
    n = len(ordered)
    if not n:
        return [0.0] * len(breakpoints)
    below = np.searchsorted(ordered, np.asarray(breakpoints, dtype=np.float64),
                            side="right")
    return [i / n for i in below.tolist()]


def abs_diff_histogram(
    pairs: Any,
    boundaries: Optional[Sequence[int]] = None,
) -> List[float]:
    """Fraction of consecutive-pair absolute differences per bucket.

    Used for paper Figure 15 (top): the distribution of
    ``|current - previous|`` over power-of-two buckets.  *pairs* is a
    sequence of ``(previous, current)`` pairs or an ``(n, 2)`` array;
    *boundaries* are the inclusive upper edges of each bucket; a final
    unbounded bucket is appended.
    """
    if boundaries is None:
        boundaries = [0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
    arr = np.asarray(pairs).reshape(-1, 2)
    total = len(arr)
    if total == 0:
        return [0.0] * (len(boundaries) + 1)
    diffs = np.abs(arr[:, 1] - arr[:, 0])
    # First edge >= diff, or len(boundaries) (the unbounded bucket).
    bucket = np.searchsorted(np.asarray(boundaries), diffs, side="left")
    counts = np.bincount(bucket, minlength=len(boundaries) + 1)
    return [c / total for c in counts.tolist()]
