"""Dead-block predictors (paper Section 5.1).

Two ways to decide that the block in a frame will not be used again
this generation:

- :class:`DecayDeadBlockPredictor` (Section 5.1.1, Figure 14): declare
  the block dead once its idle time exceeds a threshold — the cache-
  decay mechanism.  High accuracy needs thresholds above ~5K cycles, at
  which point only ~50% of generations ever trigger and the prediction
  arrives too late to drive a timely prefetch.
- :class:`LiveTimeDeadBlockPredictor` (Section 5.1.2, Figure 16):
  predict the new generation's live time to equal the block's previous
  live time, and declare the block dead at ``scale`` times that value
  after the fill (the paper picks scale=2 from the ratio CDF of
  Figure 15: ~80% of live times are below twice the previous one).

Offline evaluation runs over the closed generations —
:class:`~repro.core.metrics.GenerationColumns` or a sequence of
:class:`~repro.core.generations.GenerationRecord` objects.  The ground
truth per generation: a *decay* prediction fires at the first idle
period >= threshold, and is correct iff that period is the dead time
(no access interval within the live time was that large).  A
*live-time* prediction exists only when the block survives past the
scaled prediction point and has a previous live time; it is correct
iff the real live time ended by then.  ``prediction_for`` states that
rule for one record; ``evaluate`` and the curves count it over whole
columns with numpy, to the same integer tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..generations import GenerationRecord
from ..metrics import NO_PREV_LIVE, GenerationColumns


@dataclass
class DeadBlockStats:
    """Accuracy/coverage tallies with the paper's §5.1 definitions.

    *Coverage* is the fraction of generations for which a prediction was
    made at all ("the percent of the blocks for which we do make a
    prediction"); *accuracy* is the fraction of made predictions that
    were right.
    """

    total: int = 0
    made: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        return self.correct / self.made if self.made else 1.0

    @property
    def coverage(self) -> float:
        return self.made / self.total if self.total else 0.0

    def record(self, outcome: Optional[bool]) -> None:
        """Tally one generation: None = no prediction, else correctness."""
        self.total += 1
        if outcome is not None:
            self.made += 1
            if outcome:
                self.correct += 1


class DecayDeadBlockPredictor:
    """Dead once idle for *threshold* cycles (cache-decay style)."""

    def __init__(self, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError(f"decay threshold must be positive, got {threshold}")
        self.threshold = threshold

    def prediction_for(self, record: GenerationRecord) -> Optional[bool]:
        """Did a prediction fire for this generation, and was it right?

        Returns None when no idle period ever reached the threshold
        (no prediction — uncovered), True/False otherwise.
        """
        fired_in_live = record.max_access_interval >= self.threshold
        fired_in_dead = record.dead_time >= self.threshold
        if not fired_in_live and not fired_in_dead:
            return None
        # The first crossing decides: an access interval reaching the
        # threshold happens before the dead time does.
        return not fired_in_live

    def evaluate(self, generations: Any) -> DeadBlockStats:
        """Tally accuracy/coverage over closed generations."""
        return decay_stats(generations, [self.threshold])[0]


class LiveTimeDeadBlockPredictor:
    """Dead at ``scale`` x previous live time after the fill."""

    #: The paper's heuristic: twice the previous live time.
    PAPER_SCALE = 2.0

    def __init__(self, scale: float = PAPER_SCALE) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale

    def predicted_death_offset(self, prev_live_time: int) -> int:
        """Cycles after the fill at which the block is declared dead.

        A previous live time of zero still yields a minimal wait of one
        cycle so the prediction point is after the fill itself.
        """
        return max(1, int(self.scale * prev_live_time))

    def prediction_for(self, record: GenerationRecord) -> Optional[bool]:
        """Outcome for one generation: None = uncovered, else correctness.

        Uncovered when the block has no previous live time (first
        generation) or was evicted before the prediction point.
        """
        if record.prev_live_time is None:
            return None
        point = self.predicted_death_offset(record.prev_live_time)
        if record.generation_time < point:
            return None  # evicted before the prediction could fire
        return record.live_time <= point

    def evaluate(self, generations: Any) -> DeadBlockStats:
        """Tally accuracy/coverage over closed generations.

        Bitwise-equal to :meth:`prediction_for` per record: the
        prediction point ``max(1, int(scale * prev))`` is the same
        binary64 product truncated toward zero.
        """
        columns = GenerationColumns.coerce(generations)
        prev = columns.prev_live_time
        live = columns.live_time
        point = np.maximum(1, (self.scale * prev).astype(np.int64))
        covered = (prev != NO_PREV_LIVE) & (live + columns.dead_time >= point)
        correct = covered & (live <= point)
        return DeadBlockStats(
            columns.size, int(np.count_nonzero(covered)), int(np.count_nonzero(correct))
        )


def decay_stats(generations: Any, thresholds: Sequence[int]) -> List[DeadBlockStats]:
    """Decay-predictor tallies at every threshold, from one sort per column.

    A prediction fires when ``max(max_access_interval, dead_time)``
    reaches the threshold, and is right when the dead time reaches it
    but the largest access interval does not — that is, the dead-time
    count minus the count of ``min(max_access_interval, dead_time)``
    reaching it.
    """
    if any(t <= 0 for t in thresholds):
        raise ValueError(f"decay thresholds must be positive, got {list(thresholds)}")
    columns = GenerationColumns.coerce(generations)
    max_iv = columns.max_access_interval
    dead = columns.dead_time
    total = columns.size
    cuts = np.asarray(thresholds)

    def reaching(values: np.ndarray) -> List[int]:
        return (total - np.searchsorted(np.sort(values), cuts, side="left")).tolist()

    made = reaching(np.maximum(max_iv, dead))
    dead_reach = reaching(dead)
    both_reach = reaching(np.minimum(max_iv, dead))
    return [DeadBlockStats(total, m, d - b)
            for m, d, b in zip(made, dead_reach, both_reach)]


def decay_curve(
    generations: Any,
    thresholds: Sequence[int],
) -> List[Tuple[int, float, float]]:
    """(threshold, accuracy, coverage) rows for Figure 14."""
    stats = decay_stats(generations, thresholds)
    return [(t, s.accuracy, s.coverage) for t, s in zip(thresholds, stats)]


def livetime_scale_curve(
    generations: Any,
    scales: Sequence[float],
) -> List[Tuple[float, float, float]]:
    """(scale, accuracy, coverage) rows — the x2 heuristic ablation."""
    columns = GenerationColumns.coerce(generations)
    rows: List[Tuple[float, float, float]] = []
    for scale in scales:
        stats = LiveTimeDeadBlockPredictor(scale).evaluate(columns)
        rows.append((scale, stats.accuracy, stats.coverage))
    return rows


#: Figure 14's x-axis: idle-time thresholds 40..5120 cycles, doubling.
FIG14_THRESHOLDS: Tuple[int, ...] = tuple(40 * (1 << i) for i in range(8))
