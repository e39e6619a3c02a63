"""Conflict-miss predictors (paper Section 4.1).

Three predictors, all keyed on the metrics of the *previous* generation
of the block that misses:

- :class:`ReloadIntervalConflictPredictor` — conflict if the reload
  interval is below a threshold (paper's natural breakpoint: 16K
  cycles; near-perfect accuracy up to there, ~85% coverage).  Reload
  intervals are an L2-side quantity (the block's access interval one
  level down), making this predictor natural to implement near the L2.
- :class:`DeadTimeConflictPredictor` — conflict if the last dead time
  was short (L1-side; the basis of the victim filter, threshold 1K).
- :class:`ZeroLiveTimeConflictPredictor` — conflict if the last live
  time was zero (a single "re-reference bit" per line; high accuracy,
  ~30% coverage, no knob).

Offline evaluation helpers sweep thresholds over the miss correlations
a simulation collected — :class:`~repro.core.metrics.CorrelationColumns`
or a sequence of :class:`~repro.core.metrics.MissCorrelation` records —
producing the accuracy/coverage curves of Figures 8 and 10 and the
per-benchmark bars of Figure 11.  They count with numpy: a threshold
sweep sorts each class's metric values once and reads every
threshold's tallies off one ``searchsorted``, and the tallies are the
same integers :meth:`BinaryPredictor.evaluate` would count one sample
at a time, so every accuracy and coverage is the same float.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from ...common.types import MissClass
from ..metrics import CorrelationColumns
from .base import BinaryPredictor, PredictionStats, ThresholdPredictor


class ReloadIntervalConflictPredictor(ThresholdPredictor):
    """Conflict iff reload interval < threshold (default 16K cycles)."""

    #: The paper's chosen operating point: accuracy is stable and nearly
    #: perfect up to 16K cycles, where a clear drop makes a natural
    #: breakpoint.
    PAPER_THRESHOLD = 16_000

    def __init__(self, threshold: int = PAPER_THRESHOLD) -> None:
        super().__init__(threshold)


class DeadTimeConflictPredictor(ThresholdPredictor):
    """Conflict iff the last generation's dead time < threshold (1K)."""

    #: Matches the victim filter: a 2-bit 512-cycle counter value <= 1.
    PAPER_THRESHOLD = 1024

    def __init__(self, threshold: int = PAPER_THRESHOLD) -> None:
        super().__init__(threshold)


class ZeroLiveTimeConflictPredictor(BinaryPredictor):
    """Conflict iff the last generation was never re-referenced.

    Hardware cost is one re-reference bit per L1 line.  No threshold to
    tune — the paper includes it to show how different metrics classify
    the same behavior.
    """

    def predict(self, value: int) -> bool:
        return value == 0


#: Metric name -> the correlation column it reads.
_METRIC_COLUMN = {
    "reload": "reload_interval",
    "dead": "last_dead_time",
    "live": "last_live_time",
}


def _split(correlations: Any, metric: str) -> Tuple[np.ndarray, np.ndarray]:
    """*metric*'s values for conflict and for non-conflict misses.

    Cold misses carry no previous generation and never appear in the
    correlations.
    """
    columns = CorrelationColumns.coerce(correlations)
    values = getattr(columns, _METRIC_COLUMN[metric])
    is_conflict = columns.miss_class == int(MissClass.CONFLICT)
    return values[is_conflict], values[~is_conflict]


def threshold_stats(
    correlations: Any,
    metric: str,
    thresholds: Sequence[int],
) -> List[PredictionStats]:
    """Tallies of "conflict iff *metric* < threshold" at every threshold.

    Bitwise-equal to ``ThresholdPredictor(t).evaluate(samples)`` per
    threshold: a value below *t* is a positive prediction, so each
    class's count below *t* is one ``searchsorted`` into its sorted
    values.
    """
    if any(t < 0 for t in thresholds):
        raise ValueError(f"thresholds must be non-negative, got {list(thresholds)}")
    conflicts, others = _split(correlations, metric)
    conflicts = np.sort(conflicts)
    others = np.sort(others)
    cuts = np.asarray(thresholds)
    tp = np.searchsorted(conflicts, cuts, side="left").tolist()
    fp = np.searchsorted(others, cuts, side="left").tolist()
    n_conflict = len(conflicts)
    n_other = len(others)
    return [PredictionStats(t, f, n_conflict - t, n_other - f) for t, f in zip(tp, fp)]


def evaluate_reload_predictor(
    correlations: Any,
    threshold: int = ReloadIntervalConflictPredictor.PAPER_THRESHOLD,
) -> PredictionStats:
    """Accuracy/coverage of the reload-interval predictor at one threshold."""
    return threshold_stats(correlations, "reload", [threshold])[0]


def evaluate_dead_time_predictor(
    correlations: Any,
    threshold: int = DeadTimeConflictPredictor.PAPER_THRESHOLD,
) -> PredictionStats:
    """Accuracy/coverage of the dead-time predictor at one threshold."""
    return threshold_stats(correlations, "dead", [threshold])[0]


def evaluate_zero_live_predictor(correlations: Any) -> PredictionStats:
    """Accuracy/coverage of the zero-live-time predictor (Figure 11)."""
    conflicts, others = _split(correlations, "live")
    tp = int(np.count_nonzero(conflicts == 0))
    fp = int(np.count_nonzero(others == 0))
    return PredictionStats(tp, fp, len(conflicts) - tp, len(others) - fp)


def accuracy_coverage_curve(
    correlations: Any,
    metric: str,
    thresholds: Sequence[int],
) -> List[Tuple[int, float, float]]:
    """Sweep thresholds; returns (threshold, accuracy, coverage) rows.

    *metric* is ``"reload"`` (Figure 8, x in cycles) or ``"dead"``
    (Figure 10).  Every threshold comes from one sort per class.
    """
    stats = threshold_stats(correlations, metric, thresholds)
    return [(t, s.accuracy, s.coverage) for t, s in zip(thresholds, stats)]


#: Figure 8's x-axis: 1K..512K cycles, doubling.
FIG8_THRESHOLDS: Tuple[int, ...] = tuple(1000 * (1 << i) for i in range(10))
#: Figure 10's x-axis: 100..51200 cycles, doubling.
FIG10_THRESHOLDS: Tuple[int, ...] = tuple(100 * (1 << i) for i in range(10))
