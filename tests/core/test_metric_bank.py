"""The columnar metric bank and the numpy evaluators that read it.

Every vectorised curve must equal the per-sample rule it replaces
bit for bit (``==`` on floats), and a bank must serialize to the same
JSON bytes it was decoded from, whichever engine filled it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.stats import abs_diff_histogram, ratio_cdf
from repro.common.types import MissClass
from repro.core.generations import GenerationRecord
from repro.core.metrics import (
    NO_PREV_LIVE,
    CorrelationColumns,
    GenerationColumns,
    MissCorrelation,
    TimekeepingMetrics,
)
from repro.core.predictors.base import PredictionStats, ThresholdPredictor
from repro.core.predictors.conflict import (
    ZeroLiveTimeConflictPredictor,
    accuracy_coverage_curve,
    evaluate_dead_time_predictor,
    evaluate_reload_predictor,
    evaluate_zero_live_predictor,
)
from repro.core.predictors.deadblock import (
    DeadBlockStats,
    DecayDeadBlockPredictor,
    LiveTimeDeadBlockPredictor,
    decay_curve,
    livetime_scale_curve,
)
from repro.sim.results import SimulationResult
from repro.sim.sampling import simulate_sampled
from repro.sim.simulator import simulate
from repro.traces.workloads import build_workload

# Few distinct values, so samples tie with each other and with thresholds.
values = st.sampled_from([0, 1, 15, 16, 100, 999, 1000, 1024, 16_000, 70_000])
miss_classes = st.sampled_from([MissClass.CONFLICT, MissClass.CAPACITY])
correlations = st.lists(
    st.builds(MissCorrelation, miss_classes, values, values, values), max_size=40)
generations = st.lists(
    st.builds(GenerationRecord, st.integers(0, 50), values, values, values,
              st.integers(0, 5), values, st.none() | values),
    max_size=40)


def thresholds_for(data, samples, positive=False):
    """Thresholds mixing fresh values with values taken from *samples*."""
    pool = [v for v in samples if v > 0] if positive else list(samples)
    drawn = data.draw(st.lists(
        (st.sampled_from(pool) if pool else values) | values, max_size=8))
    return [t for t in drawn if t > 0] if positive else drawn


# -- per-sample oracles --------------------------------------------------------


def oracle_curve(records, attr, thresholds):
    samples = [(getattr(c, attr), c.miss_class == MissClass.CONFLICT)
               for c in records]
    rows = []
    for threshold in thresholds:
        stats = ThresholdPredictor(threshold).evaluate(samples)
        rows.append((threshold, stats.accuracy, stats.coverage))
    return rows


def oracle_deadblock(predictor, records):
    stats = DeadBlockStats()
    for record in records:
        stats.record(predictor.prediction_for(record))
    return stats


def oracle_abs_diff(pairs, boundaries):
    counts = [0] * (len(boundaries) + 1)
    for prev, cur in pairs:
        diff = abs(cur - prev)
        for i, edge in enumerate(boundaries):
            if diff <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return [c / len(pairs) for c in counts] if pairs else [0.0] * len(counts)


def oracle_ratio_cdf(ratios, breakpoints):
    n = len(ratios)
    return [sum(1 for r in ratios if r <= bp) / n if n else 0.0
            for bp in breakpoints]


# -- vectorised == oracle --------------------------------------------------------


class TestConflictCurves:
    @settings(max_examples=150)
    @given(correlations, st.sampled_from(["reload", "dead"]), st.data())
    def test_curve_equals_per_sample_loop(self, records, metric, data):
        attr = {"reload": "reload_interval", "dead": "last_dead_time"}[metric]
        thresholds = thresholds_for(data, [getattr(c, attr) for c in records])
        expected = oracle_curve(records, attr, thresholds)
        columns = CorrelationColumns.from_records(records)
        assert accuracy_coverage_curve(columns, metric, thresholds) == expected
        assert accuracy_coverage_curve(records, metric, thresholds) == expected

    @given(correlations)
    def test_single_threshold_helpers_equal_the_loop(self, records):
        reload_samples = [(c.reload_interval, c.miss_class == MissClass.CONFLICT)
                          for c in records]
        dead_samples = [(c.last_dead_time, c.miss_class == MissClass.CONFLICT)
                        for c in records]
        assert evaluate_reload_predictor(records, 1000) == \
            ThresholdPredictor(1000).evaluate(reload_samples)
        assert evaluate_dead_time_predictor(records) == \
            ThresholdPredictor(1024).evaluate(dead_samples)

    @given(correlations)
    def test_zero_live_equals_the_loop(self, records):
        samples = [(c.last_live_time, c.miss_class == MissClass.CONFLICT)
                   for c in records]
        expected = ZeroLiveTimeConflictPredictor().evaluate(samples)
        assert evaluate_zero_live_predictor(CorrelationColumns.from_records(records)) \
            == expected

    def test_empty_input(self):
        empty = CorrelationColumns.from_records([])
        assert accuracy_coverage_curve(empty, "reload", [0, 1000]) == \
            [(0, 1.0, 0.0), (1000, 1.0, 0.0)]
        assert evaluate_zero_live_predictor(empty) == PredictionStats()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            accuracy_coverage_curve([], "reload", [-1])


class TestDeadBlockCurves:
    @settings(max_examples=150)
    @given(generations, st.data())
    def test_decay_curve_equals_per_record_rule(self, records, data):
        thresholds = thresholds_for(
            data, [v for g in records for v in (g.dead_time, g.max_access_interval)],
            positive=True)
        expected = []
        for t in thresholds:
            stats = oracle_deadblock(DecayDeadBlockPredictor(t), records)
            expected.append((t, stats.accuracy, stats.coverage))
        assert decay_curve(GenerationColumns.from_records(records), thresholds) == expected
        assert decay_curve(records, thresholds) == expected

    @settings(max_examples=150)
    @given(generations, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3, 4.0]))
    def test_livetime_predictor_equals_per_record_rule(self, records, scale):
        predictor = LiveTimeDeadBlockPredictor(scale)
        expected = oracle_deadblock(predictor, records)
        assert predictor.evaluate(GenerationColumns.from_records(records)) == expected
        assert livetime_scale_curve(records, [scale]) == \
            [(scale, expected.accuracy, expected.coverage)]

    def test_missing_prev_live_time_is_uncovered(self):
        records = [GenerationRecord(1, 0, 10, 500, 1, 5, None),
                   GenerationRecord(1, 600, 10, 500, 1, 5, 10)]
        columns = GenerationColumns.from_records(records)
        assert columns.prev_live_time.tolist() == [NO_PREV_LIVE, 10]
        stats = LiveTimeDeadBlockPredictor().evaluate(columns)
        assert (stats.total, stats.made, stats.correct) == (2, 1, 1)

    def test_empty_input(self):
        empty = GenerationColumns.from_records([])
        assert decay_curve(empty, [40, 80]) == [(40, 1.0, 0.0), (80, 1.0, 0.0)]
        assert LiveTimeDeadBlockPredictor().evaluate(empty) == DeadBlockStats()


class TestFigure15Helpers:
    @given(generations)
    def test_pairs_and_ratios_equal_the_record_loop(self, records):
        columns = GenerationColumns.from_records(records)
        pairs = [(g.prev_live_time, g.live_time) for g in records
                 if g.prev_live_time is not None]
        prev, cur = columns.live_time_pairs()
        assert list(zip(prev.tolist(), cur.tolist())) == pairs
        ratios = [max(c, 1) / max(p, 1) for p, c in pairs]
        assert columns.live_time_ratios().tolist() == ratios

    @given(st.lists(st.tuples(values, values), max_size=40))
    def test_abs_diff_histogram_equals_the_loop(self, pairs):
        boundaries = [0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
        assert abs_diff_histogram(pairs) == oracle_abs_diff(pairs, boundaries)

    @given(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 70.0]),
                    max_size=40))
    def test_ratio_cdf_equals_the_loop(self, ratios):
        breakpoints = [0.25, 0.5, 1.0, 2.0, 4.0, 16.0]
        assert ratio_cdf(ratios, breakpoints) == oracle_ratio_cdf(ratios, breakpoints)


# -- the bank itself -------------------------------------------------------------


class TestColumnBank:
    def test_scalar_rows_and_chunks_keep_feed_order(self):
        m = TimekeepingMetrics()
        m.on_generation(GenerationRecord(1, 0, 5, 10, 1, 5, None))
        m.bulk_generations(([2, 3], [20, 30], [0, 7], [1, 2], [0, 1], [0, 7],
                            [NO_PREV_LIVE, 5]))
        m.on_generation(GenerationRecord(4, 40, 9, 3, 2, 4, 0))
        assert m.generation_columns.block_addr.tolist() == [1, 2, 3, 4]
        assert m.live_time_pairs == [(5, 7), (0, 9)]
        assert m.total_generations == 4
        assert m.zero_live_generations == 1

    def test_views_are_fresh_lists(self):
        m = TimekeepingMetrics()
        m.on_miss_correlation(MissClass.CONFLICT, 500, 200, 0)
        m.miss_correlations.clear()
        assert len(m.miss_correlations) == 1
        assert m.miss_correlations[0].miss_class is MissClass.CONFLICT

    def test_pairs_disagreeing_with_generations_rejected(self):
        m = TimekeepingMetrics()
        m.on_generation(GenerationRecord(1, 0, 5, 10, 1, 5, 3))
        data = m.to_dict()
        data["live_time_pairs"] = []
        with pytest.raises(ValueError, match="live-time pairs"):
            TimekeepingMetrics.from_dict(data)


def _base_result(engine_run):
    trace = build_workload("mcf", length=6000, seed=3)
    return engine_run(trace)


@pytest.mark.parametrize("engine_run", [
    pytest.param(lambda t: simulate(t, collect_metrics=True, warmup=1000,
                                    engine="batch"), id="batch"),
    pytest.param(lambda t: simulate(t, collect_metrics=True, warmup=1000,
                                    engine="scalar"), id="scalar"),
    pytest.param(lambda t: simulate_sampled(t, collect_metrics=True, warmup=1000),
                 id="sampled"),
])
def test_round_trip_is_byte_identical(engine_run):
    data = _base_result(engine_run).to_dict(include_metrics=True)
    assert data["metrics"]["generations"] and data["metrics"]["miss_correlations"]
    assert any(row[6] is None for row in data["metrics"]["generations"])
    text = json.dumps(data)
    again = SimulationResult.from_dict(json.loads(text)).to_dict(include_metrics=True)
    assert json.dumps(again) == text
