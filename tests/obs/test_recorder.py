"""Flight recorder: bitwise inertness, ring bounds, Chrome-trace export."""

import pytest

from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    current_recorder,
)
from repro.obs.tracing import validate_chrome_trace
from repro.sim.simulator import make_simulator
from repro.traces.workloads import build_workload

LENGTH = 4_000
CONFIGS = [
    {},
    {"victim_filter": "timekeeping"},
    {"decay_interval": 2_000},
    {"prefetcher": "timekeeping"},
]


def _run(config, trace, engine="batch"):
    sim = make_simulator(ipa=6.0, collect_metrics=True, **config)
    result = sim.run(trace, warmup=500, engine=engine)
    return sim, result


class TestAmbientStack:
    def test_default_is_disarmed_null(self):
        assert current_recorder() is NULL_RECORDER
        assert NULL_RECORDER.armed is False

    def test_context_installs_and_restores(self):
        rec = FlightRecorder()
        with rec:
            assert current_recorder() is rec
            assert rec.armed
        assert current_recorder() is NULL_RECORDER


class TestBitwiseInert:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=["base", "victim_tk", "decay", "pf_tk"])
    def test_recorded_run_matches_plain_run(self, config):
        trace = build_workload("gcc", length=LENGTH, seed=7)
        _, plain = _run(config, trace)
        with FlightRecorder() as rec:
            sim, recorded = _run(config, trace)
        assert recorded.to_dict(include_metrics=True) == \
            plain.to_dict(include_metrics=True)
        assert rec.summary()["gen"] > 0

    def test_recorder_forces_scalar_engine(self):
        trace = build_workload("gcc", length=LENGTH, seed=7)
        sim, _ = _run({}, trace, engine="batch")
        assert sim.engine_used == "batch"
        with FlightRecorder():
            sim, _ = _run({}, trace, engine="batch")
        assert sim.engine_used == "scalar"
        assert "flight recorder" in sim.batch_fallback

    def test_disarmed_run_does_not_touch_a_stale_recorder(self):
        # A recorder left over from an earlier run must not capture a
        # run that started outside its context.
        trace = build_workload("gcc", length=LENGTH, seed=7)
        with FlightRecorder() as rec:
            pass
        before = rec.summary().get("gen", 0)
        _run({}, trace)
        assert rec.summary().get("gen", 0) == before


class TestConsumerRule:
    """An armed recorder is a generation consumer on its own: without a
    metrics bank it must still see every closed generation."""

    @pytest.mark.parametrize(
        "config",
        [{"victim_filter": "timekeeping"}, {"prefetcher": "timekeeping"}],
        ids=["victim_tk", "pf_tk"],
    )
    def test_recorder_without_metrics_sees_every_generation(self, config):
        trace = build_workload("gcc", length=LENGTH, seed=7)
        with_metrics = make_simulator(ipa=6.0, collect_metrics=True, **config)
        with_metrics.run(trace)
        with FlightRecorder() as rec:
            sim = make_simulator(ipa=6.0, **config)
            sim.run(trace)
        assert sim.metrics is None
        assert rec.dropped == 0
        total = with_metrics.metrics.total_generations
        assert total > 0
        assert rec.summary()["gen"] == total
        assert sim.generations.closed_generations == total


class TestRingBuffer:
    def test_capacity_bounds_memory_and_counts_drops(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.on_victim_decision(i, True, now=i)
        assert len(rec.events) == 8
        assert rec.dropped == 12
        assert rec.summary()["dropped"] == 12
        assert rec.summary()["capacity"] == 8

    def test_warmup_reset_recorded(self):
        trace = build_workload("gcc", length=LENGTH, seed=7)
        with FlightRecorder() as rec:
            _run({}, trace)
        assert rec.summary().get("reset", 0) == 1


class TestChromeExport:
    def test_trace_is_valid_and_carries_generations(self):
        trace = build_workload("gcc", length=LENGTH, seed=7)
        with FlightRecorder() as rec:
            _run({"decay_interval": 2_000, "victim_filter": "timekeeping"},
                 trace)
        chrome = rec.to_chrome_trace()
        obj = chrome.to_json()
        assert validate_chrome_trace(obj) == []
        names = {e.get("name") for e in obj["traceEvents"]}
        assert any(str(n).startswith("gen 0x") for n in names)
        assert "warmup reset" in names

    def test_empty_recorder_exports_empty_valid_trace(self):
        chrome = FlightRecorder().to_chrome_trace()
        assert validate_chrome_trace(chrome.to_json()) == []
