"""Microbenchmarks of the simulator substrate itself.

Not a paper figure: guards the throughput of the hot paths so harness
runtimes stay predictable (simulation steps, classifier updates,
correlation-table traffic).
"""

from repro.classify.three_c import ThreeCClassifier
from repro.core.prefetch.correlation import CorrelationTable
from repro.sim.simulator import MemorySimulator, make_simulator
from repro.traces.workloads import build_workload


def test_perf_simulator_throughput(benchmark):
    trace = build_workload("gcc", length=20_000)

    def run():
        return MemorySimulator(ipa=6.0, collect_metrics=True).run(trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.accesses == 20_000


def test_perf_simulator_throughput_scalar(benchmark):
    """The forced-scalar loop — the fallback path every non-batchable
    configuration (prefetch, victim, decay) still runs through."""
    trace = build_workload("gcc", length=20_000)

    def run():
        return MemorySimulator(ipa=6.0, collect_metrics=True).run(
            trace, engine="scalar"
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.accesses == 20_000


def test_perf_simulator_with_prefetch(benchmark):
    trace = build_workload("swim", length=20_000)

    def run():
        from repro.sim.simulator import simulate
        return simulate(trace, ipa=3.0, prefetcher="timekeeping")

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.prefetch.issued > 0


def test_perf_scalar_victim(benchmark):
    """Timekeeping victim filter at the paper config (no metrics bank,
    so generation bookkeeping is off) — always the scalar loop."""
    trace = build_workload("gcc", length=20_000)

    def run():
        return make_simulator(ipa=6.0, victim_filter="timekeeping").run(trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.victim.fills > 0


def test_perf_scalar_prefetch(benchmark):
    """Timekeeping prefetcher at the paper config (no metrics bank)."""
    trace = build_workload("gcc", length=20_000)

    def run():
        return make_simulator(ipa=6.0, prefetcher="timekeeping").run(trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.prefetch.issued > 0


def test_perf_scalar_dbcp(benchmark):
    """DBCP baseline prefetcher at the paper config (no metrics bank)."""
    trace = build_workload("gcc", length=20_000)

    def run():
        return make_simulator(ipa=6.0, prefetcher="dbcp").run(trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    # DBCP issues no prefetches on gcc within 20k accesses: the probe
    # times its table and policy hooks on the scalar loop.
    assert result.prefetch.predictor_lookups > 0


def test_perf_classifier(benchmark):
    blocks = list(range(4096)) * 3

    def run():
        c = ThreeCClassifier(1024)
        for b in blocks:
            c.classify_miss(b)
            c.record_access(b)
        return c

    c = benchmark.pedantic(run, rounds=3, iterations=1)
    assert c.counts.total == len(blocks)


def test_perf_correlation_table(benchmark):
    table = CorrelationTable()

    def run():
        for i in range(10_000):
            table.update(i & 63, (i + 1) & 63, i & 1023, (i + 2) & 63, i & 31)
            table.lookup(i & 63, (i + 1) & 63, i & 1023)
        return table

    benchmark.pedantic(run, rounds=3, iterations=1)
    assert table.updates >= 10_000
