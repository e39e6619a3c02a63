"""Tests for the simulator's prefetch engine integration."""

import pytest

from repro.common.config import paper_machine
from repro.common.errors import SimulationError
from repro.common.types import AccessOutcome
from repro.core.prefetch.stride import StridePrefetchPolicy
from repro.sim.simulator import make_prefetch_policy, simulate
from repro.traces.trace import TraceBuilder


def stream_trace(blocks=2048, reps=6, gap=4, stride=32):
    """Repeated sequential sweep over 2x the L1 capacity — the
    prefetch-friendliest workload with recurring (capacity) misses."""
    b = TraceBuilder(name="stream")
    for _ in range(reps):
        for i in range(blocks):
            b.add(i * stride, pc=0x100, gap=gap)
    return b.build()


class TestTimekeepingPrefetch:
    def test_prefetches_issue_and_arrive(self):
        r = simulate(stream_trace(), prefetcher="timekeeping")
        pf = r.prefetch
        assert pf.scheduled > 0
        assert pf.issued > 0
        assert pf.arrived > 0

    def test_prefetch_improves_streaming_ipc(self):
        t = stream_trace(blocks=2048, reps=4, gap=2)
        base = simulate(t, warmup=2048)
        tk = simulate(t, prefetcher="timekeeping", warmup=2048)
        assert tk.ipc > base.ipc

    def test_useful_prefetches_become_hits(self):
        t = stream_trace(blocks=2048, reps=4, gap=2)
        base = simulate(t, warmup=2048)
        tk = simulate(t, prefetcher="timekeeping", warmup=2048)
        assert tk.prefetch.useful > 0
        assert tk.l1_hits > base.l1_hits

    def test_address_accuracy_high_on_streams(self):
        t = stream_trace(blocks=2048, reps=5, gap=2)
        r = simulate(t, prefetcher="timekeeping", warmup=2048)
        assert r.prefetch.address_accuracy > 0.7
        assert r.prefetch.coverage > 0.5

    def test_no_prefetcher_no_stats(self):
        assert simulate(stream_trace(blocks=8, reps=2)).prefetch is None

    def test_table_bytes_reported(self):
        r = simulate(stream_trace(blocks=8, reps=2), prefetcher="timekeeping")
        assert r.prefetch.table_bytes == 8 * 1024


class TestDBCPPrefetch:
    def test_dbcp_runs_and_helps_streams(self):
        t = stream_trace(blocks=2048, reps=4, gap=2)
        base = simulate(t, warmup=2048)
        dbcp = simulate(t, prefetcher="dbcp", warmup=2048)
        assert dbcp.prefetch.issued > 0
        assert dbcp.ipc >= base.ipc

    def test_dbcp_table_is_2mb(self):
        r = simulate(stream_trace(blocks=8, reps=2), prefetcher="dbcp")
        assert r.prefetch.table_bytes == 2 * 1024 * 1024


class TestStridePrefetch:
    def test_stride_helps_single_pc_stream(self):
        # Degree 4 runs far enough ahead to beat the L2 latency at gap 8.
        t = stream_trace(blocks=4096, reps=2, gap=8)
        base = simulate(t, warmup=1024)
        policy = StridePrefetchPolicy(paper_machine().l1d, degree=4)
        st = simulate(t, prefetch_policy=policy, warmup=1024)
        assert st.prefetch.issued > 0
        assert st.prefetch.useful > 0
        assert st.ipc > base.ipc


class TestEngineLimits:
    def test_prefetch_hit_partial_latency(self):
        """A demand merging with an in-flight prefetch records the
        PREFETCH_HIT outcome."""
        t = stream_trace(blocks=2048, reps=4, gap=1)
        r = simulate(t, prefetcher="timekeeping", warmup=2048)
        # On a fast-moving stream some prefetches are caught in flight.
        assert r.outcomes[AccessOutcome.PREFETCH_HIT] >= 0  # smoke: key exists

    def test_policy_name_validation(self):
        with pytest.raises(SimulationError):
            simulate(stream_trace(blocks=4, reps=1), prefetcher="oracle")

    def test_policy_object_and_name_conflict(self):
        policy = make_prefetch_policy("stride", paper_machine())
        with pytest.raises(SimulationError):
            simulate(stream_trace(blocks=4, reps=1),
                     prefetcher="stride", prefetch_policy=policy)

    def test_make_prefetch_policy_names(self):
        m = paper_machine()
        for name in ("timekeeping", "dbcp", "stride"):
            assert make_prefetch_policy(name, m).name == name

    def test_timeliness_counts_consistent(self):
        t = stream_trace(blocks=2048, reps=5, gap=2)
        r = simulate(t, prefetcher="timekeeping", warmup=1024)
        counts = r.prefetch.timeliness
        assert counts.total == counts.total_correct + counts.total_wrong
        assert counts.total > 0


class TestFirstUseOnlyDeclaration:
    def test_timekeeping_declares_first_use_only(self):
        assert make_prefetch_policy("timekeeping", paper_machine()).on_hit_first_use_only
        assert not make_prefetch_policy("dbcp", paper_machine()).on_hit_first_use_only
        assert not StridePrefetchPolicy(paper_machine().l1d).on_hit_first_use_only

    @pytest.mark.parametrize("workload", ["gcc", "swim"])
    def test_skipping_other_hits_does_not_change_results(self, workload):
        """The engine skips ``on_hit`` on every hit but a prefetched
        block's first use; consulting the policy on all of them must
        give the same run."""
        from repro.traces.workloads import build_workload

        trace = build_workload(workload, length=8_000)
        gated = make_prefetch_policy("timekeeping", paper_machine())
        ungated = make_prefetch_policy("timekeeping", paper_machine())
        ungated.on_hit_first_use_only = False
        a = simulate(trace, prefetch_policy=gated, warmup=2_000)
        b = simulate(trace, prefetch_policy=ungated, warmup=2_000)
        assert a.prefetch.scheduled > 0
        assert a.to_dict() == b.to_dict()
