"""Regression: drain turns must still give queued prefetches a slot.

The scalar hot loop first drains the events due by the access's cycle
and then runs an issue pass whenever prefetches are queued.  An earlier
draft drained events without a trailing issue pass, so a prefetch
parked behind a full MSHR file could sit queued indefinitely while
unrelated timers kept firing.  Every access now gives queued prefetches
exactly one issue opportunity, drain turn or not.
"""

from repro.common.config import paper_machine
from repro.core.prefetch.stride import StridePrefetchPolicy
from repro.sim.simulator import _FIRE, MemorySimulator
from repro.traces.trace import TraceBuilder


def _one_access_trace(gap=10):
    b = TraceBuilder(name="one")
    b.add(0x9000, gap=gap)
    return b.build()


def test_drain_turn_issues_prefetches():
    policy = StridePrefetchPolicy(paper_machine().l1d, degree=1)
    sim = MemorySimulator(prefetch_policy=policy)

    # A fired prediction parked in the queue, ready to issue.
    pending = sim.bookkeeper.scheduled(0, 0x40, 0, 0)
    sim.bookkeeper.fired(0)
    sim.prefetch_queue.push(pending)

    # An unrelated, already-cancelled fire event due before the first
    # access: its only effect is making the loop take the drain branch.
    orphan = sim.bookkeeper.scheduled(1, 0x80, 0, 2)
    sim.bookkeeper.cancel(1)
    sim.events.schedule(2, (_FIRE, orphan))

    sim.run(_one_access_trace(), engine="scalar")

    # The queued prefetch issued on the drain turn itself.
    assert sim._prefetch_issued == 1
    assert len(sim.prefetch_queue) == 0


def test_non_drain_turn_issues_prefetches():
    """No due events: the queued prefetch still issues."""
    policy = StridePrefetchPolicy(paper_machine().l1d, degree=1)
    sim = MemorySimulator(prefetch_policy=policy)
    pending = sim.bookkeeper.scheduled(0, 0x40, 0, 0)
    sim.bookkeeper.fired(0)
    sim.prefetch_queue.push(pending)

    sim.run(_one_access_trace(), engine="scalar")

    assert sim._prefetch_issued == 1
    assert len(sim.prefetch_queue) == 0
