"""Regression: superseded prefetch arrivals must not drop newer MSHRs.

The prefetch-arrival step used to release the MSHR entry for the
arriving block *before* checking whether the arrival still owned its
pending prediction.  When a frame's timer re-arms and the new
prediction targets the same block, the stale arrival then freed the
MSHR entry of the *newer* in-flight fetch — so a later demand miss on
that block could no longer merge with it.  The fix releases only when
the resident entry's completion time says it belongs to this arrival.

The arrival is handled inside the scalar loop's event drain, so these
tests queue the stale arrival event and run one access past it.
"""

from repro.sim.simulator import _ARRIVE, MemorySimulator
from repro.traces.trace import TraceBuilder

BLOCK = 0x40
FRAME = 0


def _drain_arrival_at(sim, pending, when):
    """Queue *pending*'s arrival at cycle *when* and run one unrelated
    access (a different block) whose clock reaches it."""
    sim.events.schedule(when, (_ARRIVE, pending))
    b = TraceBuilder(name="one")
    b.add(0x9000, gap=when)
    sim.run(b.build(), engine="scalar")


def _superseded_arrival(sim):
    """Arm, fire, and issue a prediction, then supersede it with a
    newer one for the same frame and block.  Returns the stale pending."""
    stale = sim.bookkeeper.scheduled(FRAME, BLOCK, 0, 0)
    sim.bookkeeper.fired(FRAME)
    sim.bookkeeper.issued(FRAME, 0)
    fresh = sim.bookkeeper.scheduled(FRAME, BLOCK, 5, 5)
    sim.bookkeeper.fired(FRAME)
    sim.bookkeeper.issued(FRAME, 6)
    assert sim.bookkeeper.pending_for(FRAME) is fresh
    return stale


def test_superseded_arrival_keeps_newer_inflight_mshr():
    sim = MemorySimulator()
    stale = _superseded_arrival(sim)
    # The newer fetch of the same block is still in flight (completes
    # well after the stale arrival's timestamp).
    sim.prefetch_mshrs.allocate(BLOCK, 50)

    _drain_arrival_at(sim, stale, 10)

    assert sim.prefetch_mshrs.lookup(BLOCK) == 50


def test_superseded_arrival_still_retires_its_own_mshr():
    sim = MemorySimulator()
    stale = _superseded_arrival(sim)
    # Here the resident entry completed at/before the arrival time, so
    # it is this arrival's own fetch and must be retired to free the
    # MSHR slot.
    sim.prefetch_mshrs.allocate(BLOCK, 8)

    _drain_arrival_at(sim, stale, 10)

    assert sim.prefetch_mshrs.lookup(BLOCK) is None
