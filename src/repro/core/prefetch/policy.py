"""Prefetch policy interface.

The simulator owns the prefetch *engine* — queue, MSHRs, bus, fills —
and consults a :class:`PrefetchPolicy` for the *predictions*: what to
prefetch into a frame and when the timer should fire.  Policies see the
same frame events the hardware would:

- ``on_miss``: a demand miss on ``new_block_addr`` is about to evict
  the frame's resident (the frame still holds the old state);
- ``on_hit``: a demand hit just updated the frame;
- ``on_prefetch_fill``: a prefetched block is about to be installed.

Each hook may return a :class:`ScheduledPrefetch` to (re)arm that
frame's single prefetch timer.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Optional

from ...cache.block import Frame


class ScheduledPrefetch(NamedTuple):
    """A request to arm one frame's prefetch timer.

    A named tuple rather than a frozen dataclass: policies build one
    per prediction, and a frozen dataclass pays an
    ``object.__setattr__`` per field on construction.

    Attributes:
        frame_key: Identifies the L1 frame (set * assoc + way).
        target_block: L1 block address to prefetch.
        fire_at: Cycle at which the request enters the prefetch queue.
    """

    frame_key: int
    target_block: int
    fire_at: int


class PrefetchPolicy(abc.ABC):
    """Prediction logic behind the shared prefetch engine."""

    name = "base"
    #: True for access-granularity policies (stride) that must see every
    #: demand access, not just frame events.
    wants_all_accesses = False
    #: True for policies whose :meth:`on_hit` can only act on the first
    #: demand use of a prefetched block (the hit that leaves the frame
    #: ``prefetched`` with ``hit_count == 1``); the engine then skips
    #: the call on every other hit.
    on_hit_first_use_only = False

    @abc.abstractmethod
    def on_miss(self, frame: Frame, frame_key: int, new_block_addr: int,
                pc: int, now: int) -> Optional[ScheduledPrefetch]:
        """Demand miss on *new_block_addr* evicting *frame*'s resident."""

    def on_hit(self, frame: Frame, frame_key: int, now: int) -> Optional[ScheduledPrefetch]:
        """Demand hit on *frame* (already recorded on the frame)."""
        return None

    def on_prefetch_fill(self, frame: Frame, frame_key: int, block_addr: int,
                         now: int) -> Optional[ScheduledPrefetch]:
        """Prefetched *block_addr* about to replace *frame*'s resident."""
        return None

    def on_access(self, address: int, pc: int, now: int) -> Optional[ScheduledPrefetch]:
        """Every demand access (only if :attr:`wants_all_accesses`)."""
        return None

    def state_bytes(self) -> int:
        """Approximate hardware state of the policy's tables, in bytes."""
        return 0
