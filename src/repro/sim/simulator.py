"""Trace-driven memory-system simulator.

:class:`MemorySimulator` runs one :class:`~repro.traces.Trace` through
the Table-1 machine: L1 data cache, optional victim cache with an
admission filter, optional prefetch engine (policy + 128-entry queue +
32 prefetch MSHRs + contended buses), the L2/memory hierarchy, 3C miss
classification, generational timekeeping metrics, and the analytical
IPC model.

Event ordering per access:

1. advance the clock by the access's compute gap;
2. drain due events — prefetch timers fire into the queue, in-flight
   prefetches arrive and fill the L1 — then issue queued prefetches
   while prefetch MSHRs are free;
3. probe the L1; on a hit update frame/metrics and let the policy
   chain-arm; on a miss classify, probe victim cache / merge with an
   in-flight prefetch / fetch from the hierarchy, resolve the frame's
   pending prefetch, run the victim admission filter, close the old
   generation, consult the policy, and fill.

``perfect_non_cold`` mode charges zero latency for every non-cold miss
(state still evolves normally); it produces the Figure-1 "all conflict
and capacity misses eliminated" upper bound.
"""

from __future__ import annotations

import gc as _gc
from heapq import heappop as _heappop, heappush as _heappush
from itertools import islice as _islice
from time import perf_counter as _perf_counter
from typing import Optional

from ..obs.metrics import current as _telemetry_current
from ..obs.recorder import (
    RecordingAdmission,
    RecordingDecay,
    current_recorder as _recorder_current,
)

from ..cache.cache import SetAssociativeCache
from ..cache.hierarchy import MemoryHierarchy
from ..cache.mshr import MSHRFile
from ..cache.victim import VictimCache
from ..classify.three_c import ThreeCClassifier
from ..common.config import MachineConfig, paper_machine
from ..common.errors import SimulationError
from ..common.types import AccessOutcome, AccessType, MissClass
from ..core.decay import DecayPolicy
from ..core.generations import GenerationTracker
from ..core.metrics import TimekeepingMetrics
from ..core.prefetch.policy import PrefetchPolicy
from ..core.prefetch.queue import PrefetchQueue
from ..core.prefetch.timeliness import PendingPrefetch, PrefetchBookkeeper, _State
from ..core.victim import AdmissionFilter, make_admission_filter
from ..timing.events import EventQueue
from ..timing.processor import TimingModel
from ..traces.trace import Trace
from .batch import batch_fallback_reason, consume_batch
from .results import PrefetchStats, SimulationResult, VictimStats

_FIRE = 0
_ARRIVE = 1

# Prefetch lifecycle states (see PrefetchBookkeeper).
_WAITING = _State.WAITING
_QUEUED = _State.QUEUED
_ISSUED = _State.ISSUED
_ARRIVED = _State.ARRIVED
_DISCARDED = _State.DISCARDED

#: Engines :meth:`MemorySimulator.run` accepts.
ENGINES = ("batch", "scalar")


class MemorySimulator:
    """One configured machine instance, run once over one trace.

    Accounting note (``perfect_non_cold``): a non-cold miss in perfect
    mode is *charged* as an L1 hit — zero latency, counted as a hit in
    both the outcome tally and the ``l1.hits``/``l1.misses`` mechanism
    counters — while cache state still evolves as if it missed (the
    old generation closes, the block is refilled).  One visible
    consequence: ``l1.evictions`` can exceed ``l1.misses`` in perfect
    mode, because charged misses still evict.
    """

    #: Whether the batch-dispatch engine understands this class's
    #: semantics.  Subclasses that override behavior (e.g. the
    #: reference model in tools/equivalence.py) must set this False so
    #: engine dispatch falls back to their scalar loop.
    _batch_capable = True

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        *,
        ipa: float = 3.0,
        victim_filter: Optional[str] = None,
        victim_entries: int = 32,
        prefetch_policy: Optional[PrefetchPolicy] = None,
        collect_metrics: bool = False,
        classify: bool = True,
        perfect_non_cold: bool = False,
        decay: Optional[DecayPolicy] = None,
    ) -> None:
        """Assemble the machine: caches, timing, filters, predictors."""
        self.machine = machine if machine is not None else paper_machine()
        self.ipa = ipa
        self.l1 = SetAssociativeCache(self.machine.l1d)
        self.hierarchy = MemoryHierarchy(self.machine)
        self.timing = TimingModel(self.machine.processor, ipa)
        self.classifier = ThreeCClassifier(self.machine.l1d.num_blocks) if classify else None
        if perfect_non_cold and not classify:
            raise SimulationError("perfect_non_cold requires classification")
        self.perfect_non_cold = perfect_non_cold
        self.collect_metrics = collect_metrics
        self.metrics = TimekeepingMetrics() if collect_metrics else None
        self.generations = GenerationTracker(
            on_generation=self.metrics.on_generation if self.metrics else None
        )
        # Victim cache.
        self.victim_cache: Optional[VictimCache] = None
        self.admission: Optional[AdmissionFilter] = None
        #: Port/bandwidth cost of moving one victim into the buffer,
        #: in quarter-cycles (swaps steal L1 fill bandwidth); this is
        #: what makes an *unfiltered* victim cache a net loss on
        #: capacity-dominated programs (paper Figure 13).
        self.victim_insert_quarter_cycles = 1
        self._victim_penalty_acc = 0
        if victim_filter is not None:
            self.victim_cache = VictimCache(victim_entries)
            if isinstance(victim_filter, AdmissionFilter):
                self.admission = victim_filter
            else:
                self.admission = make_admission_filter(
                    victim_filter,
                    l1_index_bits=self.machine.l1d.index_bits,
                    tick_cycles=self.machine.tick_cycles,
                    victim_entries=victim_entries,
                )
        #: Optional cache-decay mechanism on the L1 (leakage study).
        self.decay = decay
        # Prefetch engine.
        self.policy = prefetch_policy
        self.prefetch_queue = PrefetchQueue(self.machine.prefetch.queue_entries)
        self.prefetch_mshrs = MSHRFile(self.machine.prefetch.mshrs)
        self.bookkeeper = PrefetchBookkeeper()
        self.events = EventQueue()
        self._prefetch_issued = 0
        self._prefetch_arrived = 0
        self._prefetch_useful = 0
        self._prefetch_scheduled = 0
        self._prefetch_fired = 0
        # Engine bookkeeping, filled in by run().
        self.engine_used: Optional[str] = None
        self.batch_fallback: Optional[str] = None
        # Flight recorder, attached by run() when one is armed.
        self._recorder = None
        # Misc counters.
        self.now = 0
        self._outcomes = {outcome: 0 for outcome in AccessOutcome}
        self._accesses = 0
        self.writebacks = 0
        self._finished = False
        # Hot-path constants.
        self._offset_bits = self.machine.l1d.offset_bits
        self._assoc = self.machine.l1d.associativity

    # -- eviction path ------------------------------------------------------------

    def _evict(self, frame, frame_key: int, incoming_block: int, now: int) -> None:
        """Close the resident generation; write back dirty data; run
        victim-cache admission.

        The generation is only built into a record when the tracker has
        a consumer (see :attr:`GenerationTracker.has_consumer`);
        otherwise it is just counted.
        """
        if frame.dirty:
            # Dirty eviction: the block crosses the L1/L2 bus.  This is
            # occupancy only (write-backs are off the critical path) but
            # it delays demand fills and prefetches behind it.
            self.hierarchy.l1_l2_bus.request(now, self.machine.l1d.block_size)
            self.writebacks += 1
        if self.decay is not None:
            live = frame.live_time()
            self.decay.on_generation_end(live, now - (frame.fill_time + live))
        if self.victim_cache is not None:
            if self.admission.admit(frame, incoming_block, now):
                self.victim_cache.insert(frame.block_addr, now)
                self._victim_penalty_acc += self.victim_insert_quarter_cycles
                if self._victim_penalty_acc >= 4:
                    whole = self._victim_penalty_acc // 4
                    self._victim_penalty_acc -= 4 * whole
                    self.now += self.timing.add_fixed_stall(whole, "victim-fill")
            else:
                self.victim_cache.reject()
        generations = self.generations
        if generations.has_consumer:
            generations.on_evict(
                frame_key,
                frame.block_addr,
                frame.fill_time,
                frame.live_time(),
                now,
                hit_count=frame.hit_count,
            )
        else:
            generations.closed_generations += 1

    # -- warm-up -----------------------------------------------------------------------

    def _reset_stats(self) -> None:
        """Zero every statistic while keeping all microarchitectural state.

        Called at the end of the warm-up period, mirroring the paper's
        methodology of skipping the first billion instructions before
        measuring: caches, tables, shadow structures and in-flight
        requests keep their contents; only the books are cleared.
        """
        self.timing = TimingModel(self.machine.processor, self.ipa)
        self._outcomes = {outcome: 0 for outcome in AccessOutcome}
        self._accesses = 0
        self.writebacks = 0
        self._prefetch_issued = 0
        self._prefetch_arrived = 0
        self._prefetch_useful = 0
        self._prefetch_scheduled = 0
        self._prefetch_fired = 0
        self.l1.reset_stats()
        self.hierarchy.reset_stats()
        self.prefetch_queue.reset_stats()
        self.prefetch_mshrs.reset_stats()
        self.bookkeeper.reset_stats()
        if self.classifier is not None:
            self.classifier.reset_stats()
        if self.victim_cache is not None:
            self.victim_cache.reset_stats()
        table = getattr(self.policy, "table", None)
        if table is not None:
            table.reset_stats()
        if self.decay is not None:
            self.decay.reset_stats()
        if self.collect_metrics:
            self.metrics = TimekeepingMetrics()
            self.generations.set_on_generation(self.metrics.on_generation)
            if self._recorder is not None:
                # The fresh metrics bank replaced the generation
                # callback; re-wrap it so the recorder keeps seeing
                # post-warmup generations.
                self._wrap_generation_callback()
        if self._recorder is not None:
            self._recorder.on_warmup_reset(self.now)

    # -- flight recorder ---------------------------------------------------------------

    def _attach_recorder(self) -> None:
        """Wire the armed flight recorder into the simulator's seams.

        Three taps: the generation-close callback (wrapped, the
        metrics bank still runs), the victim-admission filter, and the
        decay policy (both replaced by recording proxies that delegate
        every decision unchanged).  Only ever called when a recorder
        is armed, so the disarmed hot path pays nothing here.
        """
        self._wrap_generation_callback()
        if self.admission is not None:
            self.admission = RecordingAdmission(self.admission, self._recorder)
        if self.decay is not None:
            self.decay = RecordingDecay(self.decay, self._recorder)

    def _wrap_generation_callback(self) -> None:
        """Chain the recorder in front of the current generation callback."""
        recorder = self._recorder
        inner = self.generations._on_generation

        def record_generation(record, _recorder=recorder, _inner=inner):
            _recorder.on_generation(record)
            if _inner is not None:
                _inner(record)

        self.generations.set_on_generation(record_generation)

    # -- main loop -------------------------------------------------------------------

    def run(self, trace: Trace, *, warmup: int = 0,
            engine: str = "batch") -> SimulationResult:
        """Simulate *trace* and return the result (one-shot per instance).

        Args:
            warmup: Number of leading accesses to run for state warm-up
                only; statistics are reset after them, so the result
                reflects the remaining accesses against warm caches and
                predictor tables.
            engine: ``"batch"`` (default) uses the vectorized
                batch-dispatch engine when the configuration and trace
                allow it, falling back to the scalar loop otherwise
                (the reason is recorded in :attr:`batch_fallback`);
                ``"scalar"`` forces the per-access loop.  Both engines
                produce bitwise-identical results.
        """
        if self._finished:
            raise SimulationError("MemorySimulator instances are single-use; create a new one")
        if warmup < 0:
            raise SimulationError(f"warmup must be non-negative, got {warmup}")
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        # Flight-recorder arming: one ambient lookup plus an attribute
        # check when disarmed (mirroring the telemetry discipline
        # below); an armed recorder attaches per-event hooks and — via
        # batch_fallback_reason — forces the scalar engine, which is
        # bitwise-equivalent, so recording never changes results.
        recorder = _recorder_current()
        if recorder.armed:
            self._recorder = recorder
        use_batch = False
        if engine == "batch":
            self.batch_fallback = batch_fallback_reason(self, trace)
            use_batch = self.batch_fallback is None
        self.engine_used = "batch" if use_batch else "scalar"
        if self._recorder is not None:
            self._attach_recorder()
        # Throughput sampling: two clock reads around the whole run when
        # an ambient Telemetry is active, nothing otherwise.  It never
        # touches simulator state, so results are bitwise-identical with
        # telemetry enabled and disabled (the equivalence harness runs
        # both ways).
        telemetry = _telemetry_current()
        run_started = _perf_counter() if telemetry.enabled else 0.0
        # The run allocates heavily (generation records, fetch results,
        # event tuples) but creates no reference cycles, so generational
        # GC passes only add pauses; suspend collection for the run and
        # restore the caller's setting after.
        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            if use_batch:
                length = len(trace)
                warmup = min(warmup, length)
                if warmup:
                    consume_batch(self, trace, 0, warmup)
                    self._reset_stats()
                consume_batch(self, trace, warmup, length)
            else:
                rows = trace.rows()
                if warmup:
                    warmup = min(warmup, len(trace))
                    self._consume(_islice(rows, warmup))
                    self._reset_stats()
                self._consume(rows)
        finally:
            if gc_was_enabled:
                _gc.enable()
        self._finished = True
        if telemetry.enabled:
            elapsed = _perf_counter() - run_started
            telemetry.record("simulator.run_seconds", elapsed)
            if elapsed > 0:
                telemetry.gauge("simulator.accesses_per_sec", len(trace) / elapsed)
            telemetry.count("sim.engine_used." + self.engine_used)
        return self._build_result(trace)

    def _consume(self, rows) -> None:
        """Feed (address, pc, kind, gap) rows through the machine.

        This is the simulator's innermost loop: every name it touches
        per access is hoisted into a local (bound methods included), and
        outcome tallies are plain integers folded back into the
        :class:`AccessOutcome` dict once, after the loop — per-access
        dict/attribute traffic is what sweep throughput is made of.

        The prefetch engine lives entirely in this loop: the event
        drain (timer fires and prefetch arrivals), the issue pass (the
        prefetch case of :meth:`MemoryHierarchy.fetch`, MSHR
        allocation) and timer arming work on the event heap, prefetch
        queue, MSHR map and bookkeeper state directly.  Only the policy
        hooks stay calls.  ``tools/equivalence.py`` keeps the
        method-per-step engine as the reference it is diffed against.
        """
        l1 = self.l1
        timing = self.timing
        classifier = self.classifier
        metrics = self.metrics
        generations = self.generations
        policy = self.policy
        bookkeeper = self.bookkeeper
        victim_cache = self.victim_cache
        decay = self.decay
        hierarchy = self.hierarchy
        offset_bits = self._offset_bits
        store_kind = int(AccessType.STORE)
        cold = MissClass.COLD
        perfect_non_cold = self.perfect_non_cold
        wants_all = policy is not None and policy.wants_all_accesses
        # Policies that can only act on a prefetched block's first
        # demand use (the hit that leaves it prefetched with one hit)
        # are not consulted on any other hit.
        first_use_hits_only = policy is not None and policy.on_hit_first_use_only

        l1_tags = l1._tags
        l1_probe = l1_tags.get
        l1_sets = l1._sets
        l1_set_mask = l1._set_mask
        l1_materialize_set = l1._materialize_set
        l1_choose_victim = l1.choose_victim
        direct_mapped = self._assoc == 1
        l1_valid_counts = l1._valid_counts
        l1_index_bits = l1._index_bits
        l1_invalidate_frame = l1.invalidate_frame
        stamps_on_hit = l1._stamps_on_hit
        # Stall charging (TimingModel.add_stall) is inlined per miss;
        # the breakdown dict and formula constants are shared with it.
        stall_breakdown = timing._breakdown
        hidden_latency = timing.HIDDEN_LATENCY
        mlp = timing._mlp
        # Generation bookkeeping runs only when a consumer is attached
        # (metrics bank, flight recorder or keep_records): without one
        # nothing reads open-generation state or closed records, so the
        # per-hit/per-fill upkeep and on_evict are skipped and closures
        # are only counted (n_closed).  With a consumer, the on_hit and
        # on_fill method bodies are inlined below; on_fill's
        # reload-interval return value is unused on this path.
        track_generations = generations.has_consumer
        open_last = generations._open_last
        open_max = generations._open_max
        gen_on_evict = generations.on_evict
        gen_on_fill = generations.on_fill
        gen_last = generations.last_generation
        # A pending can only exist via a policy's arm, so the
        # bookkeeper's miss-time resolution is a guaranteed no-op (and
        # is skipped) when no prefetcher is configured.
        demand_miss = bookkeeper.demand_miss if policy is not None else None
        demand_hit_on_prefetched = bookkeeper.demand_hit_on_prefetched
        # The 3C shadow update (ThreeCClassifier.record_access wrapping
        # BoundedLRU.access) runs for every access, so its two levels of
        # call are flattened into the loop body below; seen_add doubles
        # as the "classification enabled" flag.
        if classifier is not None:
            classifying = True
            seen_set = classifier._seen
            seen_add = seen_set.add
            shadow_blocks = classifier._shadow_blocks
            shadow_move = shadow_blocks.move_to_end
            shadow_popitem = shadow_blocks.popitem
            shadow_cap = classifier.shadow.capacity
            miss_counts = classifier.counts
            conflict = MissClass.CONFLICT
            capacity = MissClass.CAPACITY
        else:
            classifying = False
            seen_set = seen_add = None
            shadow_blocks = shadow_move = shadow_popitem = shadow_cap = None
            miss_counts = conflict = capacity = None
        on_access_interval = metrics.access_interval.add if metrics is not None else None
        # Demand fetch (MemoryHierarchy.fetch with prefetch=False) is
        # inlined per miss: the L2 probe/touch or choose/fill, then the
        # memory-bus and L1/L2-bus demand grants (Bus.request).  Bus
        # occupancy is written through; the per-bus demand counters
        # and the hierarchy's L2 tallies are folded in after the loop.
        l2 = hierarchy.l2
        if l2._deferred is not None:
            l2._thaw()  # the tag store below is read directly
        l2_tags = l2._tags
        l2_probe = l2_tags.get
        l2_sets = l2._sets
        l2_set_mask = l2._set_mask
        l2_valid_counts = l2._valid_counts
        l2_index_bits = l2._index_bits
        l2_lru_insert = l2.associativity > 1
        l2_choose_victim = l2.choose_victim
        l2_fill = l2.fill
        l2_stamps_on_hit = l2._stamps_on_hit
        l2_shift = hierarchy._l2_shift
        l2_hit_latency = hierarchy._l2_hit_latency
        memory_latency = hierarchy._memory_latency
        l1_l2_bus = hierarchy.l1_l2_bus
        memory_bus = hierarchy.memory_bus
        l1_block_size = self.machine.l1d.block_size
        l1_l2_cycles = l1_l2_bus.config.transfer_cycles(l1_block_size)
        memory_cycles = memory_bus.config.transfer_cycles(hierarchy._l2_block)
        l1_l2_shadow = l1_l2_bus.demand_shadow
        memory_shadow = memory_bus.demand_shadow
        bus_request = l1_l2_bus.request
        # Prefetch engine state, used in place of the EventQueue,
        # PrefetchBookkeeper, MSHRFile and PrefetchQueue methods.  Events
        # are (cycle, sequence, (kind, pending)) heap entries; the
        # queue's own counter breaks same-cycle ties in schedule order.
        events_heap = self.events._heap
        next_seq = self.events._counter.__next__
        pending_map = bookkeeper._pending
        displaced_map = bookkeeper._displaced
        mshr_inflight = self.prefetch_mshrs._inflight
        mshr_entries = self.prefetch_mshrs.entries
        prefetch_queue = self.prefetch_queue
        pq = prefetch_queue._queue
        pq_popleft = pq.popleft
        pq_capacity = prefetch_queue.capacity
        # Eviction is inlined below unless decay is configured: without
        # a victim cache only write-back and generation closing happen;
        # with one, the admission call, insert and swap-penalty stall
        # (VictimCache.insert/reject and _evict's stall) are inlined too.
        # A prefetch arrival's eviction is inlined only in the plain
        # case (no victim cache, no decay) and calls _evict otherwise.
        inline_evict = decay is None
        if victim_cache is not None:
            vc_blocks = victim_cache._blocks
            vc_popitem = vc_blocks.popitem
            vc_entries = victim_cache.entries
            vc_hit_latency = victim_cache.hit_latency
            admit = self.admission.admit
            insert_quarter_cycles = self.victim_insert_quarter_cycles
            add_fixed_stall = timing.add_fixed_stall
        else:
            vc_blocks = None
        inline_arrival_evict = inline_evict and vc_blocks is None

        n_accesses = 0
        total_gap = 0
        n_stall = 0
        n_l1_hits = 0
        n_touch = 0
        n_misses = 0
        n_evictions = 0
        n_victim_hits = 0
        n_prefetch_hits = 0
        n_l2_hits = 0
        n_memory = 0
        n_useful = 0
        n_writebacks = 0
        n_perfect = 0
        n_closed = 0
        n_vc_probes = 0
        n_vc_fills = 0
        n_vc_rejected = 0
        n_vc_lru_evictions = 0
        l1_l2_wait = 0
        memory_wait = 0
        n_scheduled = 0
        n_superseded = 0
        n_fired = 0
        n_cancelled = 0
        n_enqueued = 0
        n_discarded = 0
        n_issued = 0
        n_arrived = 0
        n_mshr_allocations = 0
        n_mshr_merges = 0
        n_l2_pf_hits = 0
        n_l2_pf_misses = 0
        n_l2_pf_evictions = 0
        l1_l2_pf_wait = 0
        memory_pf_wait = 0

        try:
            for address, pc, kind, gap in rows:
                total_gap += gap
                self.now = now = self.now + gap
                if events_heap and events_heap[0][0] <= now:
                    # Drain: fire/arrive every event due by now, in
                    # (cycle, schedule order).
                    while events_heap and events_heap[0][0] <= now:
                        when, _, (event_kind, pending) = _heappop(events_heap)
                        pending_key = pending.frame_key
                        target = pending.target_block
                        if event_kind == _FIRE:
                            # Timer fire: a live prediction whose target
                            # is not resident enters the queue, which
                            # drops (discards) its oldest request when
                            # full.
                            if pending_map.get(pending_key) is not pending:
                                continue  # superseded or resolved
                            if target in l1_tags:
                                del pending_map[pending_key]
                                if pending.displaced_block >= 0:
                                    displaced_map.pop(pending.displaced_block, None)
                                n_cancelled += 1
                                continue
                            if pending.state == _WAITING:
                                pending.state = _QUEUED
                            n_fired += 1
                            if len(pq) >= pq_capacity:
                                dropped = pq_popleft()
                                n_discarded += 1
                                if dropped.state == _QUEUED:
                                    dropped.state = _DISCARDED
                            pq.append(pending)
                            n_enqueued += 1
                            continue
                        # Prefetch arrival.
                        if pending_map.get(pending_key) is not pending:
                            # Resolved or superseded while in flight
                            # (e.g. merged with a demand).  Retire the
                            # MSHR entry only when it is this arrival's
                            # own fetch: a newer in-flight fetch of the
                            # same block completes later than *when*,
                            # and dropping its entry here would prevent
                            # demands from merging with it.
                            completes = mshr_inflight.get(target)
                            if completes is not None and completes <= when:
                                del mshr_inflight[target]
                            continue
                        mshr_inflight.pop(target, None)
                        if target in l1_tags:
                            del pending_map[pending_key]
                            if pending.displaced_block >= 0:
                                displaced_map.pop(pending.displaced_block, None)
                            n_cancelled += 1
                            continue
                        if direct_mapped:
                            frames = l1_sets[target & l1_set_mask]
                            if frames is None:
                                frames = l1_materialize_set(target & l1_set_mask)
                            frame = frames[0]
                        else:
                            frame = l1_choose_victim(target)
                        frame_key = frame.frame_key
                        displaced = -1
                        if frame.valid:
                            displaced = frame.block_addr
                            if inline_arrival_evict:
                                if frame.dirty:
                                    bus_request(when, l1_block_size)
                                    n_writebacks += 1
                                if track_generations:
                                    gen_on_evict(
                                        frame_key,
                                        displaced,
                                        frame.fill_time,
                                        frame.live_time(),
                                        when,
                                        frame.hit_count,
                                    )
                                else:
                                    n_closed += 1
                            else:
                                before = self.now
                                self._evict(frame, frame_key, target, when)
                                # The victim-insert swap can stall the
                                # core; the fill it caused must not be
                                # timestamped before that stall.
                                when += self.now - before
                        if policy is not None:
                            schedule = policy.on_prefetch_fill(frame, frame_key, target, when)
                            if schedule is not None:
                                # Arm (see the end of the access).
                                key = schedule.frame_key
                                old = pending_map.get(key)
                                if old is not None:
                                    if old.displaced_block >= 0:
                                        displaced_map.pop(old.displaced_block, None)
                                    n_superseded += 1
                                fire_at = schedule.fire_at
                                armed = PendingPrefetch(
                                    key, schedule.target_block, fire_at
                                )
                                pending_map[key] = armed
                                _heappush(events_heap, (fire_at, next_seq(), (_FIRE, armed)))
                                n_scheduled += 1
                        # Prefetched L1 fill (no LRU insert, no miss count).
                        if frame.valid:
                            n_evictions += 1
                            del l1_tags[displaced]
                        else:
                            l1_valid_counts[frame.set_index] += 1
                        frame.reset_generation(target, target >> l1_index_bits, when, True)
                        l1_tags[target] = frame
                        clock = l1._clock + 1
                        l1._clock = clock
                        frame.lru_stamp = clock
                        if track_generations:
                            gen_on_fill(frame_key, target, when)
                        # The frame's prediction (normally this one) has
                        # arrived.
                        current = pending_map.get(pending_key)
                        if current is not None and (
                            current.state == _ISSUED or current.state == _QUEUED
                        ):
                            current.state = _ARRIVED
                            current.displaced_block = displaced
                            if displaced >= 0:
                                displaced_map[displaced] = pending_key
                        n_arrived += 1
                    # Draining can fill frames and stall the core
                    # (victim-insert swaps); pick up the advanced clock.
                    now = self.now
                if pq and policy is not None:
                    # Issue pass.  Every access that finds requests
                    # queued (drain turn or not) gives them one issue
                    # opportunity (locked in by
                    # test_drain_turn_issues_prefetches).  MSHRs whose
                    # fetch completed by now retire first; an access
                    # with an empty queue skips that, which nothing can
                    # observe: merges ignore completed entries and
                    # arrivals retire their own.
                    if mshr_inflight:
                        for inflight_block, completes in list(mshr_inflight.items()):
                            if completes <= now:
                                del mshr_inflight[inflight_block]
                    while pq:
                        pending = pq[0]
                        pending_key = pending.frame_key
                        if pending_map.get(pending_key) is not pending:
                            pq_popleft()  # stale entry
                            continue
                        target = pending.target_block
                        if target in l1_tags:
                            pq_popleft()
                            del pending_map[pending_key]
                            if pending.displaced_block >= 0:
                                displaced_map.pop(pending.displaced_block, None)
                            n_cancelled += 1
                            continue
                        if len(mshr_inflight) >= mshr_entries:
                            break
                        pq_popleft()
                        # Prefetch fetch: L2 probe/touch, or a fill at
                        # the LRU position of its set (anti-pollution
                        # placement) plus a memory-bus prefetch grant;
                        # then the L1/L2-bus prefetch grant.  Prefetch
                        # grants also wait out the bus's demand shadow.
                        l2_block = target >> l2_shift
                        l2_frame = l2_probe(l2_block)
                        if l2_frame is not None:
                            l2_frame.record_hit(now, False)
                            if l2_stamps_on_hit:
                                clock = l2._clock + 1
                                l2._clock = clock
                                l2_frame.lru_stamp = clock
                            n_l2_pf_hits += 1
                            data_at = now + l2_hit_latency
                        else:
                            l2_frame = l2_choose_victim(l2_block)
                            if l2_frame.valid:
                                n_l2_pf_evictions += 1
                                del l2_tags[l2_frame.block_addr]
                            else:
                                l2_valid_counts[l2_frame.set_index] += 1
                            l2_frame.reset_generation(
                                l2_block, l2_block >> l2_index_bits, now
                            )
                            l2_tags[l2_block] = l2_frame
                            if l2_lru_insert:
                                # One below the set's other stamps.  (No
                                # comprehensions in this function: one
                                # would turn the names it reads into
                                # closure cells for the whole loop.)
                                lowest = None
                                for other in l2_sets[l2_block & l2_set_mask]:
                                    if other is not l2_frame and (
                                        lowest is None or other.lru_stamp < lowest
                                    ):
                                        lowest = other.lru_stamp
                                l2_frame.lru_stamp = lowest - 1
                            else:
                                clock = l2._clock + 1
                                l2._clock = clock
                                l2_frame.lru_stamp = clock
                            n_l2_pf_misses += 1
                            requested = now + l2_hit_latency
                            free_at = memory_bus.free_at
                            start = requested if requested > free_at else free_at
                            horizon = memory_bus.last_demand_end + memory_shadow
                            if start < horizon:
                                start = horizon
                            memory_pf_wait += start - requested
                            end = start + memory_cycles
                            memory_bus.free_at = end
                            data_at = end + memory_latency
                        free_at = l1_l2_bus.free_at
                        start = data_at if data_at > free_at else free_at
                        horizon = l1_l2_bus.last_demand_end + l1_l2_shadow
                        if start < horizon:
                            start = horizon
                        l1_l2_pf_wait += start - data_at
                        completes = start + l1_l2_cycles
                        l1_l2_bus.free_at = completes
                        # MSHR allocation (the file has a free entry);
                        # a block already in flight merges, keeping the
                        # earlier completion.
                        existing = mshr_inflight.get(target)
                        if existing is not None:
                            n_mshr_merges += 1
                            if completes < existing:
                                mshr_inflight[target] = completes
                        else:
                            mshr_inflight[target] = completes
                            n_mshr_allocations += 1
                        if pending.state == _QUEUED:
                            pending.state = _ISSUED
                        _heappush(events_heap, (completes, next_seq(), (_ARRIVE, pending)))
                        n_issued += 1
                n_accesses += 1
                block = address >> offset_bits
                store = kind == store_kind

                if wants_all:
                    schedule = policy.on_access(address, pc, now)
                    if schedule is not None:
                        # Arm (see the end of the access).
                        key = schedule.frame_key
                        old = pending_map.get(key)
                        if old is not None:
                            if old.displaced_block >= 0:
                                displaced_map.pop(old.displaced_block, None)
                            n_superseded += 1
                        fire_at = schedule.fire_at
                        armed = PendingPrefetch(key, schedule.target_block, fire_at)
                        pending_map[key] = armed
                        _heappush(events_heap, (fire_at, next_seq(), (_FIRE, armed)))
                        n_scheduled += 1

                frame = l1_probe(block)
                if (
                    frame is not None
                    and decay is not None
                    and decay.is_decayed(frame.last_access_time, now)
                ):
                    # The line decayed (powered off) before this re-reference:
                    # the would-be hit becomes an induced miss.  Close the
                    # truncated generation and drop the line; the access then
                    # takes the ordinary miss path below.
                    decay.on_decayed_hit(frame.fill_time, frame.last_access_time, now)
                    if track_generations:
                        gen_on_evict(
                            frame.frame_key,
                            frame.block_addr,
                            frame.fill_time,
                            frame.live_time(),
                            now,
                            frame.hit_count,
                        )
                    else:
                        n_closed += 1
                    l1_invalidate_frame(frame)
                    frame = None
                if frame is not None:
                    frame_key = frame.frame_key
                    first_use = frame.prefetched and frame.hit_count == 0
                    if track_generations:
                        # Inline of generations.on_hit(frame_key, now).
                        interval = now - open_last[frame_key]
                        open_last[frame_key] = now
                        if interval > open_max[frame_key]:
                            open_max[frame_key] = interval
                        if on_access_interval is not None:
                            on_access_interval(interval)
                    # Inline of l1.touch(frame, now, store=store) and of
                    # Frame.record_hit: a prefetched block's first
                    # demand use re-anchors its generation there.
                    n_touch += 1
                    if frame.prefetched and not frame.prefetch_used:
                        frame.prefetch_used = True
                        frame.fill_time = now
                        frame.lt_register = 0
                        frame.hit_count = 1
                    else:
                        frame.hit_count += 1
                        frame.lt_register = now - frame.fill_time
                    frame.last_access_time = now
                    if store:
                        frame.dirty = True
                    if stamps_on_hit:
                        clock = l1._clock + 1
                        l1._clock = clock
                        frame.lru_stamp = clock
                    if seen_add is not None:
                        # Inline of classifier.record_access(block).
                        seen_add(block)
                        if block in shadow_blocks:
                            shadow_move(block)
                        else:
                            if len(shadow_blocks) >= shadow_cap:
                                shadow_popitem(False)
                            shadow_blocks[block] = None
                    n_l1_hits += 1
                    if first_use:
                        n_useful += 1
                        demand_hit_on_prefetched(frame_key, block, now)
                    if policy is None or (
                        first_use_hits_only
                        and not (frame.prefetched and frame.hit_count == 1)
                    ):
                        continue
                    schedule = policy.on_hit(frame, frame_key, now)
                else:
                    # ---- miss path ----
                    miss_class = None
                    if classifying:
                        # Inline of classifier.classify_miss(block).
                        if block not in seen_set:
                            miss_counts.cold += 1
                            miss_class = cold
                        elif block in shadow_blocks:
                            miss_counts.conflict += 1
                            miss_class = conflict
                        else:
                            miss_counts.capacity += 1
                            miss_class = capacity
                        # Inline of classifier.record_access(block).
                        seen_add(block)
                        if block in shadow_blocks:
                            shadow_move(block)
                        else:
                            if len(shadow_blocks) >= shadow_cap:
                                shadow_popitem(False)
                            shadow_blocks[block] = None
                    if metrics is not None and miss_class is not None and miss_class != cold:
                        last = gen_last(block)
                        if last is not None:
                            metrics.on_miss_correlation(
                                miss_class, now - last.start, last.dead_time, last.live_time
                            )

                    # Latency source.
                    if perfect_non_cold and miss_class != cold:
                        # Charged as an L1 hit across the board (outcome
                        # tally *and* mechanism counters; see the class
                        # docstring) — state still takes the fill path.
                        n_l1_hits += 1
                        n_perfect += 1
                        latency = 0
                    else:
                        if vc_blocks is not None:
                            # Inline of victim_cache.probe(block): a hit
                            # swaps the block back, leaving the buffer.
                            n_vc_probes += 1
                            victim_hit = block in vc_blocks
                            if victim_hit:
                                del vc_blocks[block]
                        else:
                            victim_hit = False
                        if victim_hit:
                            n_victim_hits += 1
                            latency = vc_hit_latency
                            category = "l2"
                        else:
                            inflight = mshr_inflight.get(block) if mshr_inflight else None
                            if inflight is not None and inflight > now:
                                # Merge with the in-flight prefetch.
                                n_prefetch_hits += 1
                                latency = inflight - now
                                del mshr_inflight[block]
                                category = "l2"
                            else:
                                # Inline of hierarchy.fetch(block, now, store=store).
                                l2_block = block >> l2_shift
                                l2_frame = l2_probe(l2_block)
                                if l2_frame is not None:
                                    l2_frame.record_hit(now, store)
                                    if l2_stamps_on_hit:
                                        clock = l2._clock + 1
                                        l2._clock = clock
                                        l2_frame.lru_stamp = clock
                                    n_l2_hits += 1
                                    category = "l2"
                                    data_at = now + l2_hit_latency
                                else:
                                    l2_fill(l2_choose_victim(l2_block), l2_block, now, store=store)
                                    n_memory += 1
                                    category = "memory"
                                    # Memory-bus demand grant.
                                    start = now + l2_hit_latency
                                    free_at = memory_bus.free_at
                                    if free_at > start:
                                        memory_wait += free_at - start
                                        start = free_at
                                    end = start + memory_cycles
                                    memory_bus.free_at = memory_bus.last_demand_end = end
                                    data_at = end + memory_latency
                                # L1/L2-bus demand grant.
                                free_at = l1_l2_bus.free_at
                                if free_at > data_at:
                                    l1_l2_wait += free_at - data_at
                                    data_at = free_at
                                end = data_at + l1_l2_cycles
                                l1_l2_bus.free_at = l1_l2_bus.last_demand_end = end
                                latency = end - now
                        if latency:
                            # Inline of timing.add_stall(latency, category);
                            # the key is written even for a zero stall, as
                            # add_stall does, so breakdowns stay identical.
                            exposed = latency - hidden_latency
                            stall = int(exposed / mlp) if exposed > 0 else 0
                            n_stall += stall
                            stall_breakdown[category] = (
                                stall_breakdown.get(category, 0) + stall
                            )
                            self.now = now = self.now + stall

                    if direct_mapped:
                        frames = l1_sets[block & l1_set_mask]
                        if frames is None:
                            frames = l1_materialize_set(block & l1_set_mask)
                        victim_frame = frames[0]
                    else:
                        victim_frame = l1_choose_victim(block)
                    frame_key = victim_frame.frame_key
                    if demand_miss is not None and (
                        frame_key in pending_map or block in displaced_map
                    ):
                        # Resolve the frame's prediction, or mark early
                        # the prefetch that displaced this block; with
                        # neither, demand_miss is a no-op.
                        demand_miss(frame_key, block, now)
                    if victim_frame.valid:
                        if inline_evict:
                            # Inline of _evict.
                            if victim_frame.dirty:
                                bus_request(now, l1_block_size)
                                n_writebacks += 1
                            swap_stall = 0
                            if vc_blocks is not None:
                                if admit(victim_frame, block, now):
                                    # Inline of victim_cache.insert.
                                    evicted = victim_frame.block_addr
                                    if evicted in vc_blocks:
                                        del vc_blocks[evicted]
                                    elif len(vc_blocks) >= vc_entries:
                                        vc_popitem(False)
                                        n_vc_lru_evictions += 1
                                    vc_blocks[evicted] = now
                                    n_vc_fills += 1
                                    acc = self._victim_penalty_acc + insert_quarter_cycles
                                    if acc >= 4:
                                        whole = acc // 4
                                        acc -= 4 * whole
                                        swap_stall = add_fixed_stall(whole, "victim-fill")
                                    self._victim_penalty_acc = acc
                                else:
                                    n_vc_rejected += 1
                            if track_generations:
                                hc = victim_frame.hit_count
                                gen_on_evict(
                                    frame_key,
                                    victim_frame.block_addr,
                                    victim_frame.fill_time,
                                    victim_frame.lt_register if hc > 0 else 0,
                                    now,
                                    hc,
                                )
                            else:
                                n_closed += 1
                            if swap_stall:
                                # The victim-insert swap stalls the core; the
                                # fill it caused must not be timestamped
                                # before that stall.
                                self.now = now = now + swap_stall
                        else:
                            self._evict(victim_frame, frame_key, block, now)
                            # The victim-insert swap can stall the core; the
                            # fill it caused must not be timestamped before
                            # that stall.
                            now = self.now
                    if policy is not None:
                        schedule = policy.on_miss(victim_frame, frame_key, block, pc, now)
                    else:
                        schedule = None
                    # Inline of l1.fill(victim_frame, block, now, store=store)
                    # — demand fills never use lru_insert.
                    if victim_frame.valid:
                        n_evictions += 1
                        del l1_tags[victim_frame.block_addr]
                    else:
                        l1_valid_counts[victim_frame.set_index] += 1
                    n_misses += 1
                    victim_frame.reset_generation(block, block >> l1_index_bits, now)
                    l1_tags[block] = victim_frame
                    if store:
                        victim_frame.dirty = True
                    clock = l1._clock + 1
                    l1._clock = clock
                    victim_frame.lru_stamp = clock
                    if track_generations:
                        # Inline of generations.on_fill(frame_key, block, now).
                        open_last[frame_key] = now
                        open_max[frame_key] = 0
                if schedule is not None:
                    # Arm the frame's prefetch timer: the new prediction
                    # replaces (supersedes) any unresolved one, and its
                    # fire event joins the heap.
                    key = schedule.frame_key
                    old = pending_map.get(key)
                    if old is not None:
                        if old.displaced_block >= 0:
                            displaced_map.pop(old.displaced_block, None)
                        n_superseded += 1
                    fire_at = schedule.fire_at
                    armed = PendingPrefetch(key, schedule.target_block, fire_at)
                    pending_map[key] = armed
                    _heappush(events_heap, (fire_at, next_seq(), (_FIRE, armed)))
                    n_scheduled += 1
        finally:
            # Compute gaps are charged in bulk: add_access per row is
            # pure increment work, identical when folded.
            timing.compute_cycles += total_gap
            timing._accesses += n_accesses
            timing.stall_cycles += n_stall
            l1.hits += n_touch + n_perfect
            l1.misses += n_misses - n_perfect
            l1.evictions += n_evictions
            l2.hits += n_l2_hits + n_l2_pf_hits
            l2.misses += n_l2_pf_misses
            l2.evictions += n_l2_pf_evictions
            hierarchy.l2_demand_hits += n_l2_hits
            hierarchy.l2_demand_misses += n_memory
            hierarchy.l2_prefetch_hits += n_l2_pf_hits
            hierarchy.l2_prefetch_misses += n_l2_pf_misses
            hierarchy.memory_accesses += n_memory + n_l2_pf_misses
            l1_l2_bus.demand_transfers += n_l2_hits + n_memory
            l1_l2_bus.demand_wait_cycles += l1_l2_wait
            l1_l2_bus.prefetch_transfers += n_issued
            l1_l2_bus.prefetch_wait_cycles += l1_l2_pf_wait
            memory_bus.demand_transfers += n_memory
            memory_bus.demand_wait_cycles += memory_wait
            memory_bus.prefetch_transfers += n_l2_pf_misses
            memory_bus.prefetch_wait_cycles += memory_pf_wait
            generations.closed_generations += n_closed
            if victim_cache is not None:
                victim_cache.probes += n_vc_probes
                victim_cache.hits += n_victim_hits
                victim_cache.fills += n_vc_fills
                victim_cache.rejected += n_vc_rejected
                victim_cache.lru_evictions += n_vc_lru_evictions
            bookkeeper.superseded += n_superseded
            bookkeeper.cancelled += n_cancelled
            prefetch_queue.enqueued += n_enqueued
            prefetch_queue.discarded += n_discarded
            self.prefetch_mshrs.allocations += n_mshr_allocations
            self.prefetch_mshrs.merges += n_mshr_merges
            self.writebacks += n_writebacks
            self._accesses += n_accesses
            self._prefetch_scheduled += n_scheduled
            self._prefetch_fired += n_fired
            self._prefetch_issued += n_issued
            self._prefetch_arrived += n_arrived
            self._prefetch_useful += n_useful
            outcomes = self._outcomes
            outcomes[AccessOutcome.L1_HIT] += n_l1_hits
            outcomes[AccessOutcome.VICTIM_HIT] += n_victim_hits
            outcomes[AccessOutcome.PREFETCH_HIT] += n_prefetch_hits
            outcomes[AccessOutcome.L2_HIT] += n_l2_hits
            outcomes[AccessOutcome.MEMORY] += n_memory

    # -- result assembly ---------------------------------------------------------------

    def _build_result(self, trace: Trace) -> SimulationResult:
        l1_hits = self._outcomes[AccessOutcome.L1_HIT]
        l1_misses = self._accesses - l1_hits
        victim_stats = None
        if self.victim_cache is not None:
            vc = self.victim_cache
            victim_stats = VictimStats(
                entries=vc.entries,
                probes=vc.probes,
                hits=vc.hits,
                fills=vc.fills,
                rejected=vc.rejected,
                lru_evictions=vc.lru_evictions,
            )
        prefetch_stats = None
        if self.policy is not None:
            lookups = getattr(self.policy, "table", None)
            prefetch_stats = PrefetchStats(
                scheduled=self._prefetch_scheduled,
                fired=self._prefetch_fired,
                issued=self._prefetch_issued,
                arrived=self._prefetch_arrived,
                useful=self._prefetch_useful,
                discarded=self.prefetch_queue.discarded,
                cancelled=self.bookkeeper.cancelled,
                superseded=self.bookkeeper.superseded,
                mshr_rejections=self.prefetch_mshrs.full_rejections,
                predictor_lookups=lookups.lookups if lookups is not None else 0,
                predictor_hits=lookups.lookup_hits if lookups is not None else 0,
                table_bytes=self.policy.state_bytes(),
                timeliness=self.bookkeeper.counts,
            )
        return SimulationResult(
            name=trace.name,
            accesses=self._accesses,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            outcomes=dict(self._outcomes),
            timing=self.timing.result(),
            miss_counts=self.classifier.counts if self.classifier else None,
            victim=victim_stats,
            prefetch=prefetch_stats,
            metrics=self.metrics,
            l2_hits=self.hierarchy.l2_demand_hits,
            l2_misses=self.hierarchy.l2_demand_misses,
            memory_accesses=self.hierarchy.memory_accesses,
            decay=self.decay.stats if self.decay is not None else None,
            writebacks=self.writebacks,
        )


def simulate(
    trace: Trace,
    *,
    machine: Optional[MachineConfig] = None,
    ipa: float = 3.0,
    victim_filter: Optional[str] = None,
    victim_entries: int = 32,
    prefetcher: Optional[str] = None,
    collect_metrics: bool = False,
    classify: bool = True,
    perfect_non_cold: bool = False,
    prefetch_policy: Optional[PrefetchPolicy] = None,
    warmup: int = 0,
    decay_interval: Optional[int] = None,
    engine: str = "batch",
) -> SimulationResult:
    """Convenience one-call simulation.

    *prefetcher* may name a built-in policy ('timekeeping', 'dbcp',
    'stride'); pass *prefetch_policy* instead for a custom or
    specially-configured policy object.  *warmup* leading accesses are
    simulated for state only (statistics reset afterwards), mirroring
    the paper's skipping of the first billion instructions.  *engine*
    selects the dispatch engine ('batch' with automatic scalar
    fallback, or 'scalar'); results are engine-independent.
    """
    simulator = make_simulator(
        machine,
        ipa=ipa,
        victim_filter=victim_filter,
        victim_entries=victim_entries,
        prefetcher=prefetcher,
        prefetch_policy=prefetch_policy,
        collect_metrics=collect_metrics,
        classify=classify,
        perfect_non_cold=perfect_non_cold,
        decay_interval=decay_interval,
    )
    return simulator.run(trace, warmup=warmup, engine=engine)


def make_simulator(
    machine: Optional[MachineConfig] = None,
    *,
    ipa: float = 3.0,
    victim_filter: Optional[str] = None,
    victim_entries: int = 32,
    prefetcher: Optional[str] = None,
    prefetch_policy: Optional[PrefetchPolicy] = None,
    collect_metrics: bool = False,
    classify: bool = True,
    perfect_non_cold: bool = False,
    decay_interval: Optional[int] = None,
) -> MemorySimulator:
    """Build a :class:`MemorySimulator` from :func:`simulate`'s options.

    Shared by :func:`simulate` and the sampled fidelity tier
    (``repro.sim.sampling``), which drives the simulator window by
    window instead of through :meth:`MemorySimulator.run`.
    """
    machine = machine if machine is not None else paper_machine()
    if prefetcher is not None and prefetch_policy is not None:
        raise SimulationError("pass either prefetcher or prefetch_policy, not both")
    if prefetcher is not None:
        prefetch_policy = make_prefetch_policy(prefetcher, machine)
    return MemorySimulator(
        machine,
        ipa=ipa,
        victim_filter=victim_filter,
        victim_entries=victim_entries,
        prefetch_policy=prefetch_policy,
        collect_metrics=collect_metrics,
        classify=classify,
        perfect_non_cold=perfect_non_cold,
        decay=DecayPolicy(decay_interval) if decay_interval is not None else None,
    )


def make_prefetch_policy(name: str, machine: MachineConfig) -> PrefetchPolicy:
    """Instantiate a built-in prefetch policy by name."""
    from ..core.prefetch.dbcp import DBCPPrefetchPolicy
    from ..core.prefetch.stride import StridePrefetchPolicy
    from ..core.prefetch.timekeeping import TimekeepingPrefetchPolicy

    lowered = name.lower()
    if lowered == "timekeeping":
        return TimekeepingPrefetchPolicy(machine.l1d, tick_cycles=machine.tick_cycles)
    if lowered == "dbcp":
        return DBCPPrefetchPolicy(machine.l1d)
    if lowered == "stride":
        return StridePrefetchPolicy(machine.l1d)
    raise SimulationError(f"unknown prefetcher {name!r}")
