"""Differential equivalence harness for the simulator hot path.

The production :class:`~repro.sim.simulator.MemorySimulator` earns its
throughput from an O(1) tag store, inlined method bodies in
``_consume``, and conditionally-skipped event drains.  Each of those is
an opportunity to silently change simulation semantics.  This harness
pins them: it re-implements the L1, the hierarchy fetch path, the
prefetch engine and the main loop in the *straightforward* style —
linear tag scans, one method call per event, an unconditional event
drain per access — and asserts that both simulators produce
bitwise-identical results over the workload suite.  The production
loop inlines the whole prefetch engine, so the method-per-step engine
(``_arm``, ``_handle_fire``, ``_issue_prefetches``,
``_handle_arrival``, ``_drain_events``) lives only here.

The reference deliberately shares the leaf mechanism code (frames,
MSHRs, buses, policies, bookkeeping): the point is to diff the
*restructured* layers against their plain originals, not to re-derive
the whole machine.  It also includes the behavioral bugfixes that
landed with the hot-path overhaul (stale-clock fills after evictions
that stall the core, stale prefetch-arrival MSHR releases, charged
``perfect_non_cold`` misses double-counted in the L1 hit/miss
counters), so a mismatch always means the optimized path drifted.

Each cell is a three-way comparison: the production simulator under
the batch engine, the production simulator under the scalar engine,
and the reference — all pairs must be bitwise-identical.  Cells cover
warmup > 0 and perfect-mode configurations in addition to the
mechanism axes (victim cache, prefetch, decay).

Run directly::

    PYTHONPATH=src python tools/equivalence.py [--length N]
        [--workloads a,b,...] [--configs default,victim,...]

Exits non-zero on any mismatch.  The integration suite runs the same
checks via :func:`iter_mismatches` (tests/integration/test_equivalence.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import FetchResult, MemoryHierarchy
from repro.cache.replacement import LRUPolicy
from repro.common.config import CacheConfig, MachineConfig, PrefetchConfig, paper_machine
from repro.common.types import KB, AccessOutcome, AccessType, MissClass
from repro.core.decay import DecayPolicy
from repro.sim.simulator import _ARRIVE, _FIRE, MemorySimulator, make_prefetch_policy
from repro.traces.workloads import build_workload

#: The paper machine with a 32KB L2, a 4-entry prefetch queue and 2
#: prefetch MSHRs.  At harness trace lengths the paper's 1MB L2 never
#: evicts under prefetch traffic and its 128-entry queue rarely
#: overflows, so this machine is what drives the LRU-position L2 fill,
#: queue discards and the MSHR-full stop of the issue pass.
TIGHT_MACHINE = dataclasses.replace(
    paper_machine(),
    l2=CacheConfig(32 * KB, 4, 64, hit_latency=12, name="L2"),
    prefetch=PrefetchConfig(mshrs=2, queue_entries=4),
)

#: Named machine configurations the harness sweeps.  Keep in sync with
#: the feature axes of the hot path: victim cache + admission filter,
#: prefetch engine (events/MSHRs/queue), and decay each take different
#: branches through ``_consume``.
#: The ``victim_unfiltered``/``victim_collins``/``prefetch_bare``/
#: ``prefetch_dbcp``/``prefetch_tight`` cells and the prefetch warm-up
#: cells run without a metrics bank, as the paper campaign does, so they
#: take the generation-bookkeeping-off branch the consumer-less configs
#: use.
CONFIGS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "victim": {"victim_filter": "timekeeping"},
    "victim_unfiltered": {"victim_filter": "unfiltered", "collect_metrics": False},
    "victim_collins": {"victim_filter": "collins", "collect_metrics": False},
    "prefetch": {"prefetcher": "timekeeping"},
    "prefetch_bare": {"prefetcher": "timekeeping", "collect_metrics": False},
    "prefetch_dbcp": {"prefetcher": "dbcp", "collect_metrics": False},
    "prefetch_tight": {
        "prefetcher": "timekeeping", "collect_metrics": False, "machine": TIGHT_MACHINE,
    },
    # The stride prefetcher sees every access (wants_all_accesses).
    "prefetch_stride": {"prefetcher": "stride"},
    "decay": {"decay_interval": 8192},
    # ``warmup_frac`` is harness-level, not a simulator kwarg: the cell
    # runs with warmup = int(length * frac) extra accesses, exercising
    # the batch engine's deferred-state chaining across run() calls.
    "warmup": {"warmup_frac": 0.33},
    # Prefetch events, queued requests and MSHRs are still pending when
    # the statistics reset between the warm-up and measured passes.
    "prefetch_warmup": {
        "prefetcher": "timekeeping", "collect_metrics": False, "warmup_frac": 0.33,
    },
    "prefetch_dbcp_warmup": {
        "prefetcher": "dbcp", "collect_metrics": False, "warmup_frac": 0.33,
    },
    "perfect": {"perfect_non_cold": True},
    "perfect_warmup": {"perfect_non_cold": True, "warmup_frac": 0.33},
}

#: Per-cell simulator runs: label, simulator class, dispatch engine.
#: The reference is asked for the batch engine precisely so its
#: ``_batch_capable = False`` opt-out (not the caller) forces the
#: scalar path — a reference that silently ran vectorized would be
#: testing the batch engine against itself.
RUNS = (
    ("batch", None, "batch"),
    ("scalar", None, "scalar"),
    ("reference", "reference", "batch"),
)

#: Label pairs diffed within each cell.
PAIRS = (("batch", "reference"), ("scalar", "reference"), ("batch", "scalar"))

#: At harness trace lengths the DBCP prefetcher issues no prefetch on
#: the first four workloads; eon is one on which it does.
DEFAULT_WORKLOADS = ("gcc", "mcf", "swim", "art", "eon")


class ReferenceCache(SetAssociativeCache):
    """L1/L2 with the original linear-scan lookup.

    Overrides every method the production cache accelerated with the
    block->frame tag store, restoring the way-by-way tag compare.  The
    ``_tags``/``_valid_counts`` views are left unmaintained — nothing in
    the reference paths reads them, which is itself part of the test:
    a production code path sneaking into the reference would KeyError
    or return stale residency immediately.
    """

    def __init__(self, config, policy=None) -> None:
        super().__init__(config, policy)
        # Eager materialization: the reference predates lazy sets.
        self._all_sets: List[List] = [
            self._materialize_set(i) for i in range(self.num_sets)
        ]

    def probe(self, block_addr):
        tag = block_addr >> self._index_bits
        for frame in self._all_sets[block_addr & self._set_mask]:
            if frame.valid and frame.tag == tag:
                return frame
        return None

    def choose_victim(self, block_addr):
        frames = self._all_sets[block_addr & self._set_mask]
        for frame in frames:
            if not frame.valid:
                return frame
        return self.policy.choose_victim(frames)

    def fill(self, frame, block_addr, now, *, store=False, prefetched=False,
             lru_insert=False):
        if frame.valid:
            self.evictions += 1
        if not prefetched:
            self.misses += 1
        frame.reset_generation(block_addr, block_addr >> self._index_bits, now,
                               prefetched=prefetched)
        if store:
            frame.dirty = True
        if lru_insert and self.associativity > 1:
            frames = self._all_sets[block_addr & self._set_mask]
            frame.lru_stamp = min(f.lru_stamp for f in frames if f is not frame) - 1
        else:
            self._clock += 1
            frame.lru_stamp = self._clock

    def access(self, block_addr, now, *, store=False, lru_insert=False):
        frame = self.probe(block_addr)
        if frame is not None:
            self.touch(frame, now, store=store)
            return True
        victim = self.choose_victim(block_addr)
        self.fill(victim, block_addr, now, store=store, lru_insert=lru_insert)
        return False

    def invalidate(self, block_addr):
        frame = self.probe(block_addr)
        if frame is not None:
            self.invalidate_frame(frame)
        return frame

    def invalidate_frame(self, frame) -> None:
        if frame.valid:
            frame.valid = False
            frame.block_addr = -1


class ReferenceHierarchy(MemoryHierarchy):
    """Hierarchy with a :class:`ReferenceCache` L2 and the original
    method-calling ``fetch``."""

    def __init__(self, machine: MachineConfig, *, demand_shadow: int = 2) -> None:
        super().__init__(machine, demand_shadow=demand_shadow)
        self.l2 = ReferenceCache(machine.l2, LRUPolicy())

    def fetch(self, l1_block_addr, now, *, prefetch=False, store=False):
        l2_block_addr = l1_block_addr >> self._l2_shift
        l2_ready = now + self._l2_hit_latency
        hit = self.l2.access(l2_block_addr, now, store=store, lru_insert=prefetch)
        if hit:
            if prefetch:
                self.l2_prefetch_hits += 1
            else:
                self.l2_demand_hits += 1
            data_at = l2_ready
        else:
            if prefetch:
                self.l2_prefetch_misses += 1
            else:
                self.l2_demand_misses += 1
            self.memory_accesses += 1
            mem_done = self.memory_bus.request(l2_ready, self._l2_block,
                                               prefetch=prefetch)
            data_at = mem_done + self._memory_latency
        end = self.l1_l2_bus.request(data_at, self._l1_block, prefetch=prefetch)
        return FetchResult(completes_at=end, latency=end - now, from_memory=not hit)


class ReferenceSimulator(MemorySimulator):
    """Simulator with the plain, call-everything main loop.

    Every access drains the event queue, issues prefetches, and goes
    through the public protocol (``probe``/``touch``/``choose_victim``/
    ``fill``, ``classify_miss``/``record_access``, ``on_hit``/
    ``on_fill``/``on_evict``, ``add_access``/``add_stall``) one call at
    a time.  Reads ``self.now`` after every step that can stall the
    core, so the stale-clock bugfixes are part of the reference
    semantics.
    """

    #: The batch engine indexes the production tag store directly; this
    #: subclass changes lookup behavior, so it must opt out (see
    #: ``MemorySimulator._batch_capable``).  ``run(engine="batch")``
    #: then records a fallback and takes the scalar loop above.
    _batch_capable = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.l1 = ReferenceCache(self.machine.l1d)
        self.hierarchy = ReferenceHierarchy(self.machine)

    # -- prefetch engine: one method per step, through the public
    # -- EventQueue/PrefetchBookkeeper/MSHRFile/PrefetchQueue protocol.

    def _arm(self, schedule) -> None:
        pending = self.bookkeeper.scheduled(
            schedule.frame_key, schedule.target_block, schedule.fire_at
        )
        self.events.schedule(schedule.fire_at, (_FIRE, pending))
        self._prefetch_scheduled += 1

    def _handle_fire(self, pending) -> None:
        if self.bookkeeper.pending_for(pending.frame_key) is not pending:
            return  # superseded or resolved
        if self.l1.probe(pending.target_block) is not None:
            self.bookkeeper.cancel(pending.frame_key)
            return
        self.bookkeeper.fired(pending.frame_key)
        self._prefetch_fired += 1
        displaced = self.prefetch_queue.push(pending)
        if displaced is not None:
            self.bookkeeper.discarded(displaced)

    def _issue_prefetches(self) -> None:
        self.prefetch_mshrs.expire(self.now)
        while len(self.prefetch_queue):
            pending = self.prefetch_queue.peek()
            if self.bookkeeper.pending_for(pending.frame_key) is not pending:
                self.prefetch_queue.pop()  # stale entry
                continue
            if self.l1.probe(pending.target_block) is not None:
                self.prefetch_queue.pop()
                self.bookkeeper.cancel(pending.frame_key)
                continue
            if len(self.prefetch_mshrs) >= self.prefetch_mshrs.entries:
                break
            self.prefetch_queue.pop()
            fetch = self.hierarchy.fetch(pending.target_block, self.now, prefetch=True)
            self.prefetch_mshrs.allocate(pending.target_block, fetch.completes_at)
            self.bookkeeper.issued(pending.frame_key, self.now)
            self.events.schedule(fetch.completes_at, (_ARRIVE, pending))
            self._prefetch_issued += 1

    def _handle_arrival(self, pending, when: int) -> None:
        if self.bookkeeper.pending_for(pending.frame_key) is not pending:
            # Resolved or superseded while in flight: retire the MSHR
            # entry only when it is this arrival's own fetch (a newer
            # in-flight fetch of the same block completes after *when*).
            completes = self.prefetch_mshrs.lookup(pending.target_block)
            if completes is not None and completes <= when:
                self.prefetch_mshrs.release(pending.target_block)
            return
        self.prefetch_mshrs.release(pending.target_block)
        target = pending.target_block
        if self.l1.probe(target) is not None:
            self.bookkeeper.cancel(pending.frame_key)
            return
        frame = self.l1.choose_victim(target)
        frame_key = frame.set_index * self._assoc + frame.way
        displaced = -1
        if frame.valid:
            displaced = frame.block_addr
            before = self.now
            self._evict(frame, frame_key, target, when)
            # The victim-insert swap can stall the core; the fill it
            # caused must not be timestamped before that stall.
            when += self.now - before
        if self.policy is not None:
            schedule = self.policy.on_prefetch_fill(frame, frame_key, target, when)
            if schedule is not None:
                self._arm(schedule)
        self.l1.fill(frame, target, when, prefetched=True)
        self.generations.on_fill(frame_key, target, when)
        self.bookkeeper.arrived(pending.frame_key, when, displaced)
        self._prefetch_arrived += 1

    def _drain_events(self) -> None:
        """Fire/arrive every due event, then issue queued prefetches."""
        for when, (kind, pending) in self.events.pop_due(self.now):
            if kind == _FIRE:
                self._handle_fire(pending)
            else:
                self._handle_arrival(pending, when)
        if self.policy is not None:
            self._issue_prefetches()

    def _consume(self, rows) -> None:
        l1 = self.l1
        timing = self.timing
        classifier = self.classifier
        metrics = self.metrics
        generations = self.generations
        policy = self.policy
        bookkeeper = self.bookkeeper
        victim_cache = self.victim_cache
        decay = self.decay
        offset_bits = self._offset_bits
        assoc = self._assoc
        store_kind = int(AccessType.STORE)
        cold = MissClass.COLD
        perfect_non_cold = self.perfect_non_cold
        wants_all = policy is not None and policy.wants_all_accesses

        for address, pc, kind, gap in rows:
            timing.add_access(gap)
            self.now += gap
            self._drain_events()
            now = self.now
            self._accesses += 1
            block = address >> offset_bits
            store = kind == store_kind

            if wants_all:
                schedule = policy.on_access(address, pc, now)
                if schedule is not None:
                    self._arm(schedule)

            frame = l1.probe(block)
            if (
                frame is not None
                and decay is not None
                and decay.is_decayed(frame.last_access_time, now)
            ):
                decay.on_decayed_hit(frame.fill_time, frame.last_access_time, now)
                generations.on_evict(
                    frame.set_index * assoc + frame.way,
                    frame.block_addr,
                    frame.fill_time,
                    frame.live_time(),
                    now,
                    hit_count=frame.hit_count,
                )
                l1.invalidate_frame(frame)
                frame = None
            if frame is not None:
                frame_key = frame.set_index * assoc + frame.way
                first_use = frame.prefetched and frame.hit_count == 0
                interval = generations.on_hit(frame_key, now)
                if metrics is not None:
                    metrics.on_access_interval(interval)
                l1.touch(frame, now, store=store)
                if classifier is not None:
                    classifier.record_access(block)
                self._outcomes[AccessOutcome.L1_HIT] += 1
                if first_use:
                    self._prefetch_useful += 1
                    bookkeeper.demand_hit_on_prefetched(frame_key, block, now)
                if policy is not None:
                    schedule = policy.on_hit(frame, frame_key, now)
                    if schedule is not None:
                        self._arm(schedule)
                continue

            miss_class = None
            if classifier is not None:
                miss_class = classifier.classify_miss(block)
                classifier.record_access(block)
            if metrics is not None and miss_class is not None and miss_class != cold:
                last = generations.last_generation(block)
                if last is not None:
                    metrics.on_miss_correlation(
                        miss_class, now - last.start, last.dead_time, last.live_time
                    )

            if perfect_non_cold and miss_class != cold:
                # Charged as an L1 hit in the outcome tally *and* the
                # mechanism counters; the fill below still bumps
                # l1.misses, so balance both counters here.
                self._outcomes[AccessOutcome.L1_HIT] += 1
                l1.hits += 1
                l1.misses -= 1
                latency = 0
            else:
                if victim_cache is not None and victim_cache.probe(block):
                    self._outcomes[AccessOutcome.VICTIM_HIT] += 1
                    latency = victim_cache.hit_latency
                    category = "l2"
                else:
                    inflight = self.prefetch_mshrs.lookup(block)
                    if inflight is not None and inflight > now:
                        self._outcomes[AccessOutcome.PREFETCH_HIT] += 1
                        latency = inflight - now
                        self.prefetch_mshrs.release(block)
                        category = "l2"
                    else:
                        fetch = self.hierarchy.fetch(block, now, store=store)
                        latency = fetch.latency
                        if fetch.from_memory:
                            self._outcomes[AccessOutcome.MEMORY] += 1
                            category = "memory"
                        else:
                            self._outcomes[AccessOutcome.L2_HIT] += 1
                            category = "l2"
                if latency:
                    self.now += timing.add_stall(latency, category)
                    now = self.now

            victim_frame = l1.choose_victim(block)
            frame_key = victim_frame.set_index * assoc + victim_frame.way
            if policy is not None:
                bookkeeper.demand_miss(frame_key, block, now)
            if victim_frame.valid:
                self._evict(victim_frame, frame_key, block, now)
                # Victim-insert swaps stall the core; the fill must not
                # be timestamped before that stall.
                now = self.now
            if policy is not None:
                schedule = policy.on_miss(victim_frame, frame_key, block, pc, now)
            else:
                schedule = None
            l1.fill(victim_frame, block, now, store=store)
            generations.on_fill(frame_key, block, now)
            if schedule is not None:
                self._arm(schedule)


def _build_simulator(cls, config: Dict[str, Any]) -> MemorySimulator:
    """Instantiate *cls* for one named configuration.

    Prefetch policies and decay objects are stateful, so each simulator
    gets its own instances.
    """
    kwargs = dict(config)
    prefetcher = kwargs.pop("prefetcher", None)
    decay_interval = kwargs.pop("decay_interval", None)
    sim = cls(
        ipa=kwargs.pop("ipa", 3.0),
        collect_metrics=kwargs.pop("collect_metrics", True),
        prefetch_policy=(
            make_prefetch_policy(prefetcher, MemorySimulator().machine)
            if prefetcher is not None
            else None
        ),
        decay=DecayPolicy(decay_interval) if decay_interval is not None else None,
        **kwargs,
    )
    return sim


def metrics_digest(sim: MemorySimulator) -> Optional[Dict[str, Any]]:
    """Collapse the (non-serialized) metrics object into a comparable dict.

    ``SimulationResult.to_dict`` drops metrics by design, but the
    inlined histogram updates in the hot loop are exactly the kind of
    code this harness exists to check — so compare them explicitly.
    """
    m = sim.metrics
    if m is None:
        return None
    def hist(h):
        return {"counts": list(h.counts), "overflow": h.overflow,
                "total": h.total, "sum": h._sum}
    return {
        "live_time": hist(m.live_time),
        "dead_time": hist(m.dead_time),
        "access_interval": hist(m.access_interval),
        "reload_interval": hist(m.reload_interval),
        "total_generations": m.total_generations,
        "zero_live_generations": m.zero_live_generations,
        "miss_correlations": len(m.miss_correlations),
        "live_time_pairs": len(m.live_time_pairs),
    }


def mechanism_digest(sim: MemorySimulator) -> Dict[str, Any]:
    """Mechanism-level counters ``to_dict`` leaves out.

    The scalar loop folds the L2, bus, MSHR and prefetch-queue tallies
    in after the loop instead of bumping them per event; compare them
    explicitly so a fold that drifts shows up here.  Each L2 set's
    blocks in LRU order pin the prefetch fill's LRU-position placement,
    which the counters alone do not see (the engines number LRU stamps
    differently, so only the order is compared).
    """
    h = sim.hierarchy
    h.l2.probe(0)  # thaws state a batch-engine run left deferred
    l2_lru = [
        [f.block_addr for f in sorted(frames, key=lambda f: f.lru_stamp) if f.valid]
        for frames in h.l2._sets
        if frames is not None and any(f.valid for f in frames)
    ]

    def bus(b):
        return [b.demand_transfers, b.prefetch_transfers,
                b.demand_wait_cycles, b.prefetch_wait_cycles, b.free_at]

    return {
        "l2": [h.l2.hits, h.l2.misses, h.l2.evictions, h.l2_prefetch_hits,
               h.l2_prefetch_misses, h.memory_accesses],
        "l1_l2_bus": bus(h.l1_l2_bus),
        "memory_bus": bus(h.memory_bus),
        "l2_lru": l2_lru,
        "mshr": [sim.prefetch_mshrs.allocations, sim.prefetch_mshrs.merges],
        "queue": [sim.prefetch_queue.enqueued, sim.prefetch_queue.discarded,
                  len(sim.prefetch_queue)],
        "events": len(sim.events),
        "now": sim.now,
    }


def run_cell(workload: str, length: int, config_name: str) -> Dict[str, Dict]:
    """Run every simulator variant on one (workload, config) cell.

    Returns ``{label: comparable_dict}`` for the labels in :data:`RUNS`
    — production/batch, production/scalar, and the reference — where
    each comparable dict is the result ``to_dict`` plus the metrics
    digest, the mechanism digest and the tracker's closed-generation
    count (which must stay exact even when no consumer reads the
    generations).  A ``warmup_frac`` entry in the config adds that
    fraction of *length* as extra leading accesses consumed as warmup.
    """
    config = dict(CONFIGS[config_name])
    warmup = int(length * config.pop("warmup_frac", 0.0))
    trace = build_workload(workload, length=length + warmup)
    out: Dict[str, Dict] = {}
    for label, which, engine in RUNS:
        cls = ReferenceSimulator if which == "reference" else MemorySimulator
        sim = _build_simulator(cls, config)
        result = sim.run(trace, warmup=warmup, engine=engine)
        if which == "reference" and sim.engine_used != "scalar":
            raise AssertionError(
                "reference simulator must opt out of the batch engine"
            )
        out[label] = {
            "result": result.to_dict(),
            "metrics": metrics_digest(sim),
            "mechanism": mechanism_digest(sim),
            "closed_generations": sim.generations.closed_generations,
        }
    return out


def run_pair(workload: str, length: int, config_name: str) -> Tuple[Dict, Dict]:
    """Back-compat wrapper: the production/batch and reference dicts."""
    cell = run_cell(workload, length, config_name)
    return cell["batch"], cell["reference"]


def _diff_keys(fast: Dict, ref: Dict, prefix: str = "",
               labels: Tuple[str, str] = ("fast", "reference")) -> Iterator[str]:
    """Yield dotted paths where the two dicts differ."""
    for key in sorted(set(fast) | set(ref)):
        path = f"{prefix}{key}"
        a, b = fast.get(key), ref.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            yield from _diff_keys(a, b, prefix=f"{path}.", labels=labels)
        elif a != b:
            yield f"{path}: {labels[0]}={a!r} {labels[1]}={b!r}"


def cell_diffs(cell: Dict[str, Dict]) -> List[str]:
    """Diff lines across every label pair of one :func:`run_cell` output."""
    lines: List[str] = []
    for a, b in PAIRS:
        for line in _diff_keys(cell[a], cell[b], labels=(a, b)):
            lines.append(f"[{a} vs {b}] {line}")
    return lines


def iter_mismatches(
    workloads, length: int, config_names
) -> Iterator[Tuple[str, str, List[str]]]:
    """Yield (workload, config, diff-lines) for every mismatching cell."""
    for name in workloads:
        for config_name in config_names:
            diffs = cell_diffs(run_cell(name, length, config_name))
            if diffs:
                yield name, config_name, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000,
                        help="accesses per workload (default 20000)")
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--configs", default=",".join(CONFIGS),
                        help=f"comma-separated subset of: {', '.join(CONFIGS)}")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    config_names = [c for c in args.configs.split(",") if c]
    unknown = [c for c in config_names if c not in CONFIGS]
    if unknown:
        parser.error(f"unknown configs: {', '.join(unknown)}")

    failures = 0
    cells = 0
    for name in workloads:
        for config_name in config_names:
            cells += 1
            diffs = cell_diffs(run_cell(name, args.length, config_name))
            if diffs:
                failures += 1
                print(f"MISMATCH {name}/{config_name}:")
                for line in diffs[:20]:
                    print(f"  {line}")
            else:
                print(f"ok {name}/{config_name}")
    if failures:
        print(f"{failures}/{cells} cells mismatched")
        return 1
    print(f"all {cells} cells bitwise-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
