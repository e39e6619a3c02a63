"""Span recording for the benchmark's traced run.

The traced run wraps the public functions at each layer boundary of
``repro`` from here, so no program code changes.  Every wrapped call
becomes a span: name, layer, start and end (``time.perf_counter_ns``,
which is CLOCK_MONOTONIC and so shared by every process on the host),
pid, thread, the name of the span that called it, and its *self* time
(duration minus its direct children, which nest strictly within one
thread).  Spans are kept in memory per thread and appended to one
spool file per process whenever a thread's outermost span ends, so
forked pool workers and the service daemon hand their spans back
without any extra channel.

Because self times telescope, the self times of every span on one
thread add up exactly to the outermost span's duration; the attribution
check in :func:`attribution` relies on that and fails if a span ever
escapes its parent.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class SpanLog:
    """Per-process span buffer with a spool directory as its sink."""

    def __init__(self, spool: Optional[str] = None) -> None:
        """Record into ``<spool>/spans-<pid>.jsonl``.

        Without a spool (an untraced run) nothing is wrapped, so only
        the root span the benchmark opens itself passes through here,
        and it is dropped.
        """
        self.spool = spool
        self._pid = -1
        self._reset()

    def _reset(self) -> None:
        # A forked child starts with its own empty buffers and lock.
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_state(self) -> Tuple[list, list]:
        if self._pid != os.getpid():
            self._reset()
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.done = []
        return local.stack, local.done

    def call(self, name: str, layer: Optional[str], fn: Callable, args, kwargs,
             annotate: Optional[Callable] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span; return its result."""
        stack, done = self._thread_state()
        parent = stack[-1] if stack else None
        if layer is None:  # inherit: the same call serves several layers
            layer = parent["layer"] if parent else "unattributed"
        frame = {"name": name, "layer": layer, "child_ns": 0}
        stack.append(frame)
        start = time.perf_counter_ns()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1]["child_ns"] += end - start
            record = {
                "name": name, "layer": layer, "start": start, "end": end,
                "self": end - start - frame["child_ns"],
                "pid": self._pid, "tid": threading.get_ident(),
                "parent": parent["name"] if parent else None,
                "ok": ok,
            }
            if ok and annotate is not None:
                record["attrs"] = annotate(args, kwargs, result)
            done.append(record)
            if not stack:
                self._flush(done)

    def _flush(self, done: list) -> None:
        if self.spool is None:
            done.clear()
            return
        lines = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in done)
        done.clear()
        path = os.path.join(self.spool, f"spans-{self._pid}.jsonl")
        with self._lock, open(path, "a", encoding="utf-8") as fh:
            fh.write(lines)


def read_spool(spool: str) -> List[Dict[str, Any]]:
    """Every span written under *spool*, in start order."""
    spans: List[Dict[str, Any]] = []
    for fname in sorted(os.listdir(spool)):
        if fname.startswith("spans-"):
            with open(os.path.join(spool, fname), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    spans.sort(key=lambda s: (s["start"], -s["end"]))
    return spans


# ---------------------------------------------------------------------------
# Layer boundaries
# ---------------------------------------------------------------------------


def _sim_attrs(args, kwargs, result) -> Dict[str, Any]:
    sim, trace = args[0], args[1]
    kind = "base"
    if result.prefetch is not None:
        kind = "pf"
    elif result.victim is not None:
        kind = "victim"
    return {"engine": sim.engine_used, "kind": kind, "accesses": len(trace)}


def _sweep_attrs(args, kwargs, report) -> Dict[str, Any]:
    return {"executed": report.executed, "replayed": report.replayed}


def _lookup_attrs(args, kwargs, trace) -> Dict[str, Any]:
    return {"hit": trace is not None}


#: ``(module, attribute path, span name, layer, annotate)``.  Layer
#: ``None`` means the span takes its caller's layer (``from_dict`` replays
#: stored cells for the runner and loads them for figure derivation);
#: *annotate* turns ``(args, kwargs, result)`` into the span's attributes.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.traces.workloads", "WorkloadSpec.build", "traces.synth", "traces", None),
    ("repro.traces.cache", "TraceCache.get", "traces.lookup", "traces", _lookup_attrs),
    ("repro.sim.simulator", "MemorySimulator.run", "sim.run", "sim", _sim_attrs),
    ("repro.sim.runner", "run_sweep", "runner.run_sweep", "runner", _sweep_attrs),
    ("repro.sim.results", "SimulationResult.to_dict", "runner.serialize", "runner", None),
    ("repro.sim.results", "SimulationResult.from_dict", "from_dict", None, None),
    ("repro.sim.store", "RunStore.record_result", "store.append", "store", None),
    ("repro.sim.store", "RunStore.load_report", "store.load", "store", None),
    ("repro.figures.pipeline", "load_suite", "figures.load_suite", "figures", None),
    ("repro.core.predictors.base", "BinaryPredictor.evaluate",
     "figures.threshold_eval", "figures", None),
    ("repro.figures.pipeline", "render_report", "figures.render", "figures", None),
    ("repro.analysis.reuse", "compute_profile", "reuse.profile_build", "reuse", None),
    ("repro.analysis.reuse", "simulate_analytical", "reuse.analytical", "reuse", None),
    ("repro.service.jobs", "JobJournal.append_job", "service.journal_append",
     "service", None),
    ("repro.service.client", "ServiceClient.request", "service.request", "service",
     None),
)


def _wrapped(log: SpanLog, name: str, layer: Optional[str], fn: Callable,
             annotate: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        return log.call(name, layer, fn, args, kwargs, annotate)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def install(log: SpanLog) -> None:
    """Wrap the boundaries in :data:`BOUNDARIES` (once per process).

    Module-level functions are replaced in every loaded ``repro`` module
    that imported them by name, so call sites that bound the function at
    import time are traced too.
    """
    for module_name, path, name, layer, annotate in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    _wrapped(log, name, layer, raw.__func__, annotate)))
            else:
                setattr(owner, attr, _wrapped(log, name, layer, raw, annotate))
            continue
        original = getattr(module, attr)
        replacement = _wrapped(log, name, layer, original, annotate)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
    # A figure's ``build`` is a per-spec field, not a method.
    from repro.figures.registry import REGISTRY

    for spec in REGISTRY.values():
        object.__setattr__(spec, "build", _wrapped(
            log, "figures.build", "figures", spec.build, None))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def attribution(spans: Iterable[Dict[str, Any]], root: Dict[str, Any]
                ) -> Dict[str, int]:
    """Self time per layer on *root*'s thread, in ns, plus ``unattributed``.

    Raises ``ValueError`` when the self times of the spans inside the
    root do not add up to its duration, which happens when a span
    escapes its parent.
    """
    by_layer: Dict[str, int] = {}
    for span in spans:
        if span["pid"] != root["pid"] or span["tid"] != root["tid"]:
            continue
        if span["start"] < root["start"] or span["end"] > root["end"]:
            continue  # another repetition's spans on the same thread
        layer = "unattributed" if span is root else span["layer"]
        by_layer[layer] = by_layer.get(layer, 0) + span["self"]
    total = sum(by_layer.values())
    wall = root["end"] - root["start"]
    if total != wall:
        raise ValueError(f"layer self times sum to {total} ns, wall is {wall} ns")
    return by_layer


def chrome_trace(spans: List[Dict[str, Any]], labels: Dict[int, str]) -> Dict[str, Any]:
    """Spans as a Chrome-trace object (``X`` events, µs, named processes)."""
    origin = min(s["start"] for s in spans)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
         "args": {"name": label}}
        for pid, label in sorted(labels.items())
    ]
    for span in spans:
        events.append({
            "name": span["name"], "cat": span["layer"], "ph": "X",
            "ts": (span["start"] - origin) / 1000.0,
            "dur": (span["end"] - span["start"]) / 1000.0,
            "pid": span["pid"], "tid": span["tid"] % 1_000_000,
            "args": span.get("attrs") or {},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def within(spans: Iterable[Dict[str, Any]], roots: Sequence[Dict[str, Any]]
           ) -> List[Dict[str, Any]]:
    """Spans (from any process) that lie inside one of *roots*."""
    return [s for s in spans
            if any(r["start"] <= s["start"] and s["end"] <= r["end"] for r in roots)]


def _secs(spans: Iterable[Dict[str, Any]]) -> float:
    return sum(s["end"] - s["start"] for s in spans) / 1e9


def layer_metrics(spans: List[Dict[str, Any]], roots: Sequence[Dict[str, Any]],
                  *, workers: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the repetitions under *roots*, per repetition.

    Times are busy seconds summed over every process (pool workers and
    the service daemon included), so ``sim.*`` can exceed the wall time
    when cells run in parallel.
    """
    reps = len(roots)
    inside = within(spans, roots)

    def named(name: str, **attrs: Any) -> List[Dict[str, Any]]:
        return [s for s in inside if s["name"] == name and s["ok"]
                and all(s["attrs"][k] == v for k, v in attrs.items())]

    out: Dict[str, Tuple[float, str]] = {}
    runs = named("sim.run")
    for engine in ("batch", "scalar"):
        chosen = [s for s in runs if s["attrs"]["engine"] == engine]
        busy = _secs(chosen)
        accesses = sum(s["attrs"]["accesses"] for s in chosen)
        out[f"sim.{engine}_s"] = (busy / reps, "s")
        out[f"sim.{engine}_cells"] = (len(chosen) / reps, "count")
        out[f"sim.{engine}_accesses_per_s"] = (accesses / busy if busy else 0.0, "1/s")
    for kind in ("base", "victim", "pf"):
        out[f"sim.{kind}_s"] = (_secs(s for s in runs if s["attrs"]["kind"] == kind)
                                / reps, "s")

    sweeps = named("runner.run_sweep")
    execute = _secs(sweeps)
    out["runner.execute_s"] = (execute / reps, "s")
    out["runner.busy_frac"] = (_secs(runs) / (workers * execute) if execute else 0.0,
                               "frac")
    out["runner.serialize_s"] = (_secs(named("runner.serialize")) / reps, "s")
    out["runner.cells_executed"] = (
        sum(s["attrs"]["executed"] for s in sweeps) / reps, "count")
    out["runner.cells_replayed"] = (
        sum(s["attrs"]["replayed"] for s in sweeps) / reps, "count")

    for op in ("append", "load"):
        chosen = named(f"store.{op}")
        out[f"store.{op}_s"] = (_secs(chosen) / reps, "s")
        out[f"store.{op}s"] = (len(chosen) / reps, "count")

    loads = [s for s in named("from_dict") if s["parent"] == "figures.load_suite"]
    evals = named("figures.threshold_eval")
    out["figures.load_suite_s"] = (_secs(named("figures.load_suite")) / reps, "s")
    out["figures.from_dict_s"] = (_secs(loads) / reps, "s")
    out["figures.threshold_eval_s"] = (_secs(evals) / reps, "s")
    out["figures.threshold_evals"] = (len(evals) / reps, "count")
    out["figures.build_s"] = (_secs(named("figures.build")) / reps, "s")
    out["figures.render_s"] = (_secs(named("figures.render")) / reps, "s")

    lookups = named("traces.lookup")
    hits = sum(1 for s in lookups if s["attrs"]["hit"])
    out["traces.cache_hit_frac"] = (hits / len(lookups) if lookups else 0.0, "frac")
    out["reuse.inline_cells"] = (len(named("reuse.analytical")) / reps, "count")
    out["service.journal_append_s"] = (
        _secs(named("service.journal_append")) / reps, "s")
    return out


def setup_metrics(spans: List[Dict[str, Any]], roots: Sequence[Dict[str, Any]]
                  ) -> Dict[str, Tuple[float, str]]:
    """Set-up layer metrics, per set-up pass."""
    inside = within(spans, roots)
    per = len(roots)
    return {
        "traces.synth_s": (_secs(s for s in inside if s["name"] == "traces.synth")
                           / per, "s"),
        "reuse.profile_build_s": (
            _secs(s for s in inside if s["name"] == "reuse.profile_build") / per, "s"),
    }
