"""The ``paper-cold`` workload: cold ``repro paper`` campaigns.

Each repetition runs :func:`repro.figures.pipeline.run_paper` for all
18 figures over the 22 SPEC2000 stand-ins × 7 configurations (154
cells) with two pool workers into a fresh store, exactly as ``repro
paper --workers 2`` does: simulate, store every cell, then load the
store and derive and render every figure.

Oracles, computed in set-up and never timed: every cell of every
campaign must equal a store-free reference that calls ``simulate``
directly, and the report (minus its wall-clock phase table) must equal
the report rendered from those reference results, and, at the default
seed, a committed golden digest.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Dict, List, Optional

import harness
import spans as spanlib

#: Measured accesses (+ warm-up) per workload, per scale.
SCALES = {"full": (12_000, 6_000), "tiny": (400, 200)}
#: Pool workers per campaign (the ``_run_pool`` engine); one per core.
WORKERS = 2
#: The report's wall-clock section, which the oracles leave out.
PHASE_TABLE = "## Sweep phase breakdown"
#: Per-layer metrics of the service client, which no campaign has.
NOT_APPLICABLE = (
    "service.submit_ms", "service.poll_ms", "service.polls_per_exec",
    "service.queue_wait_ms", "service.execute_ms", "service.outcome_inline",
    "service.outcome_cached", "service.outcome_queued", "service.outcome_attached",
)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def _strip_phase_table(text: str) -> str:
    return text.split(PHASE_TABLE, 1)[0]


def _all_cells() -> List[List[str]]:
    from repro.figures.pipeline import plan_cells
    from repro.figures.registry import select_specs

    return [[w, c] for names, configs in plan_cells(select_specs(None))
            for w in names for c in configs]


# ---------------------------------------------------------------------------
# Set-up and reference (forked children, untimed)
# ---------------------------------------------------------------------------


def setup_pass(cache_root: str, seed: int, scale: str, spool: Optional[str]) -> float:
    """Build the private trace cache for the campaign; returns seconds."""
    from repro.traces.cache import TraceCache
    from repro.traces.workloads import SPEC2000

    length, warmup = SCALES[scale]
    log = spanlib.SpanLog(spool)
    if spool:
        spanlib.install(log)

    def build() -> None:
        cache = TraceCache(root=cache_root)
        for name in SPEC2000:
            cache.prewarm(name, length + warmup, seed)

    start = time.perf_counter()
    log.call("setup", "root", build, (), {})
    return time.perf_counter() - start


def _reference_cells(cells: List[List[str]], seed: int, scale: str) -> Dict[str, Any]:
    """Serial, in-process, store-free results for *cells*."""
    from repro.figures.registry import CONFIGS
    from repro.sim.simulator import simulate
    from repro.traces.workloads import build_workload, get_workload

    length, warmup = SCALES[scale]
    out: Dict[str, Any] = {}
    trace = None
    for workload, config in cells:
        if trace is None or trace.name != workload:
            trace = build_workload(workload, length=length + warmup, seed=seed)
        result = simulate(trace, ipa=get_workload(workload).ipa, warmup=warmup,
                          **CONFIGS[config])
        out[f"{workload}/{config}"] = result.to_dict(include_metrics=True)
    return out


class _NoTelemetry:
    """Stands in for a store when rendering the reference report."""

    def telemetries(self) -> Dict[Any, Any]:
        return {}


def _reference_report(results: Dict[str, Any], seed: int, scale: str) -> str:
    from repro.figures.pipeline import render_report
    from repro.figures.registry import CONFIGS, select_specs
    from repro.sim.results import SimulationResult
    from repro.traces.workloads import SPEC2000

    length, warmup = SCALES[scale]
    suite = {
        w: {c: SimulationResult.from_dict(results[f"{w}/{c}"])
            for c in CONFIGS if f"{w}/{c}" in results}
        for w in SPEC2000
    }
    specs = select_specs(None)
    artifacts = [spec.build(spec.subset(suite)) for spec in specs]
    text = render_report(specs=specs, artifacts=artifacts, suite=suite,
                         store=_NoTelemetry(), length=length, seed=seed,
                         warmup=warmup, failed_cells=0)
    return harness.digest(_strip_phase_table(text))


def reference(seed: int, scale: str) -> Dict[str, Any]:
    """Cell digests and report digest every campaign must reproduce.

    The 154 cells are split over two forked processes (one per core),
    each computing its half serially; a third renders the report.
    """
    cells = harness.run_forked(_all_cells)
    halves = [cells[: len(cells) // 2], cells[len(cells) // 2:]]
    results: Dict[str, Any] = {}
    for part in harness.forked([(_reference_cells, (half, seed, scale))
                                for half in halves]):
        results.update(part)
    report = harness.run_forked(_reference_report, results, seed, scale)
    return {"cells": {k: harness.digest(v) for k, v in results.items()},
            "report": report}


def golden_report(seed: int, scale: str) -> Optional[str]:
    """The committed report digest for this seed and scale, if any."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    entry = golden.get(scale)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["report_sha256"]


# ---------------------------------------------------------------------------
# One repetition (forked child)
# ---------------------------------------------------------------------------


def repetition(out_dir: str, cache_root: str, seed: int, scale: str,
               spool: Optional[str]) -> Dict[str, Any]:
    """One ``run_paper`` campaign, timed; then read its outputs (untimed)."""
    from repro.figures.pipeline import run_paper

    length, warmup = SCALES[scale]
    log = spanlib.SpanLog(spool)
    if spool:
        spanlib.install(log)
    kwargs = dict(out_dir=out_dir, length=length, warmup=warmup, seed=seed,
                  workers=WORKERS, trace_cache=cache_root, obs_history=False)
    start = time.perf_counter()
    run = log.call("repetition", "root", run_paper, (), kwargs)
    wall = time.perf_counter() - start
    rss = harness.peak_rss_mb()

    cells: Dict[str, str] = {}
    cell_ms: Dict[str, List[float]] = {"batch": [], "scalar": []}
    with open(run.store_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record.get("kind") != "cell":
                continue
            key = f"{record['workload']}/{record['config']}"
            if record.get("status") != "ok":
                cells[key] = "failed"
                continue
            cells[key] = harness.digest(record["result"])
            # The runner's own per-cell telemetry: worker-side phases and
            # the engine that simulated the cell.
            telemetry = record["telemetry"]
            engine = "batch" if telemetry["counters"].get("sim.engine_used.batch") \
                else "scalar"
            cell_ms[engine].append(1000.0 * sum(
                telemetry["phases"][p][1] for p in ("synthesis", "simulate", "serialize")))
    return {
        "wall": wall, "rss": rss, "cells": cells, "cell_ms": cell_ms,
        "report": harness.digest(_strip_phase_table(run.report_text)),
        "executed": run.executed,
        "store_mb": os.path.getsize(run.store_path) / 1e6,
    }


def check(rep: Dict[str, Any], ref: Dict[str, Any], golden: Optional[str],
          results: harness.Results, *, force_mismatch: bool = False) -> None:
    """Tally one campaign's cells and report against the oracles."""
    expected = dict(ref["cells"])
    if force_mismatch:
        first = sorted(expected)[0]
        expected[first] = "forced-mismatch"
    bad = sorted(k for k in expected if rep["cells"].get(k) != expected[k])
    results.tally(len(expected), len(bad),
                  f"cells differing from the reference: {', '.join(bad[:5])}")
    report_ok = rep["report"] == ref["report"] and golden in (None, rep["report"])
    results.tally(1, 0 if report_ok else 1,
                  "report differs from the reference or the golden digest")
    if rep["executed"] != len(expected):
        results.tally(1, 1, f"{rep['executed']} cells executed, "
                            f"expected {len(expected)}")


# ---------------------------------------------------------------------------
# Workload entry point
# ---------------------------------------------------------------------------


def run(*, work: str, seed: int, scale: str, trace: bool, force_mismatch: bool,
        results: harness.Results, bench: Any) -> None:
    """Set up, measure and check ``paper-cold``."""
    cache_root = bench.setup(setup_pass, seed, scale)
    ref = reference(seed, scale)
    golden = golden_report(seed, scale)

    def one(index: int, spool: Optional[str]) -> Dict[str, Any]:
        out_dir = os.path.join(work, f"rep{index}")
        try:
            rep = harness.run_forked(repetition, out_dir, cache_root, seed,
                                     scale, spool)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        check(rep, ref, golden, results, force_mismatch=force_mismatch)
        return rep

    # Three campaigns give the 44 batch-engine cells of each enough
    # samples for a p90 with ten beyond it.
    reps = bench.measure(one, min_reps=3)
    if trace:
        bench.traced_layers(reps, workers=WORKERS,
                             store_mb=reps["traced"][0]["store_mb"])
        return
    untraced = reps["untraced"]
    walls = [r["wall"] for r in untraced]
    cells = len(ref["cells"])
    results.put("campaign_s", sum(walls) / len(walls), "s")
    results.put("jobs_per_s", cells * len(walls) / sum(walls), "1/s")
    results.latency("fast", [x for r in untraced for x in r["cell_ms"]["batch"]])
    results.latency("exec", [x for r in untraced for x in r["cell_ms"]["scalar"]])
    results.put("peak_rss_mb", harness.median([r["rss"] for r in untraced]), "MB")
