"""Diff fresh benchmark runs against the committed ``BENCH_*.json`` baselines.

Re-measures the probes those files record — simulator throughput under
both dispatch engines (batch and forced-scalar), prefetch-path
throughput, the scalar victim, timekeeping-prefetch and DBCP paper
configs, and deriving every figure from a smoke-scale paper store from
``BENCH_hotpath.json``, vectorized
100k-access trace synthesis per workload from ``BENCH_tracecache.json``,
sampled-tier and analytical-tier runtimes from ``BENCH_fidelity.json``
— and fails (exit 1) when any probe regresses past the threshold
(default 25% slower than the committed min).

Faster-than-baseline results never fail; baselines are a regression
guard, not a calibration target.  CI runners are slower and noisier
than the machine the baselines were recorded on, so CI uses ``--smoke``
(fewer rounds, a generous threshold) to catch order-of-magnitude
regressions — pathological slowdowns, accidental O(n^2) — rather than
chasing single-digit percentages.

Every measuring run also appends one record to the run-history store
(``BENCH_history.jsonl`` by default, ``--no-history`` to skip), so
``repro obs check``/``report`` can trend probe timings across commits
alongside sweep telemetry.

``--update-baseline`` re-measures every probe — including ones whose
baseline entry is missing — and writes the fresh timings back into the
``BENCH_*.json`` files, for refreshing baselines on a new machine.

Usage::

    PYTHONPATH=src python tools/bench_compare.py [--threshold 25] [--smoke]
    PYTHONPATH=src python tools/bench_compare.py --json out.json
    PYTHONPATH=src python tools/bench_compare.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.sim.simulator import MemorySimulator, make_simulator, simulate
from repro.traces.workloads import build_workload

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Baseline-relative regression threshold (percent) for a normal run.
DEFAULT_THRESHOLD = 25.0

#: Threshold used by --smoke: only flags pathological slowdowns, since
#: CI hardware bears no relation to the baseline machine.
SMOKE_THRESHOLD = 400.0

SYNTH_WORKLOADS = ("gcc", "mcf", "twolf", "ammp")


class Probe:
    """One re-measurable benchmark with a path into a baseline file."""

    def __init__(self, name: str, baseline_file: str, baseline_path: str,
                 fn: Callable[[], Any]) -> None:
        self.name = name
        self.baseline_file = baseline_file
        self.baseline_path = baseline_path  # dotted path to a min-ms number
        self.fn = fn

    def measure(self, rounds: int) -> float:
        """Best-of-*rounds* wall time in milliseconds."""
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            self.fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3


def _probe_throughput(engine: str) -> Callable[[], Any]:
    # The trace is built outside the timed body to match what the
    # pytest benchmark (and hence the committed baseline) measures:
    # run() alone, not synthesis + run.
    trace = build_workload("gcc", length=20_000)

    def fn() -> None:
        sim = MemorySimulator(ipa=6.0, collect_metrics=True)
        result = sim.run(trace, engine=engine)
        assert result.accesses == 20_000
        assert sim.engine_used == engine
    return fn


def _probe_prefetch() -> Callable[[], Any]:
    trace = build_workload("swim", length=20_000)

    def fn() -> None:
        result = simulate(trace, ipa=3.0, prefetcher="timekeeping")
        assert result.prefetch.issued > 0
    return fn


def _probe_scalar_config(config: Mapping[str, Any]) -> Callable[[], Any]:
    # A paper campaign cell shape: no metrics bank, so the scalar loop
    # runs with generation bookkeeping off.
    trace = build_workload("gcc", length=20_000)

    def fn() -> None:
        sim = make_simulator(ipa=6.0, **config)
        result = sim.run(trace)
        assert result.accesses == 20_000
        assert sim.engine_used == "scalar"
    return fn


def _probe_derive() -> Callable[[], Any]:
    # The smoke-scale store is written once, outside the timed body;
    # the probe times derive_figures over it (store scan, metric-bank
    # decoding, every figure's build, the report).
    from repro.figures.pipeline import SMOKE_LENGTH, derive_figures, run_paper
    from repro.figures.registry import select_specs
    from repro.sim.store import RunStore

    workdir = tempfile.TemporaryDirectory()
    run = run_paper(out_dir=workdir.name, smoke=True, trace_cache=False,
                    write_report=False, obs_history=False)
    specs = select_specs(None)

    def fn() -> None:
        with RunStore(run.store_path) as store:
            text = derive_figures(specs, store, length=SMOKE_LENGTH)[1]
        assert text == run.report_text
    fn.workdir = workdir  # type: ignore[attr-defined]  # removed with the probe
    return fn


def _probe_synthesis(workload: str) -> Callable[[], Any]:
    def fn() -> None:
        trace = build_workload(workload, length=100_000, engine="vectorized")
        assert len(trace) == 100_000
    return fn


# Probe scale shared with measure_probes() in tools/validate_fidelity.py
# — the baseline writer and the regression checker must time the same
# body or the comparison is meaningless.
FIDELITY_PROBE_WORKLOAD = "gcc"
FIDELITY_PROBE_LENGTH = 60_000


def _probe_sampled() -> Callable[[], Any]:
    from repro.sim.sampling import simulate_sampled

    trace = build_workload(FIDELITY_PROBE_WORKLOAD,
                           length=FIDELITY_PROBE_LENGTH)
    warmup = FIDELITY_PROBE_LENGTH // 3

    def fn() -> None:
        result = simulate_sampled(trace, ipa=6.0, warmup=warmup, seed=0)
        assert result.fidelity == "sampled"
    return fn


def _probe_analytical() -> Callable[[], Any]:
    from repro.analysis.reuse import simulate_analytical

    trace = build_workload(FIDELITY_PROBE_WORKLOAD,
                           length=FIDELITY_PROBE_LENGTH)
    warmup = FIDELITY_PROBE_LENGTH // 3

    def fn() -> None:
        # Cold (no cache): the deterministic cost of building the
        # reuse profile plus assembling the result.
        result = simulate_analytical(trace, ipa=6.0, warmup=warmup)
        assert result.fidelity == "analytical"
    return fn


def default_probes() -> List[Probe]:
    probes = [
        Probe("simulator_throughput.batch", "BENCH_hotpath.json",
              "results.test_perf_simulator_throughput.after_ms.min",
              _probe_throughput("batch")),
        Probe("simulator_throughput.scalar", "BENCH_hotpath.json",
              "results.test_perf_simulator_throughput_scalar.after_ms.min",
              _probe_throughput("scalar")),
        Probe("simulator_with_prefetch", "BENCH_hotpath.json",
              "results.test_perf_simulator_with_prefetch.after_ms.min",
              _probe_prefetch()),
        Probe("sim.scalar_victim", "BENCH_hotpath.json",
              "results.test_perf_scalar_victim.after_ms.min",
              _probe_scalar_config({"victim_filter": "timekeeping"})),
        Probe("sim.scalar_prefetch", "BENCH_hotpath.json",
              "results.test_perf_scalar_prefetch.after_ms.min",
              _probe_scalar_config({"prefetcher": "timekeeping"})),
        Probe("sim.scalar_dbcp", "BENCH_hotpath.json",
              "results.test_perf_scalar_dbcp.after_ms.min",
              _probe_scalar_config({"prefetcher": "dbcp"})),
        Probe("figures.derive", "BENCH_hotpath.json",
              "results.test_perf_derive_figures.after_ms.min",
              _probe_derive()),
    ]
    for name in SYNTH_WORKLOADS:
        probes.append(
            Probe(f"synthesis_100k.{name}", "BENCH_tracecache.json",
                  f"synthesis_100k.{name}.vectorized_ms.min_ms",
                  _probe_synthesis(name))
        )
    tag = f"{FIDELITY_PROBE_WORKLOAD}_{FIDELITY_PROBE_LENGTH // 1000}k"
    probes.append(Probe("fidelity.sampled", "BENCH_fidelity.json",
                        f"probes.sampled_{tag}.min_ms", _probe_sampled()))
    probes.append(Probe("fidelity.analytical", "BENCH_fidelity.json",
                        f"probes.analytical_{tag}.min_ms", _probe_analytical()))
    return probes


def _dig(obj: Mapping[str, Any], dotted: str) -> Optional[float]:
    node: Any = obj
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def load_baselines(root: Path, files: List[str]) -> Dict[str, Mapping[str, Any]]:
    out: Dict[str, Mapping[str, Any]] = {}
    for name in files:
        path = root / name
        if not path.exists():
            print(f"warning: baseline {path} missing; its probes are skipped",
                  file=sys.stderr)
            continue
        with open(path, "r", encoding="utf-8") as fh:
            out[name] = json.load(fh)
    return out


def compare(probes: List[Probe], baselines: Mapping[str, Mapping[str, Any]],
            *, rounds: int, threshold: float) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for probe in probes:
        baseline_obj = baselines.get(probe.baseline_file)
        baseline = (
            _dig(baseline_obj, probe.baseline_path)
            if baseline_obj is not None else None
        )
        if baseline is None:
            rows.append({"probe": probe.name, "status": "skipped",
                         "reason": f"no baseline at {probe.baseline_file}:"
                                   f"{probe.baseline_path}"})
            continue
        current = probe.measure(rounds)
        delta_pct = (current - baseline) / baseline * 100.0
        rows.append({
            "probe": probe.name,
            "baseline_ms": round(baseline, 2),
            "current_ms": round(current, 2),
            "delta_pct": round(delta_pct, 1),
            "status": "regressed" if delta_pct > threshold else "ok",
        })
    return rows


def _set_path(obj: Dict[str, Any], dotted: str, value: float) -> None:
    """Write *value* at the *dotted* path, creating intermediate dicts."""
    parts = dotted.split(".")
    node = obj
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise TypeError(f"baseline path {dotted!r} collides with a "
                            f"non-object at {part!r}")
    node[parts[-1]] = round(value, 3)


def update_baselines(probes: List[Probe],
                     baselines: Dict[str, Dict[str, Any]],
                     root: Path, *, rounds: int) -> List[Dict[str, Any]]:
    """Measure every probe and write the timings back into the files.

    Missing baseline files and missing entries are created, so a fresh
    machine can bootstrap its baselines in one run.  Returns rows in the
    same shape ``compare`` produces (status ``updated``).
    """
    rows: List[Dict[str, Any]] = []
    for probe in probes:
        current = probe.measure(rounds)
        obj = baselines.setdefault(probe.baseline_file, {})
        _set_path(obj, probe.baseline_path, current)
        rows.append({"probe": probe.name, "current_ms": round(current, 2),
                     "status": "updated"})
    for name in sorted({p.baseline_file for p in probes}):
        path = root / name
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(baselines[name], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"updated {path}", file=sys.stderr)
    return rows


def history_record(rows: List[Dict[str, Any]], *, rounds: int) -> Dict[str, Any]:
    """Run-history record for one probe pass (source ``bench``).

    Metric names are ``probe_ms_<name>`` with dots flattened — the
    sentinel's lower-is-better ``probe_ms_`` family, so slowdowns are
    flagged by ``repro obs check`` like any other regression.
    """
    from repro.common.config import config_digest
    from repro.obs.history import build_run_record

    measured = [r for r in rows if "current_ms" in r]
    metrics = {
        "probe_ms_" + r["probe"].replace(".", "_"): r["current_ms"]
        for r in measured
    }
    digest = config_digest({
        "probes": sorted(r["probe"] for r in measured),
        "rounds": rounds,
    })
    return build_run_record(source="bench", metrics=metrics,
                            manifest_digest=digest)


def append_history(path: Path, rows: List[Dict[str, Any]],
                   *, rounds: int) -> None:
    """Best-effort append of this pass to the run-history store."""
    from repro.obs.history import ObsStore, append_best_effort

    record = history_record(rows, rounds=rounds)
    if not record["metrics"]:
        return
    warning = append_best_effort(ObsStore(path), record)
    if warning is not None:
        print(warning, file=sys.stderr)
    else:
        print(f"appended {len(record['metrics'])} probe timing(s) to {path}",
              file=sys.stderr)


def render(rows: List[Dict[str, Any]], threshold: float, out=sys.stdout) -> None:
    width = max(len(r["probe"]) for r in rows) if rows else 5
    print(f"{'probe':<{width}}  {'baseline':>10}  {'current':>10}  "
          f"{'delta':>8}  status", file=out)
    for row in rows:
        if row["status"] == "skipped":
            print(f"{row['probe']:<{width}}  {'-':>10}  {'-':>10}  {'-':>8}  "
                  f"skipped ({row['reason']})", file=out)
            continue
        print(f"{row['probe']:<{width}}  {row['baseline_ms']:>8.2f}ms  "
              f"{row['current_ms']:>8.2f}ms  {row['delta_pct']:>+7.1f}%  "
              f"{row['status']}", file=out)
    regressed = [r for r in rows if r["status"] == "regressed"]
    if regressed:
        names = ", ".join(r["probe"] for r in regressed)
        print(f"\nFAIL: {len(regressed)} probe(s) regressed past "
              f"{threshold:g}%: {names}", file=out)
    else:
        print(f"\nOK: no probe regressed past {threshold:g}%", file=out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare fresh benchmarks against committed BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=None,
                        help="fail when a probe is this %% slower than its "
                             f"baseline (default {DEFAULT_THRESHOLD:g}, "
                             f"{SMOKE_THRESHOLD:g} with --smoke)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="timing rounds per probe, best-of (default 5, "
                             "2 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: fewer rounds, generous threshold — "
                             "catches pathological slowdowns only")
    parser.add_argument("--baseline-dir", type=Path, default=REPO_ROOT,
                        help="directory holding the BENCH_*.json files")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="also write the comparison rows as JSON")
    parser.add_argument("--history", type=Path, default=None, metavar="FILE",
                        help="run-history store to append probe timings to "
                             "(default: <baseline-dir>/BENCH_history.jsonl)")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this pass to the run history")
    parser.add_argument("--update-baseline", action="store_true",
                        help="measure every probe (skipped ones included) and "
                             "write the timings back into the BENCH_*.json "
                             "files instead of comparing")
    args = parser.parse_args(argv)

    threshold = args.threshold if args.threshold is not None else (
        SMOKE_THRESHOLD if args.smoke else DEFAULT_THRESHOLD)
    rounds = args.rounds if args.rounds is not None else (2 if args.smoke else 5)

    probes = default_probes()
    baselines = load_baselines(
        args.baseline_dir, sorted({p.baseline_file for p in probes}))
    history_path = args.history or (args.baseline_dir / "BENCH_history.jsonl")

    if args.update_baseline:
        rows = update_baselines(probes, dict(baselines), args.baseline_dir,
                                rounds=rounds)
        for row in rows:
            print(f"{row['probe']}: {row['current_ms']:.2f}ms")
        if not args.no_history:
            append_history(history_path, rows, rounds=rounds)
        return 0

    rows = compare(probes, baselines, rounds=rounds, threshold=threshold)
    render(rows, threshold)
    if not args.no_history:
        append_history(history_path, rows, rounds=rounds)

    if args.json:
        payload = {"threshold_pct": threshold, "rounds": rounds, "rows": rows}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    measured = [r for r in rows if r["status"] != "skipped"]
    if not measured:
        print("error: nothing measured (all baselines missing?)", file=sys.stderr)
        return 2
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
