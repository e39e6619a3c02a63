"""The ``repro paper`` orchestrator: specs -> sweep -> report.

:func:`run_paper` turns the figure registry into one campaign:

1. **Expand** the selected :class:`~repro.figures.spec.FigureSpec`
   entries into a deduplicated workload×config cell matrix (figures
   sharing a cell — every speedup figure's ``base``, for example — get
   it simulated exactly once).
2. **Execute** the matrix through :func:`repro.sim.runner.run_sweep`:
   checkpoint/resume via :class:`~repro.sim.store.RunStore`, the shared
   trace cache, optional worker processes, and per-cell telemetry; full
   metric banks are persisted (``store_metrics=True``).
3. **Derive** every figure's dataset from the store contents alone and
   render ``docs/REPRODUCTION.md`` — paper-target vs measured tables,
   ASCII figures, pass/fail shape verdicts, and the sweep's phase/time
   breakdown.

Because step 3 reads only the store (never the in-memory results of
step 2), a warm re-run over a complete store regenerates the report
byte-identically — the property CI checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..common.config import MachineConfig, config_digest, paper_machine
from ..common.jsonl import gc_suspended
from ..obs.history import append_best_effort, paper_run_record, resolve_history
from ..obs.metrics import PHASES, aggregate_phases
from ..sim.results import SimulationResult
from ..sim.runner import FaultHook, run_sweep
from ..sim.store import LoadReport, RunStore
from ..traces.workloads import SPEC2000
from .registry import CONFIGS, select_specs
from .spec import CheckResult, FigureArtifact, FigureSpec

#: Campaign defaults: the benchmark harness's full-fidelity scale ...
FULL_LENGTH = 60_000
#: ... and the reduced scale used by ``repro paper --smoke`` and CI.
SMOKE_LENGTH = 4_000

#: Default report/store location (``--out`` overrides the directory).
REPORT_NAME = "REPRODUCTION.md"
STORE_NAME = "paper_store.jsonl"


@dataclass
class PaperRun:
    """Everything one ``repro paper`` invocation produced."""

    artifacts: List[FigureArtifact]
    report_path: str
    store_path: str
    #: cells executed / replayed from the store this invocation.
    executed: int
    replayed: int
    failures: int
    report_text: str = ""

    @property
    def passed(self) -> bool:
        """True when every figure's shape checks held and no cell failed."""
        return self.failures == 0 and all(a.passed for a in self.artifacts)


def plan_cells(
    specs: Sequence[FigureSpec],
) -> List[Tuple[Tuple[str, ...], Dict[str, Dict[str, Any]]]]:
    """Group the specs' cells into per-workload-set sweep calls.

    Returns ``[(workloads, {config_name: config}), ...]``: each group is
    one ``run_sweep`` invocation (a full cross product), and distinct
    groups arise only when configs need different workload sets (e.g.
    the best-performer prefetch figures vs the full-suite ones).  The
    union of the groups' cross products is exactly the union of every
    spec's needed cells — nothing runs twice, nothing extra runs.
    """
    config_workloads: Dict[str, set] = {}
    for spec in specs:
        names = spec.workloads if spec.workloads is not None else tuple(SPEC2000)
        for config in spec.configs:
            config_workloads.setdefault(config, set()).update(names)
    groups: Dict[Tuple[str, ...], Dict[str, Dict[str, Any]]] = {}
    for config in CONFIGS:  # deterministic config order
        if config not in config_workloads:
            continue
        workloads = tuple(w for w in SPEC2000 if w in config_workloads[config])
        groups.setdefault(workloads, {})[config] = dict(CONFIGS[config])
    return list(groups.items())


def load_suite(
    store: Union[RunStore, LoadReport],
) -> Tuple[Dict[str, Dict[str, SimulationResult]], int]:
    """Rebuild the result suite from a checkpoint store.

    *store* is a :class:`RunStore` (scanned here) or the
    :class:`LoadReport` of a scan already made.  Returns
    ``({workload: {config: result}}, failed_cell_count)`` in
    deterministic order (SPEC2000 workload order, registry config
    order) regardless of the order cells happened to finish in — one of
    the two properties that make report regeneration byte-identical.
    """
    scan = store if isinstance(store, LoadReport) else store.load_report()
    ok: Dict[Tuple[str, str], SimulationResult] = {}
    failed = 0
    with gc_suspended():  # from_dict builds columns, never cycles
        for (workload, config), record in scan.cells.items():
            if record.get("status") == "ok":
                ok[(workload, config)] = SimulationResult.from_dict(record["result"])
            else:
                failed += 1
    workload_order = [w for w in SPEC2000 if any(k[0] == w for k in ok)]
    config_order = [c for c in CONFIGS if any(k[1] == c for k in ok)]
    suite: Dict[str, Dict[str, SimulationResult]] = {}
    for workload in workload_order:
        row = {
            config: ok[(workload, config)]
            for config in config_order
            if (workload, config) in ok
        }
        if row:
            suite[workload] = row
    return suite, failed


def _build_artifact(spec: FigureSpec, suite: Mapping) -> FigureArtifact:
    """Evaluate one spec, degrading missing data to a failed check."""
    try:
        return spec.build(spec.subset(suite))
    except Exception as exc:  # incomplete store (failed/missing cells)
        return FigureArtifact(
            spec.fig_id,
            spec.title,
            f"(not derivable from this store: {exc})",
            [CheckResult("figure derivable from store", False, str(exc))],
        )


def execute_plan(
    groups: Sequence[Tuple[Tuple[str, ...], Dict[str, Dict[str, Any]]]],
    store: RunStore,
    *,
    length: int,
    seed: int = 0,
    warmup: Optional[int] = None,
    machine: Optional[MachineConfig] = None,
    resume: bool = False,
    retry_poisoned: bool = False,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    hang_grace: Optional[float] = None,
    trace_cache: Any = True,
    observer: Any = None,
    progress: Any = None,
    fault_hook: Optional[FaultHook] = None,
    engine: str = "batch",
    fidelity: str = "exact",
    cancel: Any = None,
) -> List["Any"]:
    """Execute a :func:`plan_cells` plan into *store*, one sweep per group.

    This is the middle layer of the pipeline — no registry lookups, no
    CLI parsing, no report rendering — so both ``repro paper`` and the
    service gateway (:mod:`repro.service`) drive the identical
    execution path.  *store* must be an open-able :class:`RunStore`;
    later groups always resume into it (they share the campaign).
    Returns the per-group :class:`~repro.sim.runner.SweepReport` list.
    A *cancel* probe is forwarded to every ``run_sweep`` call and also
    checked between groups, so a cancelled campaign stops at the next
    cell boundary with the store resumable.
    """
    resolved_warmup = warmup if warmup is not None else length // 2
    reports: List[Any] = []
    first = True
    for names, configs in groups:
        if cancel is not None and cancel():
            break
        report = run_sweep(
            configs,
            workloads=list(names),
            length=length,
            seed=seed,
            machine=machine,
            warmup=resolved_warmup,
            workers=workers,
            timeout=timeout,
            retries=retries,
            hang_grace=hang_grace,
            store=store,
            # Later groups always resume into the store they share.
            resume=resume if first else True,
            retry_poisoned=retry_poisoned,
            trace_cache=trace_cache,
            observer=observer,
            progress=progress,
            fault_hook=fault_hook,
            telemetry=True,
            store_metrics=True,
            engine=engine,
            fidelity=fidelity,
            # The campaign-level caller appends one aggregated record
            # itself; per-group appends would skew the trajectory.
            obs_history=False,
            cancel=cancel,
        )
        reports.append(report)
        first = False
    return reports


def derive_figures(
    specs: Sequence[FigureSpec],
    store: RunStore,
    *,
    length: int,
    seed: int = 0,
    warmup: Optional[int] = None,
) -> Tuple[List[FigureArtifact], str, int]:
    """Derive every spec's figure from *store* contents alone.

    The top layer of the pipeline: reads only the checkpoint store
    (never in-memory sweep results), so it can run in a different
    process — or a different *day* — than :func:`execute_plan`, and a
    warm re-run over a complete store regenerates the report
    byte-identically.  Returns ``(artifacts, report_text,
    failed_cell_count)``.
    """
    resolved_warmup = warmup if warmup is not None else length // 2
    # One scan of the store serves both the suite and the report's
    # phase table.
    scan = store.load_report()
    suite, stored_failures = load_suite(scan)
    artifacts = [_build_artifact(spec, suite) for spec in specs]
    report_text = render_report(
        specs=specs,
        artifacts=artifacts,
        suite=suite,
        store=scan,
        length=length,
        seed=seed,
        warmup=resolved_warmup,
        failed_cells=stored_failures,
    )
    return artifacts, report_text, stored_failures


def run_paper(
    *,
    only: Optional[Sequence[str]] = None,
    out_dir: str = "docs",
    store_path: Optional[str] = None,
    length: Optional[int] = None,
    seed: int = 0,
    warmup: Optional[int] = None,
    machine: Optional[MachineConfig] = None,
    smoke: bool = False,
    resume: bool = False,
    retry_poisoned: bool = False,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    hang_grace: Optional[float] = None,
    workloads: Optional[Sequence[str]] = None,
    trace_cache: Any = True,
    observer: Any = None,
    progress: Any = None,
    fault_hook: Optional[FaultHook] = None,
    write_report: bool = True,
    engine: str = "batch",
    fidelity: str = "exact",
    obs_history: Any = None,
) -> PaperRun:
    """Reproduce the paper's evaluation end to end.

    Args:
        only: figure handles (``fig01`` ... ``table1``) to restrict the
            campaign to; default is every registered figure.
        out_dir: directory receiving ``REPRODUCTION.md`` (created if
            missing); also the default home of the checkpoint store.
        store_path: checkpoint store path (default
            ``<out_dir>/paper_store.jsonl``).
        length: measured accesses per workload; defaults to the
            benchmark harness's full scale, or the reduced smoke scale
            with ``smoke=True``.
        seed, machine: as for :func:`repro.sim.runner.run_sweep`.
        warmup: warm-up accesses (default ``length // 2``, matching the
            benchmark harness).
        smoke: use the reduced CI scale when *length* is not given.
        resume: continue a previously interrupted campaign from the
            store instead of refusing to reuse it.
        retry_poisoned: re-execute cells whose stored record is a
            failure instead of quarantining them (see ``run_sweep``).
        workers, timeout, retries, hang_grace: fault-tolerance knobs
            passed through to ``run_sweep``.
        workloads: restrict every spec to these workloads (testing and
            smoke subsets; shape checks on absent workloads SKIP).
        trace_cache: as for ``run_sweep`` (default: shared cache on).
        observer, progress: as for ``run_sweep``.
        fault_hook: test/chaos hook run in the worker before each cell.
        write_report: set False to skip writing ``REPRODUCTION.md``
            (the rendered text is still returned).
        engine: dispatch engine for every cell (``"batch"`` with
            automatic scalar fallback, or ``"scalar"``).  Results, the
            store, and the report are bitwise-identical either way —
            the CI smoke leg runs both to prove it.
        fidelity: fidelity tier for every cell (``"exact"`` default;
            see :func:`repro.sim.runner.run_sweep`).  ``"sampled"``
            trades exactness for speed on every figure; shape checks
            calibrated against exact results may legitimately FAIL on
            extrapolated numbers.  ``"analytical"`` supports only
            baseline configurations — victim/prefetch/decay figures
            record per-cell failures under it.
        obs_history: cross-run history (path or
            :class:`~repro.obs.history.ObsStore`) receiving **one**
            aggregated record for the whole campaign under source
            ``"paper"`` — the per-group sweeps are told not to append
            their own, so a campaign is one trajectory point, not one
            per figure group.  ``None`` consults ``REPRO_OBS_HISTORY``;
            ``False`` disables.  Appends are best-effort.

    Returns:
        A :class:`PaperRun` with per-figure artifacts and verdicts.
    """
    specs = select_specs(only)
    resolved_length = length if length is not None else (
        SMOKE_LENGTH if smoke else FULL_LENGTH
    )
    resolved_warmup = warmup if warmup is not None else resolved_length // 2
    resolved_store = store_path or os.path.join(out_dir, STORE_NAME)
    os.makedirs(out_dir, exist_ok=True)

    groups = plan_cells(specs)
    if workloads is not None:
        allowed = set(workloads)
        groups = [
            (tuple(w for w in names if w in allowed), configs)
            for names, configs in groups
        ]
        groups = [(names, configs) for names, configs in groups if names]

    store = RunStore(resolved_store)
    with store:
        group_reports = execute_plan(
            groups,
            store,
            length=resolved_length,
            seed=seed,
            warmup=resolved_warmup,
            machine=machine,
            resume=resume,
            retry_poisoned=retry_poisoned,
            workers=workers,
            timeout=timeout,
            retries=retries,
            hang_grace=hang_grace,
            trace_cache=trace_cache,
            observer=observer,
            progress=progress,
            fault_hook=fault_hook,
            engine=engine,
            fidelity=fidelity,
        )
        executed = sum(r.executed for r in group_reports)
        replayed = sum(r.replayed for r in group_reports)
        failures = sum(len(r.failures) for r in group_reports)

        artifacts, report_text, stored_failures = derive_figures(
            specs, store,
            length=resolved_length, seed=seed, warmup=resolved_warmup,
        )

    report_path = os.path.join(out_dir, REPORT_NAME)
    if write_report:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report_text)

    history = resolve_history(obs_history)
    if history is not None:
        campaign_digest = config_digest({
            "figures": sorted(spec.fig_id for spec in specs),
            "length": resolved_length,
            "seed": seed,
            "warmup": resolved_warmup,
            "machine": config_digest(
                machine if machine is not None else paper_machine()),
            "workloads": sorted(workloads) if workloads is not None else None,
            "fidelity": fidelity,
        })
        warning = append_best_effort(
            history,
            paper_run_record(group_reports, manifest_digest=campaign_digest))
        if warning is not None:
            import sys

            print(warning, file=sys.stderr)

    return PaperRun(
        artifacts=artifacts,
        report_path=report_path,
        store_path=resolved_store,
        executed=executed,
        replayed=replayed,
        failures=max(failures, stored_failures),
        report_text=report_text,
    )


def render_report(
    *,
    specs: Sequence[FigureSpec],
    artifacts: Sequence[FigureArtifact],
    suite: Mapping[str, Mapping[str, SimulationResult]],
    store: Any,
    length: int,
    seed: int,
    warmup: int,
    failed_cells: int,
) -> str:
    """Render ``REPRODUCTION.md`` from store-derived data only.

    *store* is anything with a ``telemetries()`` method — a
    :class:`RunStore`, the :class:`LoadReport` of one scan of it, or a
    stand-in — and feeds the phase table.

    Deliberately excludes anything that varies between an original run
    and a warm re-run over the same store (timestamps, current wall
    clock): the report is a pure function of the store contents and the
    registry, which is what makes regeneration byte-identical.
    """
    lines: List[str] = []
    lines.append("# Paper Reproduction Report")
    lines.append("")
    lines.append(
        "> Generated by `repro paper` — do not edit by hand; re-run the "
        "pipeline to refresh. Derived entirely from the checkpoint store, "
        "so a warm re-run over the same store reproduces this file "
        "byte-identically."
    )
    lines.append("")
    lines.append(
        "Reproduction of the evaluation in *Timekeeping in the Memory "
        "System: Predicting and Optimizing Memory Behavior* "
        "(Hu, Kaxiras, Martonosi — ISCA 2002) on synthetic SPEC2000 "
        "stand-in traces (see DESIGN.md for the substitutions)."
    )
    lines.append("")

    cell_count = sum(len(cfgs) for cfgs in suite.values())
    lines.append("## Campaign")
    lines.append("")
    lines.append(f"- measured accesses per workload: {length:,} "
                 f"(+{warmup:,} warm-up), seed {seed}")
    lines.append(f"- workloads: {len(suite)} ({', '.join(suite)})")
    configs = sorted({c for cfgs in suite.values() for c in cfgs},
                     key=list(CONFIGS).index)
    lines.append(f"- configurations: {', '.join(configs) if configs else '(none)'}")
    lines.append(f"- cells: {cell_count} ok, {failed_cells} failed")
    lines.append("")

    lines.append("## Verdicts")
    lines.append("")
    lines.append("| figure | title | checks | verdict |")
    lines.append("|---|---|---|---|")
    for artifact in artifacts:
        done = [c for c in artifact.checks if c.passed is not None]
        passed = sum(1 for c in done if c.passed)
        skipped = len(artifact.checks) - len(done)
        counts = f"{passed}/{len(done)}" + (f" (+{skipped} skipped)" if skipped else "")
        verdict = "PASS" if artifact.passed else "FAIL"
        lines.append(f"| {artifact.fig_id} | {artifact.title} | {counts} | {verdict} |")
    lines.append("")

    for spec, artifact in zip(specs, artifacts):
        lines.append(f"## {artifact.title}")
        lines.append("")
        lines.append(f"*Paper shape:* {spec.paper_shape}.  "
                     f"*Benchmark wrapper:* `{spec.benchmark_file}`.")
        lines.append("")
        lines.append("```text")
        lines.append(artifact.text)
        lines.append("```")
        lines.append("")
        lines.append("Shape checks:")
        lines.append("")
        for check in artifact.checks:
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"- **{check.verdict()}** {check.name}{detail}")
        lines.append("")

    lines.append("## Sweep phase breakdown")
    lines.append("")
    telemetries = store.telemetries()
    totals = aggregate_phases(t for t in telemetries.values() if t)
    if totals:
        grand = sum(totals.values())
        lines.append("Aggregated from the per-cell telemetry persisted in the "
                     "checkpoint store (cells replayed on resume keep their "
                     "original timings):")
        lines.append("")
        lines.append("| phase | total | share |")
        lines.append("|---|---|---|")
        for name in PHASES:
            if name in totals:
                dur = totals[name]
                lines.append(f"| {name} | {dur:.3f}s | {dur / grand:.0%} |")
        for name, dur in totals.items():
            if name not in PHASES:
                lines.append(f"| {name} | {dur:.3f}s | {dur / grand:.0%} |")
        lines.append("")
    else:
        lines.append("(no per-cell telemetry in this store)")
        lines.append("")

    return "\n".join(lines)
