"""Append-only JSONL checkpoint store for sweep campaigns.

A long workload×config sweep writes one line per event to a ``.jsonl``
file so that an interrupted campaign can resume without redoing
completed work:

- one **manifest** line per runner invocation, recording the sweep
  parameters (trace length, seed, warmup, machine digest) and a content
  digest per named configuration;
- one **cell** line per finished cell — either ``status: "ok"`` with
  the serialized :class:`~repro.sim.results.SimulationResult`, or
  ``status: "failed"`` with the structured failure record.

Failure model (see also docs/ARCHITECTURE.md, "Failure model"):

- every append is flushed and fsynced, so a recorded cell is never lost
  to a later crash;
- only one writer at a time: :meth:`RunStore.start` takes an advisory
  ``flock`` on a ``<path>.lock`` sidecar, and a concurrent writer gets
  :class:`~repro.common.errors.StoreLockedError` immediately instead of
  interleaving records;
- a torn *final* line (crash mid-append) is tolerated — the cell simply
  re-runs — and :meth:`RunStore.start` truncates it away before
  appending so the next record never concatenates onto the tear;
- corruption anywhere else no longer strands the campaign: corrupt
  lines are **quarantined** (reported by :meth:`RunStore.load_report`,
  moved to a ``<path>.quarantine`` sidecar by :meth:`RunStore.repair`)
  while every intact record is preserved;
- when the same cell appears more than once (a failed cell re-run on
  resume), the **last** line wins; :meth:`RunStore.repair` compacts
  superseded duplicates away.

Resume safety: :meth:`RunStore.start` refuses to continue into a store
whose manifest disagrees on length/seed/warmup/machine, or whose named
configurations hash differently — silently mixing results from two
different experiments is the classic campaign-corruption bug.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..common.errors import StoreError
from ..common.jsonl import JsonlJournal, LineIssue, PathLike, gc_suspended
from ..faults.injector import current_injector
from ..obs.logging import current_logger
from ..obs.metrics import current as current_telemetry

__all__ = [
    "STORE_VERSION", "CellKey", "LineIssue", "LoadReport", "RunStore",
]

#: Store format version written into every manifest line.
STORE_VERSION = 1

#: Key identifying one cell: ``(workload, config_name)``.
CellKey = Tuple[str, str]


@dataclass
class LoadReport:
    """Everything one scan of a checkpoint store found.

    ``cells`` holds the surviving (recovered) records — last line wins
    per key; ``quarantined`` the lines that parse or validate as
    garbage anywhere before the tail; ``superseded`` the earlier
    duplicates that a newer record for the same cell replaced;
    ``torn_tail`` the undecodable final line a crash mid-append leaves
    behind (tolerated, not corruption).  :meth:`RunStore.repair` moves
    quarantined/superseded/torn lines into the ``.quarantine`` sidecar
    and rewrites the store compacted.
    """

    path: str
    manifest: Optional[Dict[str, Any]] = None
    cells: Dict[CellKey, Dict[str, Any]] = field(default_factory=dict)
    quarantined: List[LineIssue] = field(default_factory=list)
    superseded: List[LineIssue] = field(default_factory=list)
    torn_tail: Optional[LineIssue] = None
    total_lines: int = 0
    manifests: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing needed quarantining and the tail is whole."""
        return not self.quarantined and self.torn_tail is None

    @property
    def ok_cells(self) -> int:
        """Recovered cells with a usable result."""
        return sum(1 for rec in self.cells.values() if rec.get("status") == "ok")

    @property
    def failed_cells(self) -> int:
        """Recovered cells that recorded a structured failure."""
        return len(self.cells) - self.ok_cells

    def telemetries(self) -> Dict[CellKey, Optional[Dict[str, Any]]]:
        """Per-cell telemetry dicts, ``None`` for cells stored without any.

        Looks in the right place for each cell status — ok cells carry
        telemetry at the record top level, failed cells inside their
        failure record — so multiple consumers (``repro report
        --timing``, the ``repro paper`` phase breakdown) share one
        extraction path.  Keys follow the store's sorted cell order.
        """
        return {
            key: rec.get("telemetry") or (rec.get("failure") or {}).get("telemetry")
            for key, rec in sorted(self.cells.items())
        }

    def summary(self) -> str:
        """One-line human digest, shared by the CLI and tests."""
        parts = [
            f"{self.total_lines} lines: {len(self.cells)} cells recovered "
            f"({self.ok_cells} ok, {self.failed_cells} failed), "
            f"{self.manifests} manifest(s)"
        ]
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.superseded:
            parts.append(f"{len(self.superseded)} superseded duplicate(s)")
        if self.torn_tail is not None:
            parts.append("torn trailing line")
        return "; ".join(parts)


class RunStore(JsonlJournal):
    """One sweep campaign's checkpoint file.

    Crash-safety mechanics (fsynced appends, advisory lock, quarantine
    sidecar, atomic compaction) come from
    :class:`~repro.common.jsonl.JsonlJournal`; this class owns the
    sweep-specific record schema and resume-compatibility policy.

    Use as a context manager (or call :meth:`close`)::

        with RunStore("out.jsonl") as store:
            prior = store.start(manifest, resume=True)
            ...
            store.record_result("gzip", "base", result, attempts=1, elapsed=2.0)
    """

    lock_hint = "concurrent sweeps must use distinct stores"

    # -- reading -------------------------------------------------------------

    def load_report(self) -> LoadReport:
        """Scan the store and classify every line; never raises on corruption.

        Raises :class:`StoreError` only for an unreadable file or an
        unsupported format version (reading an unknown format is
        unsafe, not recoverable).
        """
        report = LoadReport(path=self.path)
        if not os.path.exists(self.path):
            return report
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise StoreError(f"cannot read store {self.path}: {exc}") from exc
        with gc_suspended():
            self._scan_lines(lines, report)
        return report

    def _scan_lines(self, lines: List[str], report: LoadReport) -> None:
        """Classify every store line into *report* (see :meth:`load_report`)."""
        report.total_lines = len(lines)
        last = len(lines) - 1
        last_line_for: Dict[CellKey, Tuple[int, str]] = {}
        for lineno, line in enumerate(lines):
            text = line.strip()
            if not text:
                continue
            try:
                record = json.loads(text)
                kind = record["kind"]
            except (ValueError, TypeError, KeyError) as exc:
                issue = LineIssue(lineno + 1, f"undecodable line ({exc!r})", text)
                if lineno == last:
                    # The signature of a crash mid-append: tolerated,
                    # the interrupted cell simply re-runs.
                    report.torn_tail = issue
                else:
                    report.quarantined.append(issue)
                continue
            if kind == "manifest":
                version = record.get("version")
                if version != STORE_VERSION:
                    raise StoreError(
                        f"{self.path}:{lineno + 1}: unsupported store version "
                        f"{version!r} (this build reads {STORE_VERSION})"
                    )
                report.manifest = record
                report.manifests += 1
            elif kind == "cell":
                if report.manifest is None:
                    report.quarantined.append(
                        LineIssue(lineno + 1, "cell record before any manifest",
                                  text)
                    )
                    continue
                try:
                    key = (record["workload"], record["config"])
                except KeyError as exc:
                    report.quarantined.append(
                        LineIssue(lineno + 1, f"cell record missing {exc}", text)
                    )
                    continue
                if key in last_line_for:
                    prior_lineno, prior_text = last_line_for[key]
                    report.superseded.append(
                        LineIssue(prior_lineno, "superseded duplicate cell record",
                                  prior_text)
                    )
                last_line_for[key] = (lineno + 1, text)
                report.cells[key] = record
            else:
                report.quarantined.append(
                    LineIssue(lineno + 1, f"unknown record kind {kind!r}", text)
                )

    def load(self) -> Tuple[Optional[Dict[str, Any]], Dict[CellKey, Dict[str, Any]]]:
        """Read the store: ``(latest_manifest, {(workload, config): cell})``.

        Corruption never strands the campaign: torn or garbage lines
        are skipped (see :meth:`load_report` for which, and
        :meth:`repair` to quarantine them to the sidecar); every intact
        record is returned.  Raises :class:`StoreError` only for an
        unreadable file or an unsupported format version.
        """
        report = self.load_report()
        return report.manifest, report.cells

    def telemetries(self) -> Dict[CellKey, Optional[Dict[str, Any]]]:
        """Per-cell telemetry of a fresh scan (see
        :meth:`LoadReport.telemetries`)."""
        return self.load_report().telemetries()

    # -- repair --------------------------------------------------------------

    def repair(self) -> LoadReport:
        """Quarantine unusable lines and rewrite the store compacted.

        Quarantined, superseded, and torn-tail lines are appended to
        the ``.quarantine`` sidecar (as JSON records with line number
        and reason); the store is rewritten as the latest manifest plus
        exactly one line per cell (last wins), via a temp file, fsync,
        and atomic rename — a crash mid-repair leaves either the old or
        the new store, never a hybrid.  Returns the pre-repair
        :class:`LoadReport`.  Requires the store to be closed for
        appending; takes the writer lock for the duration.
        """
        if self._fh is not None:
            raise StoreError(
                f"store {self.path} is open for appending; close() before repair()"
            )
        owned_lock = self._lock_fh is None
        if owned_lock:
            self._acquire_lock()
        try:
            report = self.load_report()
            if not os.path.exists(self.path):
                return report
            self._write_sidecar(report)
            self._rewrite_compacted(report)
        finally:
            if owned_lock:
                self._release_lock()
        current_telemetry().count("store.repairs")
        current_logger().event(
            "store.repair", path=self.path,
            quarantined=len(report.quarantined),
            superseded=len(report.superseded),
            torn_tail=report.torn_tail is not None,
            cells=len(report.cells),
        )
        return report

    def _write_sidecar(self, report: LoadReport) -> None:
        """Append every unusable line to the ``.quarantine`` sidecar."""
        issues = list(report.quarantined) + list(report.superseded)
        if report.torn_tail is not None:
            issues.append(report.torn_tail)
        self._quarantine_issues(issues)

    def _rewrite_compacted(self, report: LoadReport) -> None:
        """Atomically replace the store with its compacted contents."""
        records: List[Mapping[str, Any]] = []
        if report.manifest is not None:
            records.append(report.manifest)
        records.extend(report.cells.values())
        self._atomic_rewrite(records)

    # -- writing -------------------------------------------------------------

    def start(
        self, manifest: Mapping[str, Any], *, resume: bool = False
    ) -> Dict[CellKey, Dict[str, Any]]:
        """Open the store for appending and return previously stored cells.

        Takes the writer lock first (:class:`StoreLockedError` if
        another process holds it).  A fresh store gets *manifest* as
        its first line.  A non-empty store requires ``resume=True``
        (protecting completed work from accidental reuse of the same
        path) and must be **compatible**: same length/seed/warmup/
        machine digest, and identical digests for every configuration
        name both runs share.  A torn trailing line or corrupt interior
        lines found on open are repaired away (quarantined to the
        sidecar, survivors compacted) before the first append, so new
        records never land on a tear.  A new manifest line is appended
        on every start, leaving an audit trail.
        """
        self._acquire_lock()
        try:
            report = self.load_report()
            if not report.clean and self._fh is None:
                self._repair_under_lock(report)
                report = self.load_report()
            prior, cells = report.manifest, report.cells
            if prior is not None:
                if not resume:
                    raise StoreError(
                        f"store {self.path} already contains a run; pass "
                        f"resume=True to continue it or remove the file to "
                        f"start over"
                    )
                _check_compatible(self.path, prior, manifest)
            self._open_append()
        except BaseException:
            self._release_lock()
            raise
        self._append({"kind": "manifest", "version": STORE_VERSION, **manifest})
        return cells

    def _repair_under_lock(self, report: LoadReport) -> None:
        """The auto-repair :meth:`start` runs when it finds damage."""
        current_telemetry().count("store.auto_repairs")
        current_logger().event(
            "store.auto_repair", path=self.path,
            quarantined=len(report.quarantined),
            torn_tail=report.torn_tail is not None,
        )
        self._write_sidecar(report)
        self._rewrite_compacted(report)

    def record_result(
        self,
        workload: str,
        config: str,
        result: "Any",
        *,
        attempts: int = 1,
        elapsed: float = 0.0,
        telemetry: Optional[Mapping[str, Any]] = None,
        include_metrics: bool = False,
    ) -> None:
        """Append one completed cell (``result`` is a SimulationResult).

        *telemetry* is the cell's phase-timing/counter dict from the
        runner; persisting it is what lets ``repro report --timing``
        rebuild a sweep's time breakdown from the store afterwards.
        The key is simply absent for cells run without telemetry, and
        readers must treat it as optional.

        *include_metrics* persists the result's full
        :class:`~repro.core.metrics.TimekeepingMetrics` state inside the
        record, so figure datasets can be derived from the store alone
        (the ``repro paper`` pipeline's mode).  Plain sweeps leave it
        off — metric banks dominate the record size.
        """
        record = {
            "kind": "cell",
            "workload": workload,
            "config": config,
            "status": "ok",
            "attempts": attempts,
            "elapsed": round(elapsed, 6),
            "result": result.to_dict(include_metrics=include_metrics),
        }
        if telemetry is not None:
            record["telemetry"] = dict(telemetry)
        self._append(record)

    def record_failure(self, failure: "Any") -> None:
        """Append one failed cell (``failure`` is a CellFailure)."""
        self._append(
            {
                "kind": "cell",
                "workload": failure.workload,
                "config": failure.config,
                "status": "failed",
                "attempts": failure.attempts,
                "failure": failure.to_dict(),
            }
        )

    def _append(self, record: Mapping[str, Any]) -> None:
        if self._fh is None:
            raise StoreError(f"store {self.path} is not open; call start() first")
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        after = None
        injector = current_injector()
        if injector.armed:
            context: Dict[str, Any] = {"kind": record.get("kind")}
            if "workload" in record:
                context["workload"] = record["workload"]
                context["config"] = record.get("config")
            data, after = injector.on_write("store.append", data, **context)
        try:
            self._fh.write(data)
            self._fh.flush()
            if injector.armed:
                injector.on_event("store.fsync", kind=record.get("kind"))
            os.fsync(self._fh.fileno())
            if after is not None:
                after()  # injected torn write: the tear is on disk; now crash
        except OSError as exc:
            raise StoreError(f"cannot append to store {self.path}: {exc}") from exc


def _check_compatible(
    path: str, prior: Mapping[str, Any], manifest: Mapping[str, Any]
) -> None:
    """Raise :class:`StoreError` if *manifest* cannot resume over *prior*."""
    for field_name in ("length", "seed", "warmup", "machine"):
        if prior.get(field_name) != manifest.get(field_name):
            raise StoreError(
                f"store {path} was written by an incompatible sweep: "
                f"{field_name} was {prior.get(field_name)!r}, resuming run has "
                f"{manifest.get(field_name)!r}"
            )
    # Fidelity entered the manifest after v1 stores shipped; absence
    # means exact, so pre-fidelity stores resume under exact sweeps.
    if prior.get("fidelity", "exact") != manifest.get("fidelity", "exact"):
        raise StoreError(
            f"store {path} was written at fidelity "
            f"{prior.get('fidelity', 'exact')!r}; resuming run wants "
            f"{manifest.get('fidelity', 'exact')!r} — mixing tiers in one "
            f"store would silently blend extrapolated and exact results"
        )
    prior_configs = prior.get("configs", {})
    new_configs = manifest.get("configs", {})
    for name in sorted(set(prior_configs) & set(new_configs)):
        if prior_configs[name] != new_configs[name]:
            raise StoreError(
                f"store {path}: configuration {name!r} hashes differently in the "
                f"resuming run ({new_configs[name]} vs stored {prior_configs[name]}); "
                f"rename the config or use a fresh store"
            )
