"""Process isolation, host probe, statistics and oracles shared by workloads."""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Sequence, Tuple


def forked(calls: Sequence[Tuple[Callable, tuple]]) -> List[Any]:
    """Run each ``fn(*args)`` in its own forked child, all at once.

    A child starts from the parent's state and dies with its own, so no
    memo, open store or module-level cache of one repetition reaches the
    next.  Returns the JSON-able results in call order; a child that
    raised re-raises here with its traceback text.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    for fn, args in calls:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            status = 0
            try:
                payload = {"ok": fn(*args)}
            except BaseException:  # reported to the parent, which re-raises
                payload = {"error": traceback.format_exc()}
                status = 1
            finally:
                _reap_children()
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))
    results = []
    for pid, read_fd in children:
        with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
            text = fh.read()
        os.waitpid(pid, 0)
        payload = json.loads(text) if text else {"error": "child died without a result"}
        if "error" in payload:
            raise RuntimeError(f"forked child failed:\n{payload['error']}")
        results.append(payload["ok"])
    return results


def _reap_children() -> None:
    """Wait for this process's own workers (a sweep's process pool)."""
    for proc in multiprocessing.active_children():
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()


def run_forked(fn: Callable, *args: Any) -> Any:
    """:func:`forked` for a single call."""
    return forked([(fn, args)])[0]


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    return (time.perf_counter() - start) * 1000.0


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj: Any) -> str:
    """Order-independent digest of a JSON-able value."""
    canonical = json.dumps(json.loads(json.dumps(obj)), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Fewest samples that must lie above a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: such a percentile is not reported.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return ordered[rank - 1], beyond


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


class Results:
    """Metrics of one run plus the operation tally behind ``ok_frac``."""

    def __init__(self) -> None:
        """Start with no metrics and no operations."""
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        """Record one metric (values keep all their digits)."""
        self.metrics[name] = {"value": float(value), "unit": unit}

    def tally(self, attempted: int, failed: int, why: str = "") -> None:
        """Count operations checked by an oracle; *why* explains failures."""
        self.attempted += attempted
        self.failed += failed
        if failed and why:
            self.notes.append(why)

    def latency(self, prefix: str, samples: Sequence[float]) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_p90_ms`` with sample counts."""
        for pct in (50, 90):
            value, beyond = percentile(samples, pct)
            self.put(f"{prefix}_p{pct}_ms", value, "ms")
            print(f"  {prefix}_p{pct}_ms = {value:.3f} "
                  f"(n={len(samples)}, {beyond} beyond)")
