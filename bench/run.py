"""End-to-end benchmark of the reproduction's user-facing waits.

Run from the repository root::

    python3 bench/run.py --workload paper-cold --seed 0 --seconds 24 --trace 0

Workloads (see ``bench/README.md`` for why each exists):

* ``paper-cold``  — ``repro paper`` campaigns that write a fresh store;
* ``service-mix`` — one closed-loop client against ``repro serve``.

``--trace 0`` measures with no spans installed and prints the
end-to-end metrics; ``--trace 1`` measures untraced and traced
repetitions and prints the per-layer metrics.  Either way the last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every oracle held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402  (the benchmark's own modules, beside this file)
import spans as spanlib  # noqa: E402

WORKLOADS = ("paper-cold", "service-mix")


class Bench:
    """Set-up passes and the repetition loop, shared by every workload."""

    def __init__(self, work: str, seconds: float, trace: bool,
                 results: harness.Results, chrome_path: str) -> None:
        """Keep everything of this run under the private *work* directory."""
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.results = results
        self.chrome_path = chrome_path
        self.setup_spool = os.path.join(work, "spool-setup")
        self.rep_spool = os.path.join(work, "spool-reps")
        os.makedirs(self.setup_spool)
        os.makedirs(self.rep_spool)
        self._count = 0
        self._setup: Optional[Tuple[Callable, tuple]] = None
        self._setup_times: List[float] = []

    def _setup_pass(self, root: str) -> None:
        assert self._setup is not None, "setup() runs before any repetition"
        setup_pass, args = self._setup
        spool = self.setup_spool if self.trace else None
        self._setup_times.append(harness.run_forked(setup_pass, root, *args, spool))

    def setup(self, setup_pass: Callable, *args: Any) -> str:
        """Build the shared cache with *setup_pass*; returns its root.

        The pass is repeated into a throwaway directory before every
        repetition, so the ``setup_s`` median samples the host's speed
        across the whole run rather than at its start.
        """
        self._setup = (setup_pass, args)
        root = os.path.join(self.work, "cache")
        self._setup_pass(root)
        return root

    def _loop(self, one: Callable, seconds: float, min_reps: int,
              spool: Optional[str]) -> List[Dict[str, Any]]:
        reps: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - start < seconds:
            scratch = os.path.join(self.work, f"setup{self._count}")
            self._setup_pass(scratch)
            shutil.rmtree(scratch)
            reps.append(one(self._count, spool))
            self._count += 1
        return reps

    def measure(self, one: Callable, *, min_reps: int) -> Dict[str, List[Dict[str, Any]]]:
        """Whole repetitions for ``--seconds``; with tracing, half traced."""
        if not self.trace:
            reps = {"untraced": self._loop(one, self.seconds, min_reps, None)}
            self.results.put("setup_s", harness.median(self._setup_times), "s")
            return reps
        half = self.seconds / 2
        return {"untraced": self._loop(one, half, 1, None),
                "traced": self._loop(one, half, 1, self.rep_spool)}

    def traced_layers(self, reps: Dict[str, List[Dict[str, Any]]], *, workers: int,
                      store_mb: float, extra: Optional[Dict[str, Any]] = None) -> None:
        """Per-layer metrics, the attribution check and the Chrome trace."""
        spans = spanlib.read_spool(self.rep_spool)
        roots = [s for s in spans if s["name"] == "repetition"]
        if len(roots) != len(reps["traced"]):
            raise RuntimeError(f"{len(roots)} repetition spans for "
                               f"{len(reps['traced'])} traced repetitions")
        shares: Dict[str, int] = {}
        wall = 0
        for root in roots:
            try:
                by_layer = spanlib.attribution(spans, root)
            except ValueError as exc:
                self.results.tally(1, 1, f"attribution check failed: {exc}")
                continue
            self.results.tally(1, 0)
            wall += root["end"] - root["start"]
            for layer, ns in by_layer.items():
                shares[layer] = shares.get(layer, 0) + ns
        print("  self time by layer: " + ", ".join(
            f"{layer} {ns / wall:.1%}" for layer, ns in
            sorted(shares.items(), key=lambda kv: -kv[1])) + f" of {wall / 1e9:.3f}s")

        metrics = spanlib.layer_metrics(spans, roots, workers=workers)
        setup_spans = spanlib.read_spool(self.setup_spool)
        metrics.update(spanlib.setup_metrics(
            setup_spans, [s for s in setup_spans if s["name"] == "setup"]))
        metrics["store.mb"] = (store_mb, "MB")
        metrics["unattributed_frac"] = (shares.get("unattributed", 0) / wall, "frac")
        untraced = [r["wall"] for r in reps["untraced"]]
        traced = [r["wall"] for r in reps["traced"]]
        metrics["trace_overhead_frac"] = (
            (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0, "frac")
        metrics.update(extra or {})
        for name, (value, unit) in metrics.items():
            self.results.put(name, value, unit)
        self._write_chrome_trace(spanlib.within(spans, roots[:1]), roots[0]["pid"])

    def _write_chrome_trace(self, spans: List[Dict[str, Any]], root_pid: int) -> None:
        from repro.obs.tracing import validate_chrome_trace

        labels = {pid: "repetition" if pid == root_pid else f"worker {pid}"
                  for pid in {s["pid"] for s in spans}}
        trace = spanlib.chrome_trace(spans, labels)
        problems = validate_chrome_trace(trace)
        self.results.tally(1, len(problems) > 0,
                           f"Chrome trace invalid: {problems[:3]}")
        with open(self.chrome_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        print(f"  chrome trace: {len(trace['traceEvents'])} events, "
              f"{'valid' if not problems else 'INVALID'}")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: short traces, for the benchmark's own test")
    parser.add_argument("--force-mismatch", action="store_true",
                        help="corrupt one expected digest: the oracles must fail")
    parser.add_argument("--chrome-trace", default=None, metavar="PATH",
                        help="keep the traced run's Chrome trace at PATH")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload; print its metrics; 0 when every oracle held."""
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("bench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    os.environ.pop("REPRO_OBS_HISTORY", None)
    base = os.path.join(root, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    # Nothing should fall back to the user's default trace cache.
    os.environ["REPRO_TRACE_CACHE"] = os.path.join(work, "unused-default-cache")
    os.makedirs(work)

    if args.workload == "service-mix":
        import svcmix as module
    else:
        import campaign as module
    results = harness.Results()
    chrome_path = args.chrome_trace or os.path.join(work, "trace.json")
    try:
        probe_before = harness.host_probe_ms()
        bench = Bench(work, args.seconds, bool(args.trace), results, chrome_path)
        module.run(work=work, seed=args.seed, scale=args.scale, trace=bool(args.trace),
                   force_mismatch=args.force_mismatch, results=results, bench=bench)
        probe_after = harness.host_probe_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)

    probe = (probe_before + probe_after) / 2
    print(f"  host.probe_ms = {probe:.2f} (before {probe_before:.2f}, "
          f"after {probe_after:.2f})")
    if args.trace:
        results.put("host.probe_ms", probe, "ms")
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        for name in getattr(module, "NOT_APPLICABLE", ()):
            results.put(name, 0.0, units[name])
    else:
        results.put("ok_frac", (results.attempted - results.failed) / results.attempted,
                    "frac")
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in results.metrics.items()}
    if got != expected:
        print(f"bench: metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(expected) - set(got))}, extra "
              f"{sorted(set(got) - set(expected))}, units "
              f"{sorted(n for n in got if n in expected and got[n] != expected[n])}",
              file=sys.stderr)
        return 1
    for note in results.notes:
        print(f"  FAILED: {note}")
    correct = results.failed == 0
    print(json.dumps({"correct": correct, "attempted": results.attempted,
                      "failed": results.failed,
                      "metrics": {m["name"]: results.metrics[m["name"]] for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
