"""The ``service-mix`` workload: one closed-loop client against ``repro serve``.

Each repetition starts a fresh daemon (default slots) on a fresh data
directory over the shared warm trace cache, then one client works
through a request list drawn from the seed in fixed shares:

* ``inline``: analytical ``base`` cells of every workload at two
  lengths (44), whose reuse profiles set-up has already built, answered
  synchronously by the submit call;
* ``cached``: repeats of requests the client already saw complete (100);
* ``queued``: exact ``base``/``victim_tk``/``pf_tk`` cells of every
  workload (66) and 11 ``base``/``pf_tk`` sweeps that pair the workloads
  two by two, polled until they finish.

Because a single client waits for each reply before the next request,
no submission can ever attach to another one in flight, and the
outcome of every request follows from the list alone.  Each
repetition asserts those outcome counts, so the amount of work per
repetition never drifts, and every ``done`` payload is compared with
the same request computed directly in set-up.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import harness
import spans as spanlib

#: Accesses per exact request and per-length analytical requests.
SCALES = {"full": {"exact": 8_000, "analytical": (6_000, 8_000)},
          "tiny": {"exact": 300, "analytical": (300, 400)}}
#: Repeats of completed requests per repetition (expected ``cached``).
CACHED = 100
EXACT_CONFIGS = ("base", "victim_tk", "pf_tk")
#: The configurations of every 2×2 sweep.
SWEEP_CONFIGS = ("base", "pf_tk")
#: Client poll interval while a queued job runs.
POLL_S = 0.005
HERE = os.path.dirname(os.path.abspath(__file__))


def _warmup(length: int) -> int:
    return length // 3  # the service's default for cell and sweep jobs


def request_list(seed: int, scale: str) -> List[Dict[str, Any]]:
    """The seeded requests of one repetition, each with its expected outcome.

    Every seed asks for the same cells (every workload at each
    analytical length, under each exact configuration, and in one
    sweep), so seeds differ only in trace contents, sweep pairings and
    order, not in how much work a repetition holds.
    """
    from repro.traces.workloads import SPEC2000

    rng = random.Random(seed)
    sizes = SCALES[scale]
    exact = sizes["exact"]
    fresh: List[Dict[str, Any]] = []
    for w in SPEC2000:
        for n in sizes["analytical"]:
            fresh.append({"kind": "cell", "expect": "inline", "body": {
                "workload": w, "config": "base", "length": n, "seed": seed,
                "fidelity": "analytical"}})
        for c in EXACT_CONFIGS:
            fresh.append({"kind": "cell", "expect": "queued", "body": {
                "workload": w, "config": c, "length": exact, "seed": seed}})
    order = rng.sample(list(SPEC2000), len(SPEC2000))
    for a, b in zip(order[0::2], order[1::2]):
        fresh.append({"kind": "sweep", "expect": "queued", "body": {
            "workloads": sorted([a, b]), "configs": list(SWEEP_CONFIGS),
            "length": exact, "seed": seed}})
    rng.shuffle(fresh)
    rest = ["fresh"] * (len(fresh) - 1) + ["repeat"] * CACHED
    rng.shuffle(rest)
    slots = ["fresh"] + rest  # a repeat needs an earlier request to repeat
    sent: List[Dict[str, Any]] = []
    requests = []
    for slot in slots:
        if slot == "fresh":
            req = fresh.pop()
            sent.append(req)
        else:
            req = dict(rng.choice(sent), expect="cached")
        requests.append(req)
    return requests


# ---------------------------------------------------------------------------
# Set-up and reference (forked children, untimed)
# ---------------------------------------------------------------------------


def setup_pass(cache_root: str, seed: int, scale: str, spool: Optional[str]) -> float:
    """Warm the trace cache and the inline requests' reuse profiles."""
    from repro.common.config import paper_machine
    from repro.traces.cache import TraceCache
    from repro.traces.workloads import SPEC2000

    sizes = SCALES[scale]
    log = spanlib.SpanLog(spool)
    if spool:
        spanlib.install(log)

    def build() -> None:
        cache = TraceCache(root=cache_root)
        exact = sizes["exact"]
        for name in SPEC2000:
            cache.prewarm(name, exact + _warmup(exact), seed)
            for n in sizes["analytical"]:
                cache.get_or_build_reuse_profile(
                    name, n + _warmup(n), seed, warmup=_warmup(n),
                    machine=paper_machine())

    start = time.perf_counter()
    log.call("setup", "root", build, (), {})
    return time.perf_counter() - start


def _cell_key(workload: str, config: str, body: Dict[str, Any]) -> str:
    return (f"{workload}/{config}/{body['length']}/"
            f"{body.get('fidelity', 'exact')}")


def _reference_part(keys: List[str], cache_root: str, seed: int) -> Dict[str, str]:
    from repro.sim.simulator import simulate
    from repro.sim.sweep import CONFIG_PRESETS, run_workload
    from repro.traces.workloads import build_workload, get_workload

    out = {}
    for key in keys:
        workload, config, length, fidelity = key.split("/")
        n = int(length)
        if fidelity == "analytical":
            result = run_workload(workload, {config: {}}, length=n,
                                  warmup=_warmup(n), seed=seed,
                                  trace_cache=cache_root,
                                  fidelity="analytical")[config]
        else:
            trace = build_workload(workload, length=n + _warmup(n), seed=seed)
            result = simulate(trace, ipa=get_workload(workload).ipa,
                              warmup=_warmup(n), **CONFIG_PRESETS[config])
        out[key] = harness.digest(result.to_dict())
    return out


def _cells_of(req: Dict[str, Any]) -> List[str]:
    body = req["body"]
    if req["kind"] == "cell":
        return [_cell_key(body["workload"], body["config"], body)]
    return [_cell_key(w, c, body) for w in body["workloads"] for c in body["configs"]]


def reference(requests: List[Dict[str, Any]], cache_root: str, seed: int
              ) -> Dict[str, str]:
    """Digest of every cell any request asks for, computed directly."""
    keys = sorted({k for req in requests for k in _cells_of(req)})
    halves = [keys[0::2], keys[1::2]]
    out: Dict[str, str] = {}
    for part in harness.forked([(_reference_part, (half, cache_root, seed))
                                for half in halves]):
        out.update(part)
    return out


# ---------------------------------------------------------------------------
# One repetition (forked child that owns the daemon)
# ---------------------------------------------------------------------------


def _start_daemon(data_dir: str, cache_root: str, spool: Optional[str]
                  ) -> Tuple[subprocess.Popen, str]:
    serve = ["serve", "--port", "0", "--data-dir", data_dir,
             "--cache-root", cache_root]
    if spool:
        argv = [sys.executable, os.path.join(HERE, "serve_traced.py"), spool] + serve
    else:
        argv = [sys.executable, "-m", "repro"] + serve
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    if not line.startswith("listening on "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"daemon did not start: {line!r}")
    return proc, line.split()[2]


def _stop_daemon(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def repetition(data_dir: str, cache_root: str, requests: List[Dict[str, Any]],
               spool: Optional[str]) -> Dict[str, Any]:
    """Serve *requests* through a fresh daemon; timings, then the payloads."""
    from repro.service.client import ServiceClient

    log = spanlib.SpanLog(spool)
    if spool:
        spanlib.install(log)
    proc, url = _start_daemon(data_dir, cache_root, spool)
    try:
        client = ServiceClient(url)
        replies: List[Dict[str, Any]] = []

        def one(req: Dict[str, Any]) -> Dict[str, Any]:
            start = time.perf_counter()
            reply = client.submit(req["kind"], req["body"])
            submit_ms = (time.perf_counter() - start) * 1000.0
            job, polls, poll_ms = reply["job"], 0, 0.0
            while job["state"] in ("queued", "running"):
                time.sleep(POLL_S)
                t0 = time.perf_counter()
                job = client.job(job["id"])
                poll_ms += (time.perf_counter() - t0) * 1000.0
                polls += 1
            return {"outcome": reply["outcome"], "id": job["id"],
                    "ms": (time.perf_counter() - start) * 1000.0,
                    "submit_ms": submit_ms, "polls": polls, "poll_ms": poll_ms}

        def serve_all() -> None:
            for req in requests:
                replies.append(log.call("service.job", "service", one, (req,), {}))

        start = time.perf_counter()
        log.call("repetition", "root", serve_all, (), {})
        wall = time.perf_counter() - start
        rss = _peak_rss_mb(proc.pid)
        for reply in replies:  # untimed: payloads and job timestamps
            job = client.result(reply["id"])
            reply["state"] = job["state"]
            reply["result"] = job["result"]
            reply["queue_wait_ms"] = 1000.0 * (job["started_at"] - job["submitted_at"])
            reply["execute_ms"] = 1000.0 * (job["finished_at"] - job["started_at"])
    finally:
        _stop_daemon(proc)
    return {"wall": wall, "rss": rss, "replies": replies,
            "store_mb": _tree_mb(os.path.join(data_dir, "stores"))}


def _tree_mb(path: str) -> float:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 1e6


def _payload_ok(req: Dict[str, Any], result: Dict[str, Any],
               want: Dict[str, str]) -> bool:
    body = req["body"]
    if req["kind"] == "cell":
        w, c = body["workload"], body["config"]
        got = {_cell_key(w, c, body): result["result"]}
        if not result.get("inline") and result["cells"] != {w: {c: result["result"]}}:
            return False
    else:
        got = {_cell_key(w, c, body): cell
               for w, row in result["cells"].items() for c, cell in row.items()}
    return set(got) == set(want) and all(harness.digest(got[k]) == want[k]
                                         for k in want)


def check(rep: Dict[str, Any], requests: List[Dict[str, Any]], ref: Dict[str, str],
          results: harness.Results, *, force_mismatch: bool = False) -> None:
    """Tally outcomes and payloads of one repetition against the oracles."""
    counts = {"inline": 0, "cached": 0, "queued": 0, "attached": 0}
    failed = 0
    for index, (req, reply) in enumerate(zip(requests, rep["replies"])):
        counts[reply["outcome"]] += 1
        want = {k: ref[k] for k in _cells_of(req)}
        if force_mismatch and index == 0:
            want = {k: "forced-mismatch" for k in want}
        ok = (reply["state"] == "done" and reply["outcome"] == req["expect"]
              and _payload_ok(req, reply["result"], want))
        failed += not ok
    rep["counts"] = counts
    results.tally(len(requests), failed,
                  f"{failed} replies were not done, had an unexpected outcome, "
                  f"or differ from the direct computation (outcomes {counts})")


def run(*, work: str, seed: int, scale: str, trace: bool, force_mismatch: bool,
        results: harness.Results, bench: Any) -> None:
    """Set up, measure and check ``service-mix``."""
    requests = harness.run_forked(request_list, seed, scale)
    cache_root = bench.setup(setup_pass, seed, scale)
    ref = reference(requests, cache_root, seed)
    expected = {"inline": 0, "cached": 0, "queued": 0, "attached": 0}
    for req in requests:
        expected[req["expect"]] += 1

    def one(index: int, spool: Optional[str]) -> Dict[str, Any]:
        data_dir = os.path.join(work, f"data{index}")
        try:
            rep = harness.run_forked(repetition, data_dir, cache_root, requests, spool)
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        check(rep, requests, ref, results, force_mismatch=force_mismatch)
        if rep["counts"] != expected:
            results.tally(1, 1, f"outcome counts {rep['counts']} differ from the "
                                f"seed's {expected}; run invalid")
        return rep

    reps = bench.measure(one, min_reps=3)
    if trace:
        traced = reps["traced"]
        queued = [r for rep in traced for r in rep["replies"] if r["outcome"] == "queued"]
        replies = [r for rep in traced for r in rep["replies"]]
        polls = sum(r["polls"] for r in replies)
        extra = {
            "service.submit_ms": (sum(r["submit_ms"] for r in replies) / len(replies), "ms"),
            "service.poll_ms": (sum(r["poll_ms"] for r in replies) / max(polls, 1), "ms"),
            "service.polls_per_exec": (polls / len(queued), "count"),
            "service.queue_wait_ms": (
                sum(r["queue_wait_ms"] for r in queued) / len(queued), "ms"),
            "service.execute_ms": (sum(r["execute_ms"] for r in queued) / len(queued), "ms"),
        }
        for outcome in ("inline", "cached", "queued", "attached"):
            extra[f"service.outcome_{outcome}"] = (
                sum(rep["counts"][outcome] for rep in traced) / len(traced), "count")
        bench.traced_layers(reps, workers=1, store_mb=traced[0]["store_mb"],
                             extra=extra)
        return
    untraced = reps["untraced"]
    walls = [r["wall"] for r in untraced]
    replies = [r for rep in untraced for r in rep["replies"]]
    results.put("campaign_s", sum(walls) / len(walls), "s")
    results.put("jobs_per_s", len(replies) / sum(walls), "1/s")
    results.latency("fast", [r["ms"] for r in replies
                             if r["outcome"] in ("inline", "cached")])
    results.latency("exec", [r["ms"] for r in replies if r["outcome"] == "queued"])
    results.put("peak_rss_mb", harness.median([r["rss"] for r in untraced]), "MB")
