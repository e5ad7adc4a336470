"""Served-traffic benchmark for ``python -m repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sample-fresh --seed 1 \
        --seconds 30 --trace 0

It starts a real server (``--workers 2``, default ``fast-bench`` preset,
default cache sizing, a private cache volume) and drives it with a
closed loop of two clients. Workloads are described in
``perfbench/workloads.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
time against a plain server and half against one whose layers are
wrapped in spans (``perfbench/traced_serve.py``), and prints per-layer
self times per request plus the tracing overhead; it never produces the
end-to-end numbers.

Every response is checked (spanning tree, Kruskal oracle, the recorded
rounds of the reference requests, and a fixed subset re-drawn in process
with the same pinned seed). Any failed or wrong response makes the
command exit 1. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The line before it is a JSON report with host metadata,
``failed_share``, ``/stats`` counters and summed cache counters.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# Requests whose rounds are averaged: a fixed prefix of the send order,
# so the figure depends only on the workload seed.
ROUNDS_PREFIX = 80
# Timed requests (the first of the send order) re-drawn in process and
# compared byte for byte.
REDRAWS = 3
# Server start-ups timed per run; set-up reports their median.
SPAWNS = 3
STATS_KEYS = ("queued", "queue_wait_ms", "failed", "redispatches",
              "worker_crashes")
# meta["cache"] counters that only ever grow within one session.
CACHE_COUNTERS = (
    "hits", "misses", "evictions", "promotes", "disk_hits", "disk_misses",
    "spills", "disk_evictions",
)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; failures enter as +inf."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def host_metadata() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def start_server(cache_dir: Path, trace_dir: Path | None = None):
    """A ready server and the seconds from spawn until /healthz answered."""
    from repro.service.client import ServiceClient, wait_until_ready
    from server import Server

    server = Server(root=ROOT, cache_dir=cache_dir, trace_dir=trace_dir)
    began = time.perf_counter()
    server.start()
    try:
        wait_until_ready(ServiceClient(port=server.port, retries=0))
    except TimeoutError:
        server.stop()
        raise
    return server, time.perf_counter() - began


def stats_counters(port: int) -> dict:
    from repro.service.client import ServiceClient

    counters = ServiceClient(port=port, retries=0).stats()["counters"]
    return {key: counters[key] for key in STATS_KEYS}


def cache_deltas(responses: list[tuple[dict, int, bool]]) -> dict:
    """Summed increments of cumulative ``meta["cache"]`` counters.

    ``responses`` holds ``(meta["cache"], phases drawn, timed)``. Each
    shard worker reports its own session's running totals, and a draw
    of ``p`` phases adds exactly ``p`` phase lookups (RAM hits + disk
    hits + misses) to them, so a response's predecessor from the same
    worker is a response with ``p`` fewer lookups. Two workers can both
    sit at that count; taking either keeps the sum exact, because the
    sum telescopes over each worker's responses. Timed responses are
    summed; a warm-up response can only follow another warm-up one.
    """
    def lookups(snap: dict) -> int:
        return snap.get("hits", 0) + snap.get("disk_hits", 0) + snap.get(
            "misses", 0
        )

    tails: dict[int, list[tuple[dict, bool]]] = {}
    total = dict.fromkeys(CACHE_COUNTERS, 0)
    total["unmatched"] = 0
    for snap, phases, timed in sorted(
        responses, key=lambda item: (lookups(item[0]), item[2])
    ):
        want = lookups(snap) - phases
        # Prefer a timed predecessor: a warm-up one may be the only
        # start another timed response can have.
        options = sorted(
            (t for t in tails.get(want, []) if timed or not t[1]),
            key=lambda t: not t[1],
        )
        base: dict = {}
        if options:
            tails[want].remove(options[0])
            base = options[0][0]
        tails.setdefault(lookups(snap), []).append((snap, timed))
        if timed and want > 0 and not options:
            total["unmatched"] += 1
        elif timed:
            for key in CACHE_COUNTERS:
                total[key] += snap.get(key, 0) - base.get(key, 0)
    return total


def check_records(workload, records, redraw) -> int:
    """Check every response; marks wrong ones failed. Returns the count.

    Records in ``redraw`` are also re-run in process.
    """
    from workloads import Checker

    checker = Checker(workload.graph)
    wrong = 0
    redraw_ids = {id(record) for record in redraw}
    for record in records:
        if not record.ok:
            continue
        request, result = record.request, record.response.result
        if request["request"] == "sample":
            error = checker.spanning_tree_error(result.tree)
        else:
            error = checker.mst_error(request, result)
        expected = workload.reference.get((request["request"], request["seed"]))
        if error is None and expected is not None and result.rounds != expected:
            error = f"rounds {result.rounds} != recorded {expected}"
        if error is None and id(record) in redraw_ids:
            error = checker.redraw_error(request, result)
        if error is not None:
            record.error = f"wrong output: {error}"
            wrong += 1
    return wrong


@dataclass
class Pass:
    """One server's life: warm-up, then a timed closed loop."""

    spawn_s: float
    warm_s: float
    warm: list
    timed: list
    start_ns: int
    end_ns: int
    stats: dict
    cpu_s: float
    rss_mib: float
    disk_mib: float

    def done(self) -> list:
        return [r for r in self.timed if r.ok]

    def latencies(self) -> list[float]:
        """Timed latencies in ms; a failed request counts as +inf."""
        return [r.latency_ms if r.ok else float("inf") for r in self.timed]


def timed_pass(workload, cache_dir: Path, seconds: float,
               trace_dir: Path | None = None) -> Pass:
    """Serve the warm-up, then ``seconds`` of timed load, on an empty
    volume that is measured and deleted once the server has stopped."""
    from loadgen import closed_loop
    from server import cpu_seconds, disk_usage_mib, peak_rss_mib

    cache_dir.mkdir(exist_ok=True)
    server, spawn_s = start_server(cache_dir, trace_dir)
    try:
        began = time.perf_counter()
        warm = closed_loop(server.port, workload.graph,
                           iter(workload.warmup), count=len(workload.warmup))
        warm_s = time.perf_counter() - began
        stats_before = stats_counters(server.port)
        cpu_before = cpu_seconds(server.pids())
        start_ns = time.monotonic_ns()
        timed = closed_loop(server.port, workload.graph, workload.timed,
                            seconds=seconds)
        end_ns = max(r.end_ns for r in timed)
        cpu = cpu_seconds(server.pids()) - cpu_before
        stats_after = stats_counters(server.port)
        rss = peak_rss_mib(server.pids())
    finally:
        server.stop()
    disk = disk_usage_mib(cache_dir)
    shutil.rmtree(cache_dir)
    return Pass(
        spawn_s, warm_s, warm, timed, start_ns, end_ns,
        {k: stats_after[k] - stats_before[k] for k in STATS_KEYS},
        cpu, rss, disk,
    )


def measure(workload, run_dir: Path, seconds: float) -> tuple:
    """The untraced run: end-to-end metrics, report, every record."""
    cache_dir = run_dir / "cache"
    cache_dir.mkdir()
    spawn_seconds = []
    for _ in range(SPAWNS - 1):
        server, took = start_server(cache_dir)
        server.stop()
        spawn_seconds.append(took)
    run = timed_pass(workload, cache_dir, seconds)
    spawn_seconds.append(run.spawn_s)
    records = run.warm + run.timed
    wrong = check_records(workload, records, run.timed[:REDRAWS])

    done = run.done()
    wall_s = (run.end_ns - run.start_ns) / 1e9
    latencies = run.latencies()
    prefix = [r for r in run.timed[:ROUNDS_PREFIX] if r.ok]
    drawn = {r.request["seed"] for r in records
             if r.ok and r.request["request"] == "sample"}
    metrics = {
        "throughput_rps": (len(done) / wall_s, "req/s"),
        "latency_p50_ms": (percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (percentile(latencies, 0.9), "ms"),
        "cpu_s_per_request": (run.cpu_s / max(len(done), 1), "s"),
        "peak_rss_mb": (run.rss_mib, "MiB"),
        "cache_disk_mb_per_seed": (run.disk_mib / max(len(drawn), 1), "MiB"),
        "rounds_per_request": (
            statistics.fmean(r.response.result.rounds for r in prefix)
            if prefix else 0.0,
            "rounds",
        ),
        "setup_s": (statistics.median(spawn_seconds) + run.warm_s, "s"),
    }
    # MST requests never look up phases, so they leave the counters as
    # they were and would only make the chains ambiguous.
    snapshots = [
        (r.response.meta.get("cache", {}), r.response.result.phases, counted)
        for group, counted in ((run.warm, False), (done, True))
        for r in group if r.ok and r.request["request"] == "sample"
    ]
    report = {
        "wrong_outputs": wrong,
        "wall_s": wall_s,
        "spawn_s": spawn_seconds,
        "cache_disk_mb": run.disk_mib,
        "sample_seeds": len(drawn),
        "stats": run.stats,
        "cache": cache_deltas(snapshots),
        "rounds_prefix": len(prefix),
    }
    return metrics, report, records


def trace(workload, run_dir: Path, seconds: float) -> tuple:
    """The traced run: per-layer metrics, report, every record.

    Half of ``seconds`` goes to a plain server, half to a traced one;
    each starts from an empty volume, because the store's write cost
    grows with the volume and would bias the overhead figure.
    """
    from tracing import CLIENT_TARGETS, Recorder, layer_report, read_spans

    trace_dir = run_dir / "trace"
    trace_dir.mkdir()
    plain = timed_pass(workload, run_dir / "cache", seconds / 2)
    client = Recorder()
    client.install(CLIENT_TARGETS)
    traced = timed_pass(workload, run_dir / "cache-traced", seconds / 2,
                        trace_dir)
    records = plain.warm + plain.timed + traced.warm + traced.timed
    wrong = check_records(workload, records, traced.timed[:REDRAWS])

    done = traced.done()
    pid = os.getpid()
    spans = read_spans(trace_dir) + [
        [(pid, s[0]), None if s[1] < 0 else (pid, s[1]), *s[2:], pid]
        for s in client.spans
    ]
    layers = layer_report(
        spans, start_ns=traced.start_ns, end_ns=traced.end_ns,
        requests=len(done),
        latency_ms_total=sum(r.latency_ms for r in done),
    )
    layers["service.queue_wait_ms"] = (
        traced.stats["queue_wait_ms"] / max(len(done), 1)
    )
    p50 = {False: percentile(plain.latencies(), 0.5),
           True: percentile(traced.latencies(), 0.5)}
    layers["trace.overhead_share"] = (p50[True] - p50[False]) / p50[False]
    units = {"_ms": "ms", "_share": "ratio", "_kb": "KiB"}
    metrics = {
        name: (value, next((u for s, u in units.items() if name.endswith(s)),
                           "count"))
        for name, value in sorted(layers.items())
    }
    report = {"latency_p50_ms": {"untraced": p50[False], "traced": p50[True]},
              "spans": len(spans), "wrong_outputs": wrong}
    return metrics, report, records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench-runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # Anything in this process that resolves cache_dir="auto" stays here.
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    try:
        workload = make_workload(args.workload, args.seed)
        if args.trace:
            run = trace
        else:
            run = measure
        metrics, report, records = run(workload, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = sum(1 for r in records if not r.ok)
    errors = sorted({r.error for r in records if not r.ok})
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": len(records),
        "failed_share": failed / len(records),
        "errors": errors[:5],
        "host": host_metadata(),
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(f"{'failed_share':40s} {report['failed_share']:14.6f} ratio")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
