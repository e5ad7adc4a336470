"""Span recording for the traced benchmark run, and the per-layer report.

A :class:`Recorder` wraps named functions and methods of the ``repro``
package. Each call records one span: ``[id, parent, layer, start_ns,
end_ns, request_id, extra]``, with monotonic nanosecond clocks (one clock
for every process on the host, so server, shard and load-generator spans
line up). ``request_id`` is the request's pinned seed; nested spans
inherit it from the outermost span of their thread.

Spans stay in memory. A recorder given a directory appends them to
``spans-<pid>.jsonl`` whenever the outermost span of a thread ends: shard
workers leave through ``os._exit`` and skip ``atexit``, so the write
happens after each ``run_task`` instead.

Wrapping a function rebinds every module attribute that names it, so
code that imported it by name (``from repro.core.phase import
run_phase_walk``) calls the wrapper too. Forked shard workers inherit
the wrapped functions.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (layer, dotted target, how to read the request id from the call).
# A target is "module:function" or "module:Class.method".
SERVER_TARGETS = (
    ("service.protocol.parse", "repro.service.protocol:parse_service_envelope",
     "payload"),
    ("service.pool.run_task", "repro.service.pool:run_task", "task"),
    ("api.session.run", "repro.api.session:Session.run", None),
    ("api.responses.encode", "repro.api.responses:Response.to_dict", None),
    ("engine.store.ram_lookup", "repro.engine.cache:DerivedGraphCache.lookup",
     None),
    ("engine.store.disk_read", "repro.engine.store:DiskTier.lookup", None),
    ("engine.store.disk_write", "repro.engine.store:DiskTier.store", None),
    ("engine.store.disk_write", "repro.engine.store:DiskTier.store_plan", None),
    ("engine.runner", "repro.engine.runner:SamplerEngine.run", None),
    ("linalg.build", "repro.linalg.backend:DenseLinalg.transition_matrix", None),
    ("linalg.build", "repro.linalg.backend:DenseLinalg.shortcut_matrix", None),
    ("linalg.build", "repro.linalg.backend:DenseLinalg.schur_transition", None),
    ("linalg.build", "repro.linalg.backend:SparseLinalg.transition_matrix",
     None),
    ("linalg.build", "repro.linalg.backend:SparseLinalg.shortcut_matrix", None),
    ("linalg.build", "repro.linalg.backend:SparseLinalg.schur_transition",
     None),
    ("linalg.build", "repro.linalg.matpow:PowerLadder.__init__", None),
    ("core.phase.walk", "repro.core.phase:run_phase_walk", None),
    ("core.placement.place", "repro.core.placement:place_midpoints", None),
    ("matching.dp", "repro.matching.sampler:prepare_contingency_dp", None),
    ("clique.ledger", "repro.clique.network:CongestedClique.charge_step", None),
    ("clique.ledger", "repro.clique.cost:RoundLedger.charge", None),
    ("clique.ledger", "repro.clique.cost:RoundLedger.charge_matmul", None),
    ("core.mst.run", "repro.core.mst:run_mst", None),
    ("walks.sequential.kruskal", "repro.walks.sequential:kruskal_forest", None),
)

CLIENT_TARGETS = (
    ("api.responses.decode", "repro.service.client:response_from_dict",
     "response"),
)

# Lookups report hit or miss in their span's ``extra``.
_LOOKUP_LAYERS = ("engine.store.ram_lookup", "engine.store.disk_read")


def _request_id(kind: str | None, args: tuple, kwargs: dict):
    """The pinned seed of the request a top-level call serves."""
    if kind is None:
        return None
    try:
        if kind == "payload":
            return args[0]["request"].get("seed")
        if kind == "task":
            return args[0].request.seed
        if kind == "response":
            return args[0]["meta"].get("seed")
    except (AttributeError, IndexError, KeyError, TypeError):
        return None
    return None


class Recorder:
    """Records spans for wrapped callables; optionally flushes to a file."""

    def __init__(self, out_dir: str | os.PathLike | None = None) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.spans: list[list] = []
        self._next_id = 0
        self._guard = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._next_id = 0
        self._guard = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, id_kind: str | None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            with recorder._guard:
                span_id = recorder._next_id
                recorder._next_id += 1
            if stack:
                parent, request_id = stack[-1]
            else:
                parent, request_id = -1, _request_id(id_kind, args, kwargs)
            stack.append((span_id, request_id))
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            extra = None
            if layer in _LOOKUP_LAYERS:
                extra = {"hit": result is not None}
            elif layer == "service.pool.run_task":
                extra = {"cache": result.get("meta", {}).get("cache", {})}
            elif layer == "api.responses.decode":
                # The body the server wrote: the same json.dumps call.
                body = json.dumps(args[0], allow_nan=False).encode()
                extra = {"bytes": len(body)}
            span = [span_id, parent, layer, start, end, request_id, extra]
            with recorder._guard:
                recorder.spans.append(span)
            if not stack and recorder.out_dir is not None:
                recorder.flush()
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every target and rebind each module attribute naming it."""
        # Import first, so every by-name import exists before the chase.
        for _layer, target, _id_kind in targets:
            __import__(target.partition(":")[0])
        for layer, target, id_kind in targets:
            module_name, _, qualname = target.partition(":")
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original, id_kind)
            setattr(owner, attr, wrapped)
            if not path:  # a module-level function: chase by-name imports
                for module in list(sys.modules.values()):
                    if getattr(module, "__dict__", {}).get(attr) is original:
                        setattr(module, attr, wrapped)

    def flush(self) -> None:
        """Append the buffered spans to this process's span file."""
        with self._guard:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(out_dir: str | os.PathLike) -> list[list]:
    """Every span flushed under ``out_dir``, tagged with its process id.

    Returned rows are ``[key, parent_key, layer, start, end, request_id,
    extra, pid]`` where keys are ``(pid, span id)``.
    """
    rows = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-", 1)[1])
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                span_id, parent, layer, start, end, rid, extra = json.loads(line)
                parent_key = None if parent < 0 else (pid, parent)
                rows.append(
                    [(pid, span_id), parent_key, layer, start, end, rid,
                     extra, pid]
                )
    return rows


# Per-layer metrics that are the self time of one layer.
SELF_TIME_METRICS = {
    "service.protocol.parse_ms": "service.protocol.parse",
    "service.pool.run_task_ms": "service.pool.run_task",
    "api.session.run_ms": "api.session.run",
    "api.responses.encode_ms": "api.responses.encode",
    "api.responses.decode_ms": "api.responses.decode",
    "engine.store.disk_write_ms": "engine.store.disk_write",
    "engine.store.disk_read_ms": "engine.store.disk_read",
    "engine.runner.self_ms": "engine.runner",
    "linalg.build_ms": "linalg.build",
    "core.phase.walk_ms": "core.phase.walk",
    "core.placement.place_ms": "core.placement.place",
    "matching.dp_ms": "matching.dp",
    "clique.ledger_ms": "clique.ledger",
    "core.mst.run_ms": "core.mst.run",
    "walks.sequential.kruskal_ms": "walks.sequential.kruskal",
}


def layer_report(
    spans: list[list], *, start_ns: int, end_ns: int, requests: int,
    latency_ms_total: float,
) -> dict[str, float]:
    """Per-request layer figures for spans that start in the timed window.

    ``requests`` and ``latency_ms_total`` describe the client side of the
    same window: completed requests and the sum of their latencies.
    """
    per = max(requests, 1)
    in_window = [s for s in spans if start_ns <= s[3] <= end_ns]
    child_ns: dict = defaultdict(int)
    for span in in_window:
        if span[1] is not None:
            child_ns[span[1]] += span[4] - span[3]
    self_ns: dict[str, int] = defaultdict(int)
    top_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    hits: dict[str, int] = defaultdict(int)
    for span in in_window:
        key, parent, layer, start, end = span[:5]
        self_ns[layer] += (end - start) - child_ns[key]
        calls[layer] += 1
        if parent is None:
            top_ns[layer] += end - start
        extra = span[6] or {}
        if extra.get("hit"):
            hits[layer] += 1

    report: dict[str, float] = {}
    for metric, layer in SELF_TIME_METRICS.items():
        report[metric] = self_ns[layer] / 1e6 / per

    run_task_ms = top_ns["service.pool.run_task"] / 1e6
    report["service.dispatch_ms"] = (latency_ms_total - run_task_ms) / per
    covered_ms = (
        top_ns["service.protocol.parse"] + top_ns["service.pool.run_task"]
        + top_ns["api.responses.decode"]
    ) / 1e6
    report["trace.unattributed_share"] = (
        (latency_ms_total - covered_ms) / latency_ms_total
        if latency_ms_total > 0 else 0.0
    )
    report["clique.ledger_calls"] = calls["clique.ledger"] / per

    # Every phase lookup asks the RAM tier first; a RAM miss asks disk.
    lookups = calls["engine.store.ram_lookup"]
    ram_hits = hits["engine.store.ram_lookup"]
    disk_hits = hits["engine.store.disk_read"]
    misses = calls["engine.store.disk_read"] - disk_hits
    report["engine.store.ram_hit_share"] = ram_hits / lookups if lookups else 0.0
    report["engine.store.disk_hit_share"] = (
        disk_hits / lookups if lookups else 0.0
    )
    report["engine.store.miss_share"] = misses / lookups if lookups else 0.0
    report["engine.store.evictions_per_request"] = (
        _evictions(spans, start_ns, end_ns) / per
    )
    decoded = [
        (s[6] or {}).get("bytes", 0) for s in in_window
        if s[2] == "api.responses.decode"
    ]
    report["api.responses.response_kb"] = (
        sum(decoded) / len(decoded) / 1024 if decoded else 0.0
    )
    return report


def _evictions(spans: list[list], start_ns: int, end_ns: int) -> int:
    """RAM-tier evictions in the window, from each worker's counters.

    ``meta["cache"]`` is cumulative per worker session; consecutive
    ``run_task`` spans of one process give exact per-request deltas.
    """
    by_pid: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[2] == "service.pool.run_task" and span[1] is None:
            by_pid[span[7]].append(span)
    total = 0
    for rows in by_pid.values():
        rows.sort(key=lambda s: s[3])
        previous = 0
        for span in rows:
            count = (span[6] or {}).get("cache", {}).get("evictions", 0)
            if start_ns <= span[3] <= end_ns:
                total += count - previous
            previous = count
    return total
