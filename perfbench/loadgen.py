"""Closed-loop load generator: a few clients, one request in flight each.

Each client thread takes the next request from a shared stream, sends
it over a fresh connection (the server answers one request per
connection), waits for the decoded response, and only then takes the
next. A slower server therefore receives less load.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator

CLIENTS = 2


@dataclass
class Record:
    """One attempted request; ``error`` is set when it failed."""

    request: dict
    start_ns: int
    end_ns: int
    response: object | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def closed_loop(
    port: int, graph: dict, requests: Iterator[dict], *,
    seconds: float | None = None, count: int | None = None,
) -> list[Record]:
    """Drive the server until ``seconds`` pass or ``count`` requests ran.

    No request is sent after the deadline; those in flight complete and
    are kept. Returns the records in send order.
    """
    from repro.service.client import ServiceClient

    deadline = None if seconds is None else time.monotonic() + seconds
    guard = threading.Lock()
    records: list[Record] = []

    def take() -> tuple[int, dict] | None:
        with guard:
            if deadline is not None and time.monotonic() >= deadline:
                return None
            if count is not None and len(records) >= count:
                return None
            request = next(requests)
            index = len(records)
            records.append(None)  # reserve the slot
            return index, request

    def client_loop() -> None:
        client = ServiceClient(port=port, retries=0, timeout=170.0)
        while (item := take()) is not None:
            index, request = item
            start = time.monotonic_ns()
            try:
                response = client.run(graph, request)
                error = None
            except Exception as exc:  # every failure counts, none stops the run
                response, error = None, f"{type(exc).__name__}: {exc}"
            records[index] = Record(
                request, start, time.monotonic_ns(), response, error
            )

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records
