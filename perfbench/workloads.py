"""The benchmark's three traffic mixes and the checks on their outputs.

Every request seed comes from the workload seed given on the command
line; the server only ever sees the generated requests.

- ``sample-fresh``: single-draw ``sample`` requests on ``complete``
  n=96, each with a new pinned seed. New phase subsets make every draw
  build its numerics and write entries and plans to the disk tier.
  Every fourth request is an ``mst`` on the same graph (new seed, random
  weights), so the MST path and its Kruskal check run in every pass.
- ``sample-replay``: the same graph. Set-up primes a working set of 32
  pinned seeds (about 350 phase entries, over 5x the 64-entry RAM tier
  of each worker); the timed phase replays them in one fixed shuffled
  order, so draws read the disk tier instead of building.
- ``mst-light``: ``mst`` requests on ``gnp`` n=128 with fresh seeds and
  random weights under the default recipe. Engine work is a few ms, so
  the service path (HTTP, admission, dispatch, pickling, codec) leads.

Each warm-up begins with reference requests: fixed pinned seeds whose
modeled rounds are recorded below, so a change to the round model is a
wrong output whatever the workload seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("sample-fresh", "sample-replay", "mst-light")

SAMPLE_GRAPH = {"family": "complete", "n": 96}
MST_GRAPH = {"family": "gnp", "n": 128, "seed": 7}
REPLAY_WORKING_SET = 32
# sample-fresh warm-up: 12 draws (and 4 mst) fill both workers' 64-entry
# RAM tiers (about 11 new phase entries a draw), so timing starts with
# evictions already running.
SAMPLE_WARMUP = 16
MST_WARMUP = 40
# In sample-fresh, request i (from 0) is an mst when i % MST_EVERY == 3.
MST_EVERY = 4

# Modeled rounds of the reference requests, (request, pinned seed) ->
# rounds, per graph: the figures served at the commit that defined the
# benchmark, equal to what an in-process Session reports.
REFERENCE_ROUNDS = {
    "sample-graph": {("sample", 1): 11860, ("mst", 1): 5},
    "mst-graph": {("mst", 1): 5},
}


@dataclass
class Workload:
    """Requests for one run: a warm-up list and an endless timed stream.

    ``reference`` maps (request, pinned seed) to the expected rounds of
    the reference requests that open the warm-up.
    """

    name: str
    graph: dict
    warmup: list[dict]
    timed: Iterator[dict]
    reference: dict[tuple[str, int], int]


def _fresh_seeds(rng: random.Random, taken) -> Iterator[int]:
    seen = set(taken)
    while True:
        seed = rng.getrandbits(62)
        if seed not in seen:
            seen.add(seed)
            yield seed


def make_workload(name: str, seed: int) -> Workload:
    """The requests of workload ``name`` for workload seed ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}/{seed}")
    graph, reference = (
        (MST_GRAPH, REFERENCE_ROUNDS["mst-graph"]) if name == "mst-light"
        else (SAMPLE_GRAPH, REFERENCE_ROUNDS["sample-graph"])
    )
    seeds = _fresh_seeds(rng, taken=[s for _kind, s in reference])
    opening = [{"request": kind, "seed": s} for kind, s in reference]
    if name == "sample-fresh":
        stream = (
            {"request": "mst" if i % MST_EVERY == MST_EVERY - 1 else "sample",
             "seed": s}
            for i, s in enumerate(seeds)
        )
        warmup = opening + [next(stream) for _ in range(SAMPLE_WARMUP)]
        return Workload(name, graph, warmup, stream, reference)
    if name == "sample-replay":
        working = [next(seeds) for _ in range(REPLAY_WORKING_SET)]
        order = list(working)
        rng.shuffle(order)
        warmup = opening + [{"request": "sample", "seed": s} for s in working]
        timed = ({"request": "sample", "seed": s}
                 for s in itertools.cycle(order))
        return Workload(name, graph, warmup, timed, reference)
    warmup = opening + [{"request": "mst", "seed": next(seeds)}
                        for _ in range(MST_WARMUP)]
    timed = ({"request": "mst", "seed": s} for s in seeds)
    return Workload(name, graph, warmup, timed, reference)


# -- output checks ---------------------------------------------------------


class Checker:
    """Checks responses of one graph against in-process recomputation."""

    def __init__(self, graph_spec: dict) -> None:
        from repro.service.protocol import ServiceLimits, parse_service_envelope

        task = parse_service_envelope(
            {"graph": graph_spec, "request": {"request": "sample"}},
            ServiceLimits(),
        )
        self.graph, self.meta = task.build_graph()
        self._edges = {tuple(sorted(e)) for e in self.graph.edges()}
        self._session = None

    def session(self):
        """An in-process session with the server's default preset."""
        if self._session is None:
            from repro.api.session import Session

            self._session = Session(
                self.graph, "fast-bench", seed=0, meta=self.meta
            )
        return self._session

    def spanning_tree_error(self, tree) -> str | None:
        """Why ``tree`` is not a spanning tree of the graph, or None."""
        n = self.graph.n
        edges = [tuple(sorted(map(int, e))) for e in tree]
        if len(edges) != n - 1:
            return f"tree has {len(edges)} edges, expected {n - 1}"
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            if (u, v) not in self._edges:
                return f"edge {(u, v)} is not in the graph"
            ru, rv = find(u), find(v)
            if ru == rv:
                return f"edge {(u, v)} closes a cycle"
            parent[ru] = rv
        return None

    def mst_error(self, request: dict, result) -> str | None:
        """Compare an MST response with the sequential Kruskal oracle."""
        import numpy as np

        from repro.core.mst import resolve_weights
        from repro.walks.sequential import kruskal_forest

        weights = resolve_weights(
            self.graph, "random", np.random.SeedSequence(request["seed"])
        )
        forest, total = kruskal_forest(self.graph, weights)
        if [list(map(int, e)) for e in result.forest] != [
            list(map(int, e)) for e in forest
        ]:
            return "forest differs from kruskal_forest"
        if result.total_weight != total:
            return f"weight {result.total_weight!r} != kruskal {total!r}"
        return None

    def redraw_error(self, request: dict, result) -> str | None:
        """Re-run ``request`` in process; tree and rounds must match."""
        from repro.api.requests import request_from_dict

        local = self.session().run(request_from_dict(dict(request))).result
        if request["request"] == "sample":
            remote_tree = json.dumps([list(map(int, e)) for e in result.tree])
            local_tree = json.dumps([list(map(int, e)) for e in local.tree])
            if remote_tree != local_tree:
                return "tree differs from the in-process draw"
        elif json.dumps(result.to_dict(), sort_keys=True) != json.dumps(
            local.to_dict(), sort_keys=True
        ):
            return "report differs from the in-process run"
        if result.rounds != local.rounds:
            return f"rounds {result.rounds} != in-process {local.rounds}"
        return None
