"""E11 (Lemma 3 + JSV substitution ablation): matching sampler choices.

Paper claim: any weighted-perfect-matching sampler with per-draw TV error
eps/(4 sqrt n log ell) keeps the walk correct (Lemma 4); the paper plugs
in JSV+JVV. We ablate three realizations -- the exact class DP (the one
placement runs), and the exact self-reducible Ryser and Metropolis MCMC
samplers kept as its test oracles -- on an instance shaped like
the sampler's own placement step, measuring wall-clock and distributional
agreement on the *contingency-table* projection (the statistic the walk
reconstruction actually consumes; the finer within-class orderings are
uniform by symmetry for every sampler).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.matching import (
    ClassifiedBipartite,
    sample_contingency_table,
    sample_matching_exact,
    sample_matching_mcmc,
)

# A representative placement instance: 3 midpoint classes with counts
# (3, 2, 2) into 2 pair classes with counts (4, 3) -- the shape produced
# by a level with ~7 midpoints.
INSTANCE = ClassifiedBipartite(
    row_labels=(0, 1, 2),
    row_counts=(3, 2, 2),
    col_labels=("pq", "rs"),
    col_counts=(4, 3),
    class_weights=np.array([[0.4, 0.1], [0.2, 0.5], [0.3, 0.3]]),
)
N_SAMPLES = 1500


def _table_from_permutation(assignment, rows, col_class_of) -> tuple:
    """Project an expanded-matrix permutation onto its contingency table."""
    table = Counter()
    for row, col in enumerate(assignment):
        table[(rows[row], col_class_of[col])] += 1
    return tuple(sorted(table.items()))


def test_matching_sampler_ablation(benchmark, report, rng):
    expanded = INSTANCE.expanded_weights()
    rows = [0] * 3 + [1] * 2 + [2] * 2
    col_class_of = ["pq"] * 4 + ["rs"] * 3
    laws: dict[str, Counter] = {}
    timings: dict[str, float] = {}

    def experiment():
        start = time.perf_counter()
        laws["exact-dp"] = Counter(
            tuple(
                sorted(
                    ((INSTANCE.row_labels[r], INSTANCE.col_labels[c]), int(v))
                    for (r, c), v in np.ndenumerate(
                        sample_contingency_table(INSTANCE, rng)
                    )
                    if v > 0
                )
            )
            for _ in range(N_SAMPLES)
        )
        timings["exact-dp"] = time.perf_counter() - start

        start = time.perf_counter()
        laws["exact-permanent"] = Counter(
            _table_from_permutation(
                sample_matching_exact(expanded, rng), rows, col_class_of
            )
            for _ in range(N_SAMPLES)
        )
        timings["exact-permanent"] = time.perf_counter() - start

        start = time.perf_counter()
        laws["mcmc"] = Counter(
            _table_from_permutation(
                sample_matching_mcmc(expanded, steps=800, rng=rng),
                rows, col_class_of,
            )
            for _ in range(N_SAMPLES)
        )
        timings["mcmc"] = time.perf_counter() - start
        return laws

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    reference = laws["exact-dp"]
    support = len(set().union(*laws.values()))
    noise = np.sqrt(support / (2 * np.pi * N_SAMPLES))
    lines = [
        f"instance: 7 midpoints, 3 value classes, 2 pair classes; "
        f"{N_SAMPLES} draws each; {support} observed tables "
        f"(empirical-vs-empirical noise ~ {2 * noise:.3f})",
        f"{'sampler':<17s} {'secs':>7s} {'TV vs exact-dp':>15s}",
    ]
    tvs = {}
    for name, law in laws.items():
        keys = set(law) | set(reference)
        tv = 0.5 * sum(
            abs(law[k] / N_SAMPLES - reference[k] / N_SAMPLES) for k in keys
        )
        tvs[name] = tv
        lines.append(f"{name:<17s} {timings[name]:>7.2f} {tv:>15.4f}")
    lines.append(
        "shape check: all three samplers agree within sampling noise on "
        "the table law; class DP is the cheapest by a wide margin"
    )
    report("E11 / matching sampler ablation (JSV substitution)", lines)
    for name, tv in tvs.items():
        assert tv < max(0.1, 3 * 2 * noise), name
