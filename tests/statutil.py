"""Statistical test utilities: seeded draws, exact tree laws, thresholds.

The placement engine's correctness is *distributional* -- a bug does not
crash, it skews which spanning trees come out. These helpers turn that
property into deterministic regression tests.

Threshold policy (documented here, referenced from tests/README.md):

- Every statistical test draws from a FIXED seed, so each test is a
  deterministic function of the code -- it can only flip from pass to
  fail when the sampled law (or the RNG consumption order) changes.
- Chi-square goodness-of-fit p-values are compared against
  ``P_FLOOR = 1e-4``. For a correct sampler the p-value is uniform on
  [0, 1]; one seeded draw sits below 1e-4 with probability 1e-4, and the
  checked-in seeds were verified to give comfortable margins (p > 0.01).
  A placement-law bug is not a small perturbation: dropping the
  ``1/T[r,c]!`` factor or breaking the suffix partition function drives
  p below 1e-30 at ~2k draws on these graphs.
- Empirical total-variation distance is compared against
  ``TV_SLACK = 2.0`` times the perfect-sampler expectation
  ``sqrt(T / (2 pi k))`` (see `repro.analysis.tv.expected_tv_noise`).
  The expectation concentrates tightly at these sample sizes, so 2x is
  both forgiving to noise and far below the deviation a real bias
  produces.

Both gates must pass: chi-square is sensitive to concentrated bias on a
few trees, TV to diffuse bias across many.

Beyond Kirchhoff enumeration the exact law is unavailable (too many
trees to list), so the harness falls back to *two-sample* comparison
against a cheap sequential oracle: :func:`draw_oracle_trees` draws from
the classical exact samplers in :mod:`repro.walks.sequential` (Wilson's
loop-erased walks, Aldous-Broder) and
:func:`assert_same_tree_law` runs a chi-square homogeneity test over
the pooled support of the two samples, with the same fixed-seed
``P_FLOOR`` policy. A two-sample test cannot certify exactness the way
the enumeration gate does, but any placement/variant bug that skews the
sampled law shows up against an oracle known exact by construction.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np
from scipy import stats as scipy_stats

from repro.analysis.tv import expected_tv_noise, tv_distance
from repro.engine.ensemble import EnsembleEngine
from repro.engine.runner import SamplerEngine
from repro.graphs.core import WeightedGraph
from repro.graphs.spanning import TreeKey, uniform_tree_distribution
from repro.walks.sequential import aldous_broder_tree, wilson_tree

P_FLOOR = 1e-4
TV_SLACK = 2.0

ORACLES = {
    "wilson": wilson_tree,
    "aldous_broder": aldous_broder_tree,
}

__all__ = [
    "P_FLOOR",
    "TV_SLACK",
    "ORACLES",
    "exact_tree_law",
    "chi_square_vs_law",
    "empirical_tv_vs_law",
    "assert_matches_tree_law",
    "assert_same_tree_law",
    "draw_trees",
    "draw_oracle_trees",
]


def exact_tree_law(graph: WeightedGraph) -> dict[TreeKey, float]:
    """Kirchhoff-exact target law: weight-proportional over all trees.

    Uniform for unweighted graphs; for weighted graphs each tree's
    probability is its edge-weight product over the weighted Matrix-Tree
    normalizer (exactly the law the paper's footnote 1 samples).
    """
    return dict(uniform_tree_distribution(graph))


def chi_square_vs_law(
    trees: Iterable[TreeKey], law: Mapping[TreeKey, float]
) -> tuple[float, float]:
    """Chi-square goodness-of-fit of sampled trees against an exact law.

    Returns ``(statistic, p_value)``. Raises ``AssertionError`` when a
    sample falls outside the law's support -- that is never noise.
    """
    counts = Counter(trees)
    total = sum(counts.values())
    assert total > 0, "no samples provided"
    unknown = set(counts) - set(law)
    assert not unknown, f"{len(unknown)} sampled keys outside the tree law"
    support = list(law)
    observed = np.array([counts.get(t, 0) for t in support], dtype=np.float64)
    expected = np.array([law[t] * total for t in support])
    statistic, p_value = scipy_stats.chisquare(observed, expected)
    return float(statistic), float(p_value)


def empirical_tv_vs_law(
    trees: Iterable[TreeKey], law: Mapping[TreeKey, float]
) -> float:
    """Exact-TV helper: empirical distribution vs the target law."""
    counts = Counter(trees)
    total = sum(counts.values())
    assert total > 0, "no samples provided"
    empirical = {tree: count / total for tree, count in counts.items()}
    return tv_distance(empirical, dict(law))


def assert_matches_tree_law(
    graph: WeightedGraph,
    trees: list[TreeKey],
    *,
    p_floor: float = P_FLOOR,
    tv_slack: float = TV_SLACK,
    label: str = "",
) -> None:
    """The harness's double gate: chi-square p-floor AND TV noise bound."""
    law = exact_tree_law(graph)
    statistic, p_value = chi_square_vs_law(trees, law)
    tv = empirical_tv_vs_law(trees, law)
    noise = expected_tv_noise(len(law), len(trees))
    context = f" [{label}]" if label else ""
    assert p_value >= p_floor, (
        f"chi-square rejects the tree law{context}: p={p_value:.3e} "
        f"(stat={statistic:.2f}, {len(trees)} draws over {len(law)} trees)"
    )
    assert tv <= tv_slack * noise, (
        f"empirical TV {tv:.4f} exceeds {tv_slack}x the perfect-sampler "
        f"noise {noise:.4f}{context}"
    )


def assert_same_tree_law(
    trees_a: list[TreeKey],
    trees_b: list[TreeKey],
    *,
    p_floor: float = P_FLOOR,
    label: str = "",
) -> None:
    """Two-sample gate: chi-square homogeneity over the pooled support.

    For graphs past exact enumeration, compares a sampler's draws
    against an oracle's draws (both from the same law iff the sampler is
    correct). Uses the 2 x K contingency chi-square without continuity
    correction; the fixed-seed ``P_FLOOR`` policy from the module
    docstring applies unchanged.
    """
    assert trees_a and trees_b, "both samples must be non-empty"
    support = sorted(set(trees_a) | set(trees_b))
    context = f" [{label}]" if label else ""
    if len(support) == 1:
        return  # one tree class in both samples: trivially homogeneous
    counts_a = Counter(trees_a)
    counts_b = Counter(trees_b)
    table = np.array(
        [
            [counts_a.get(t, 0) for t in support],
            [counts_b.get(t, 0) for t in support],
        ],
        dtype=np.float64,
    )
    statistic, p_value, _, _ = scipy_stats.chi2_contingency(
        table, correction=False
    )
    assert p_value >= p_floor, (
        f"chi-square rejects sample homogeneity{context}: "
        f"p={p_value:.3e} (stat={statistic:.2f}, "
        f"{len(trees_a)}+{len(trees_b)} draws over {len(support)} "
        f"observed trees)"
    )


def draw_trees(
    graph: WeightedGraph,
    count: int,
    *,
    config,
    variant: str = "approximate",
    seed: int = 0,
    jobs: int = 1,
    engine_cls=SamplerEngine,
) -> list[TreeKey]:
    """``count`` i.i.d. trees through the ensemble engine (seeded).

    ``engine_cls`` swaps in another engine class -- the planless
    ``ReferenceEngine`` oracle -- for the draws.
    """
    engine = engine_cls(graph, config, variant=variant)
    result = EnsembleEngine(engine).sample_ensemble(
        count, seed=seed, jobs=jobs
    )
    return result.trees


def draw_oracle_trees(
    graph: WeightedGraph,
    count: int,
    *,
    oracle: str = "wilson",
    seed: int = 0,
) -> list[TreeKey]:
    """``count`` i.i.d. trees from a sequential exact sampler (seeded).

    ``oracle`` names one of :data:`ORACLES` -- Wilson's loop-erased
    walks (the fast default) or Aldous-Broder. Both are exact for the
    weight-proportional tree law by classical results, which is what
    makes them usable as the reference arm of
    :func:`assert_same_tree_law` on graphs too large to enumerate.
    """
    try:
        draw = ORACLES[oracle]
    except KeyError:
        raise ValueError(
            f"unknown oracle {oracle!r}; choose from {sorted(ORACLES)}"
        ) from None
    rng = np.random.default_rng(seed)
    return [draw(graph, rng) for _ in range(count)]
