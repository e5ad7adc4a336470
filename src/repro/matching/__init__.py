"""Weighted perfect matching sampling (Sections 1.8 and 2.1.3).

The sampler's walk-reconstruction step reduces to sampling a perfect
matching of a complete bipartite graph B with probability proportional to
the product of the matching's edge weights; the sum of all matching weights
is the permanent of B's biadjacency matrix. The paper invokes the
Jerrum-Sinclair-Vigoda permanent FPRAS [46] plus the Jerrum-Valiant-
Vazirani sampling-from-counting reduction [47].

Placement uses one sampler, exact by construction (see DESIGN.md
section 1 for the substitution argument):
:class:`~repro.matching.sampler.ClassifiedBipartite` +
:func:`~repro.matching.sampler.sample_assignment_by_classes` exploit B's
class structure (rows/columns with identical weight profiles) through a
contingency-table DP. Two general samplers stay as test oracles for its
law:

- :func:`~repro.matching.sampler.sample_matching_exact` -- exact
  self-reducible sampling with Ryser permanents (small instances);
- :func:`~repro.matching.sampler.sample_matching_mcmc` -- a Metropolis
  chain over permutations, the polynomial-time approximate sampler of
  the paper's "approximate sampler + union bound" analysis (Lemma 4).
"""

from repro.matching.permanent import (
    permanent_class_dp,
    permanent_exact,
    permanent_ryser,
)
from repro.matching.sampler import (
    ClassifiedBipartite,
    expand_table_to_assignment,
    instance_digest,
    prepare_contingency_dp,
    sample_assignment_by_classes,
    sample_contingency_table,
    sample_matching_exact,
    sample_matching_mcmc,
)

__all__ = [
    "permanent_class_dp",
    "permanent_exact",
    "permanent_ryser",
    "ClassifiedBipartite",
    "expand_table_to_assignment",
    "instance_digest",
    "prepare_contingency_dp",
    "sample_assignment_by_classes",
    "sample_contingency_table",
    "sample_matching_exact",
    "sample_matching_mcmc",
]
