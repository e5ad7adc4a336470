"""Midpoint placement: multiset collection + matching sampling (Lemmas 3-4).

Once the truncation point ``t*`` is fixed, the leader must fill the
midpoint positions of the truncated prefix. Receiving the sequences
``Pi_{p,q}`` is bandwidth-infeasible, so (Section 2.1.3):

1. the *chronologically final* midpoint ``m_f`` is queried directly and
   pinned to its position (Lemma 4's correctness hinges on the prefix
   ending at the first occurrence of the rho-th distinct vertex);
2. the leader receives only the multiset ``M`` of midpoints and samples a
   weighted perfect matching of the bipartite graph B between
   ``M' = M \\ {m_f}`` and the non-final midpoint positions ``P'``,
   with edge weight ``P^{delta/2}[p, x] * P^{delta/2}[x, q]`` for a
   position between the pair (p, q). Lemma 3: matching weight is
   proportional to the probability of the induced placement.

:func:`place_midpoints` samples that matching exactly with the
class-compressed contingency DP of :mod:`repro.matching.sampler` (TV error
0 in place of the paper's JSV + JVV pipeline; the Ryser and Metropolis
samplers there are test oracles, not placement paths).
:func:`place_by_pair_multisets` implements the exact variant's placement
(Appendix 5.3), where each pair's multiset is shuffled uniformly -- no
matching sampler at all.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.clique.network import CongestedClique
from repro.core.midpoints import Pair
from repro.core.truncation import LevelView
from repro.errors import SamplingError, WalkError
from repro.linalg.backend import matrix_col, matrix_row
from repro.matching.sampler import (
    ClassifiedBipartite,
    expand_table_to_assignment,
    sample_assignment_by_classes,
)
from repro.walks.fill import PartialWalk

__all__ = ["place_midpoints", "place_by_pair_multisets"]


def _charge_submatrix(clique: CongestedClique | None, distinct: int) -> None:
    """Leader broadcasts S (O(sqrt n) words) and receives the needed
    |S| x |S| submatrix of the half power (O(n) words) -- Section 2.1.3's
    'this can be done in O(1) rounds'."""
    if clique is None:
        return
    clique.broadcast(0, None, words=max(1, distinct), category="placement/broadcast-S")
    clique.charge_step(
        "placement/submatrix",
        max(1, distinct),
        max(1, distinct * distinct),
        total_words=max(1, distinct * distinct),
    )


_DP_STATE_BUDGET = 2_000_000


def _dp_cost_estimate(multiset: Counter, positions: list[int]) -> float:
    """Upper bound on the contingency-DP state space x column classes."""
    states = 1.0
    for count in multiset.values():
        states *= count + 1
        if states > 1e18:
            break
    return states * max(1, len(positions))


def _final_midpoint_position(t_star: int) -> int:
    """Largest odd (midpoint) position <= t*; the final midpoint's slot."""
    if t_star < 1:
        raise WalkError("truncated prefix contains no midpoint position")
    return t_star if t_star % 2 == 1 else t_star - 1


def _assemble(
    view: LevelView,
    t_star: int,
    placed: dict[int, int],
) -> PartialWalk:
    """Build W_{i+1} from old vertices and the placed midpoints."""
    vertices: list[int] = []
    for t in range(t_star + 1):
        if t % 2 == 0:
            vertices.append(view.walk.vertices[t // 2])
        else:
            vertices.append(placed[t])
    new_spacing = view.walk.spacing // 2
    if new_spacing < 1:
        raise WalkError("cannot halve spacing below 1")
    return PartialWalk(new_spacing, vertices)


def place_midpoints(
    view: LevelView,
    t_star: int,
    half_power,
    rng: np.random.Generator,
    *,
    clique: CongestedClique | None = None,
    plan=None,
    level: int | None = None,
) -> PartialWalk:
    """Sample the placement of the collected multiset (Section 2.1.3).

    Returns the next partial walk ``W_{i+1}`` (spacing halved, truncated
    at ``t*``), with the non-final midpoints placed by an exact
    weight-proportional matching sample.

    ``plan``/``level`` carry the phase's
    :class:`~repro.core.placement_plan.PlacementPlan` (the production
    path): weight columns come from the plan's per-(level, pair) law
    memo, the exact DP reuses the plan's prepared forward/backward
    passes for isomorphic instances, and the table and within-class
    order are block draws. Without a plan the DP is built per instance
    and sampled with the seed implementation's per-decision stream.
    """
    bank = view.bank
    truncated = view.truncated_pair_counts(t_star)
    t_final = _final_midpoint_position(t_star)
    final_value = view.value_at(t_final)  # O(1)-round point query
    if clique is not None:
        clique.charge_step("placement/final-midpoint", 1, 1, total_words=1)

    multiset = bank.truncated_counts(truncated)
    if multiset[final_value] < 1:
        raise SamplingError("final midpoint missing from collected multiset")
    multiset[final_value] -= 1
    multiset = +multiset  # drop zero entries

    positions = [t for t in view.midpoint_positions_upto(t_star) if t != t_final]
    if sum(multiset.values()) != len(positions):
        raise SamplingError(
            f"multiset size {sum(multiset.values())} != "
            f"{len(positions)} open positions"
        )

    placed: dict[int, int] = {t_final: final_value}
    if positions and _dp_cost_estimate(multiset, positions) > _DP_STATE_BUDGET:
        # The class DP is polynomial in the class *counts* but its state
        # space is the product of per-class multiplicities, which explodes
        # for very long truncated walks (huge multisets over few values).
        # Fall back to the appendix's per-pair multiset placement, which
        # resamples the same conditional law exactly (both are exact
        # resamplings of the true placement; see Appendix 5.3).
        return place_by_pair_multisets(
            view, t_star, rng, clique=clique, plan=plan
        )
    if positions:
        pair_for_position = {
            t: view.pair_of_gap((t - 1) // 2) for t in positions
        }
        col_classes: list[Pair] = sorted(set(pair_for_position.values()))
        col_counts = Counter(pair_for_position.values())
        row_labels = sorted(multiset)
        # One column per (p, q) class, filled from the backend-format
        # half power via whole-row/column extraction (works for dense
        # and CSR alike; entry values match scalar indexing exactly).
        labels_arr = np.asarray(row_labels, dtype=np.intp)
        weights = np.empty((len(row_labels), len(col_classes)))
        for c, (p, q) in enumerate(col_classes):
            if plan is not None:
                # The memoized full law restricted to the multiset's
                # labels: gather-after-multiply equals the per-pair
                # multiply-after-gather entry for entry.
                law, __ = plan.law(level, p, q, half_power)
                weights[:, c] = law[labels_arr]
            else:
                from_p = matrix_row(half_power, p)
                into_q = matrix_col(half_power, q)
                weights[:, c] = from_p[labels_arr] * into_q[labels_arr]
        instance = ClassifiedBipartite(
            row_labels=tuple(row_labels),
            row_counts=tuple(multiset[x] for x in row_labels),
            col_labels=tuple(col_classes),
            col_counts=tuple(col_counts[c] for c in col_classes),
            class_weights=weights,
        )
        distinct = len(set(view.walk.vertices[: t_star // 2 + 1]))
        distinct += len(row_labels) + 1
        _charge_submatrix(clique, distinct)
        per_class = _sample_assignment(instance, rng, plan=plan)
        # Hand the sampled labels to positions class by class, in
        # chronological order within each class.
        class_index_of = {pair: c for c, pair in enumerate(col_classes)}
        cursor = {c: 0 for c in col_classes}
        for t in positions:
            pair = pair_for_position[t]
            labels = per_class[class_index_of[pair]]
            placed[t] = int(labels[cursor[pair]])
            cursor[pair] += 1
    return _assemble(view, t_star, placed)


def _sample_assignment(
    instance: ClassifiedBipartite,
    rng: np.random.Generator,
    *,
    plan=None,
) -> list[list[int]]:
    """Exact matching sample as per-column-class label lists
    (chronological within class)."""
    if plan is None:
        per_class = sample_assignment_by_classes(instance, rng)
    else:
        # The deterministic DP build is shared across isomorphic
        # instances via the plan; only the sampling pass (one uniform
        # vector per table draw, resolved column by column against the
        # prepared CDFs) and the within-class order consume the rng.
        prepared = plan.prepared_dp(instance)
        if prepared.consumes_rng:
            table = prepared.sample_block(rng)
        else:
            table = prepared.sample()
        per_class = expand_table_to_assignment(
            instance, table, rng, rng_contract="v2"
        )
    return [[int(x) for x in labels] for labels in per_class]


def place_by_pair_multisets(
    view: LevelView,
    t_star: int,
    rng: np.random.Generator,
    *,
    clique: CongestedClique | None = None,
    plan=None,
) -> PartialWalk:
    """Appendix 5.3 placement: per-pair multisets, uniform shuffles.

    Every ``M_{p,q}`` sends the *multiset* of its truncated sequence
    (Theta(rho) words each; with rho = n^(1/3) the leader receives
    O(n^{2/3} * n^{1/3}) = O(n) words, O(1) rounds). Midpoints of a pair
    are exchangeable, so placing a uniformly random permutation of each
    pair's multiset is exact -- with the chronologically final midpoint
    pinned, as always.

    A ``plan`` (the production path) selects the block draw: one uniform
    vector for the level, argsorted per pair. Without one each pair
    draws its own ``rng.permutation``, the seed implementation's stream.
    The plan's memos are not consulted -- a shuffle needs no law.
    """
    bank = view.bank
    truncated = view.truncated_pair_counts(t_star)
    t_final = _final_midpoint_position(t_star)
    final_value = view.value_at(t_final)
    final_pair = view.pair_of_gap((t_final - 1) // 2)
    if clique is not None:
        clique.charge_step("placement/final-midpoint", 1, 1, total_words=1)
        words = sum(truncated.values()) + len(truncated)
        clique.charge_step(
            "placement/pair-multisets",
            max(1, max(truncated.values(), default=1)),
            max(1, words),
            total_words=max(1, words),
        )

    placed: dict[int, int] = {t_final: final_value}
    per_pair_positions: dict[Pair, list[int]] = {}
    for t in view.midpoint_positions_upto(t_star):
        if t == t_final:
            continue
        per_pair_positions.setdefault(view.pair_of_gap((t - 1) // 2), []).append(t)

    pending: list[tuple[list[int], list[int]]] = []
    total_values = 0
    for pair, upto in truncated.items():
        values = [int(v) for v in bank.sequence(pair)[:upto]]
        if pair == final_pair:
            values.remove(final_value)
        slots = per_pair_positions.get(pair, [])
        if len(values) != len(slots):
            raise SamplingError(
                f"pair {pair}: {len(values)} midpoints for {len(slots)} slots"
            )
        pending.append((values, slots))
        total_values += len(values)
    if plan is not None:
        # One uniform block for the level; argsorting a pair's slice of
        # iid uniform keys is a uniform permutation (ties have measure
        # zero), so each pair's multiset shuffle stays exact.
        block = rng.random(total_values)
        cursor = 0
        for values, slots in pending:
            order = np.argsort(block[cursor:cursor + len(values)])
            cursor += len(values)
            for slot, index in zip(slots, order):
                placed[slot] = values[int(index)]
    else:
        for values, slots in pending:
            order = rng.permutation(len(values))
            for slot, index in zip(slots, order):
                placed[slot] = values[int(index)]
    return _assemble(view, t_star, placed)
