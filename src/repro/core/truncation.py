"""Distributed binary search for the truncation point (Algorithm 3).

After level i's midpoints are generated (held by the ``M_{p,q}`` machines),
the leader must truncate the conceptual filled-in walk ``W^+_i`` at the
first occurrence of its rho-th distinct vertex -- *without ever receiving
the midpoint sequences*. ``CheckTruncationPoint(l')`` answers "is ``l' <=
l_{i+1}``?" from aggregate counts only:

- ``Dist``: distinct vertices in ``W^+_i[0, l']`` (old walk vertices in
  the prefix plus midpoint values with positive truncated counts);
- ``CountLast``: occurrences of the prefix's final vertex.

The predicate ``(Dist < rho) or (Dist == rho and CountLast == 1)`` is
*monotone* in ``l'`` (true up to the first occurrence of the rho-th
distinct vertex, false after), so O(log ell) probes of binary search find
the truncation point exactly. See :class:`LevelView` for the index
arithmetic between the spacing-delta walk ``W_i`` and the spacing-delta/2
walk ``W^+_i``.
"""

from __future__ import annotations

from collections import Counter

from repro.clique.network import CongestedClique
from repro.core.midpoints import MidpointBank, Pair
from repro.errors import WalkError
from repro.walks.fill import PartialWalk

__all__ = [
    "LevelView",
    "check_truncation_point",
    "find_truncation_index",
    "find_truncation_index_fast",
]


class LevelView:
    """Index arithmetic over the conceptual filled walk ``W^+_i``.

    ``W_i`` has ``L + 1`` filled vertices at spacing delta. With one
    midpoint per gap, ``W^+_i`` has ``2L + 1`` positions at spacing
    delta/2, indexed here by *position number* ``t`` (the walk index is
    ``t * delta / 2``):

    - even ``t = 2j``: the old vertex ``W_i[j]``;
    - odd ``t = 2g + 1``: the midpoint of gap ``g`` (between ``W_i[g]``
      and ``W_i[g+1]``), which is entry ``occurrence(g)`` of the sequence
      ``Pi_{pair(g)}`` -- the gap's rank among gaps with the same pair, in
      chronological order (that is how M_{p,q} interprets its sequence).
    """

    def __init__(self, walk: PartialWalk, bank: MidpointBank) -> None:
        self.walk = walk
        self.bank = bank
        self.num_gaps = len(walk.vertices) - 1
        self.top = 2 * self.num_gaps  # largest position number
        self._pair_of_gap: list[Pair] = []
        self._occurrence_of_gap: list[int] = []
        running: Counter[Pair] = Counter()
        for p, q in walk.pairs():
            pair = (p, q)
            self._pair_of_gap.append(pair)
            self._occurrence_of_gap.append(running[pair])
            running[pair] += 1

    # -- structure queries ------------------------------------------------

    def pair_of_gap(self, gap: int) -> Pair:
        return self._pair_of_gap[gap]

    def value_at(self, t: int) -> int:
        """``W^+_i[t]`` -- an O(1)-round point query in the real protocol."""
        if not (0 <= t <= self.top):
            raise WalkError(f"position {t} outside [0, {self.top}]")
        if t % 2 == 0:
            return self.walk.vertices[t // 2]
        gap = (t - 1) // 2
        return self.bank.value_at(self._pair_of_gap[gap], self._occurrence_of_gap[gap])

    def truncated_pair_counts(self, t: int) -> dict[Pair, int]:
        """``c_{p,q}(l')``: midpoints of each pair at positions <= ``t``.

        Gap ``g``'s midpoint sits at position ``2g + 1``, so gaps
        ``0 .. floor((t - 1) / 2)`` are included.
        """
        included_gaps = min(self.num_gaps, (t + 1) // 2)
        counts: Counter[Pair] = Counter()
        for gap in range(included_gaps):
            counts[self._pair_of_gap[gap]] += 1
        return dict(counts)

    def midpoint_positions_upto(self, t: int) -> list[int]:
        """Odd positions <= t (the midpoint positions in the prefix)."""
        return list(range(1, t + 1, 2))


def check_truncation_point(
    view: LevelView,
    t: int,
    rho: int,
    *,
    clique: CongestedClique | None = None,
) -> bool:
    """Algorithm 3: True iff position ``t`` is at or before the truncation point.

    Evaluates ``Dist`` and ``CountLast`` over the prefix ``W^+_i[0..t]``
    exactly as the distributed protocol would (old-walk distinct vertices
    are known to the leader; midpoint counts arrive via the Count
    aggregation, charged on ``clique``).
    """
    truncated = view.truncated_pair_counts(t)
    view.bank.charge_aggregation(clique)
    old_prefix = view.walk.vertices[: t // 2 + 1]
    distinct = set(old_prefix) | view.bank.distinct_in_prefix(truncated)
    if len(distinct) > rho:
        return False
    if len(distinct) < rho:
        return True
    # Exactly rho distinct: accept only if the final vertex appears once
    # (i.e. the prefix ends at the first occurrence of the rho-th vertex).
    last = view.value_at(t)
    occurrences = sum(1 for v in old_prefix if v == last)
    occurrences += view.bank.truncated_counts(truncated)[last]
    return occurrences == 1


def find_truncation_index(
    view: LevelView,
    rho: int,
    *,
    clique: CongestedClique | None = None,
) -> int:
    """Binary search for the truncation position ``t*`` (leader side).

    Returns the largest position ``t`` with ``CheckTruncationPoint(t)``
    true: the first occurrence of the rho-th distinct vertex when the
    filled walk reaches rho distinct vertices, else the final position
    (no truncation).
    """
    if rho < 2:
        raise WalkError(f"rho must be >= 2 for truncation search, got {rho}")
    low, high = 0, view.top
    if check_truncation_point(view, high, rho, clique=clique):
        return high
    # Invariant: predicate(low) is True, predicate(high) is False.
    while high - low > 1:
        mid = (low + high) // 2
        if check_truncation_point(view, mid, rho, clique=clique):
            low = mid
        else:
            high = mid
    return low


def find_truncation_index_fast(
    view: LevelView,
    rho: int,
    *,
    clique: CongestedClique | None = None,
) -> int:
    """Simulator fast path for Algorithm 3 (the plan-bearing walk).

    The simulator holds every midpoint sequence, so the truncation point
    -- the first occurrence of the rho-th distinct vertex in ``W^+_i``,
    or the final position when the quota is never reached -- can be read
    off a single chronological scan instead of evaluating the aggregate
    ``Dist``/``CountLast`` predicate per probe. The *protocol* is
    unchanged: the leader still runs the binary search, so this replays
    exactly the probe sequence the search would issue against the
    monotone predicate ``t <= t*`` and charges each probe's Count
    aggregation -- byte-identical result AND round ledger to
    :func:`find_truncation_index` (property-tested). No randomness is
    involved either way.
    """
    if rho < 2:
        raise WalkError(f"rho must be >= 2 for truncation search, got {rho}")
    top = view.top
    t_star = top
    seen: set[int] = set()
    for t in range(top + 1):
        vertex = view.value_at(t)
        if vertex not in seen:
            seen.add(vertex)
            if len(seen) == rho:
                t_star = t
                break
    # Probe replay: one aggregation for the initial check at `top` ...
    view.bank.charge_aggregation(clique)
    if t_star == top:
        return top
    # ... then one per bisection step, mirroring the search loop (its
    # iteration count depends only on `top`, its probes only on the
    # predicate, which is `mid <= t_star` by monotonicity).
    low, high = 0, top
    while high - low > 1:
        mid = (low + high) // 2
        view.bank.charge_aggregation(clique)
        if mid <= t_star:
            low = mid
        else:
            high = mid
    return low
