"""Graph replacement policies for the iGQ cache (§5.1 of the paper).

The paper's utility of a cached query graph ``g`` is

    U(g) = H(g)/M(g) × R(g)/H(g) × C(g)/R(g) = C(g)/M(g)

i.e. the probability of the entry being useful for an incoming query, times
the average number of isomorphism tests it saves per hit, times the average
cost of one saved test — which telescopes to the alleviated cost per query
processed since the entry was cached.  The entry with the smallest utility is
evicted first.

Two simpler policies are provided for the replacement ablation (the
``ablation/replacement`` figure): least-recently-hit (an LRU stand-in for
"popularity only, no cost model") and hit-rate-only (``H/M``), which is the
paper's first principle without the cost-aware refinement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from .cache import CacheEntry, QueryCache

__all__ = [
    "ReplacementPolicy",
    "UtilityReplacementPolicy",
    "HitRateReplacementPolicy",
    "LeastRecentlyAddedPolicy",
    "create_policy",
]

#: the score of an entry no query has come by yet (never evicted first)
_NEVER = float("inf")


class ReplacementPolicy(ABC):
    """Strategy deciding which cache entries to evict."""

    name: str = "abstract"

    @abstractmethod
    def scores(
        self,
        counter: int,
        added_at: Sequence[int],
        hits: Sequence[int],
        removed: Sequence[int],
        costs: Sequence[float],
    ) -> list[float]:
        """Score entries from their statistics, given as columns (the
        insertion counter, H(g), R(g) and C(g) of each) and the cache's
        query ``counter``; *lower* scores are evicted first."""

    def score(self, entry: CacheEntry, cache: QueryCache) -> float:
        """Score one entry; *lower* scores are evicted first."""
        return self.scores(
            cache.query_counter,
            [entry.added_at],
            [entry.hits],
            [entry.removed],
            [entry.alleviated_cost],
        )[0]

    def select_victims(self, cache: QueryCache, count: int) -> list[int]:
        """Return the ids of the ``count`` entries to evict (lowest scores).

        The statistics are read as the cache's columns, in one kernel call.
        Ties are broken by insertion order (older entries evicted first) so
        the policy is fully deterministic.
        """
        if count <= 0:
            return []
        ids, added, hits, removed, costs = cache.columns.read()
        scores = self.scores(cache.query_counter, added, hits, removed, costs)
        ranked = sorted(zip(scores, added, ids))
        return [entry_id for _, _, entry_id in ranked[:count]]


class UtilityReplacementPolicy(ReplacementPolicy):
    """The paper's utility ``U(g) = C(g) / M(g)`` (cost alleviated per query)."""

    name = "utility"

    def scores(self, counter, added_at, hits, removed, costs) -> list[float]:
        # M(g) = counter - added_at.  Entries from the current window (M = 0)
        # have not had a chance to be useful yet; treat them as maximally
        # valuable so they are not evicted the moment they are cached.
        return [
            cost / (counter - added) if counter > added else _NEVER
            for added, cost in zip(added_at, costs)
        ]


class HitRateReplacementPolicy(ReplacementPolicy):
    """Popularity-only policy: ``P(g) = H(g) / M(g)`` (no cost model)."""

    name = "hit_rate"

    def scores(self, counter, added_at, hits, removed, costs) -> list[float]:
        return [
            count / (counter - added) if counter > added else _NEVER
            for added, count in zip(added_at, hits)
        ]


class LeastRecentlyAddedPolicy(ReplacementPolicy):
    """FIFO-style baseline: evict the oldest entries regardless of benefit."""

    name = "fifo"

    def scores(self, counter, added_at, hits, removed, costs) -> list[float]:
        return [float(added) for added in added_at]


_POLICIES = {
    UtilityReplacementPolicy.name: UtilityReplacementPolicy,
    HitRateReplacementPolicy.name: HitRateReplacementPolicy,
    LeastRecentlyAddedPolicy.name: LeastRecentlyAddedPolicy,
}


def create_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``utility``, ``hit_rate``, ``fifo``)."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
