"""Where each cached query lives: its canonical-hash home shard.

One :class:`Placement` per engine names the shard every delta record of a
window flush addresses (:meth:`IGQ._log_flush
<repro.core.engine.IGQ._log_flush>`).  An entry's home is a pure function
of its graph (:func:`~repro.core.shard.shard_of_key` over the canonical
form), so it never changes while the entry is live.
"""

from __future__ import annotations

from ..features.canonical import canonical_graph_key
from ..graphs.graph import LabeledGraph
from .cache import CacheEntry, QueryCache
from .shard import shard_of_key

__all__ = ["Placement"]


class Placement:
    """Entry -> home shard assignment of one engine's live cache entries."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        #: live entry -> home shard
        self.entry_shard: dict[int, int] = {}
        #: id(graph) -> (graph, shard) routing memo (see :meth:`shard_of`)
        self._shard_memo: dict[int, tuple[LabeledGraph, int]] = {}

    def shard_of(self, graph: LabeledGraph) -> int:
        """Owning shard of a query graph (stable canonical-key hash).

        Memoized by object identity: repeat-heavy streams re-insert the same
        query objects, and the canonical form is the most expensive step of
        a multi-shard flush.  The memo pins each keyed graph, so an ``id``
        cannot be recycled while memoized; the bound caps the pinned memory.
        """
        if self.num_shards < 2:
            return 0
        memo = self._shard_memo
        cached = memo.get(id(graph))
        if cached is not None and cached[0] is graph:
            return cached[1]
        shard_id = shard_of_key(canonical_graph_key(graph), self.num_shards)
        if len(memo) >= 8192:
            memo.clear()
        memo[id(graph)] = (graph, shard_id)
        return shard_id

    def inserted(self, entry: CacheEntry) -> int:
        """Route a newly cached entry; returns its home shard."""
        shard_id = self.shard_of(entry.graph)
        self.entry_shard[entry.entry_id] = shard_id
        return shard_id

    def evicted(self, entry: CacheEntry) -> int:
        """Forget an evicted entry; returns the home shard it left."""
        return self.entry_shard.pop(entry.entry_id)

    def persist_state(self) -> dict:
        """The assignment, as the durable ``state`` record carries it."""
        return {"entry_shard": dict(self.entry_shard)}

    def restore(self, state: dict, cache: QueryCache) -> None:
        """Warm-start from a :meth:`persist_state` capture: only
        ``entry_shard`` is read (a 3.x state's hot-key counters are
        ignored), and a single-shard state without it means shard 0."""
        self.entry_shard = dict(
            state.get("entry_shard") or dict.fromkeys(cache.entry_ids(), 0)
        )

    def shard_balance(self) -> list[int]:
        """Live cache entries per home shard."""
        counts = [0] * self.num_shards
        for shard_id in self.entry_shard.values():
            counts[shard_id] += 1
        return counts
