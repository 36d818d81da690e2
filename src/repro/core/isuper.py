"""The iGQ supergraph component ``Isuper`` (§4.2.2 and §6.2, Algorithms 1–2).

``Isuper`` answers the question: *which previously executed queries are
subgraphs of the new query g?*  The paper proposes a purpose-built structure
instead of reusing a general supergraph-query method:

* **Algorithm 1** — every cached query ``g_i`` is decomposed into its
  features; each feature ``f`` is inserted into a trie together with the pair
  ``{g_i, o}`` where ``o`` is the number of occurrences of ``f`` in ``g_i``;
  the number of distinct features ``NF[g_i]`` is recorded.
* **Algorithm 2** — for a new query ``g``, every feature ``f`` of ``g`` is
  looked up; a cached query ``g_i`` is tallied once for every feature whose
  occurrence count in ``g_i`` does not exceed the count in ``g``; cached
  queries tallied exactly ``NF[g_i]`` times are candidate subgraphs of ``g``
  and are verified with a subgraph isomorphism test.

The candidate generation cannot miss a true subgraph (no false negatives) and
the final verification removes all false positives, establishing formula (2).

The lifecycle and verification machinery is shared with ``Isub`` through
:class:`~repro.core.containment.ContainmentIndex`: here the cached queries
play the *pattern* role, so each entry carries a ``CompiledQueryPlan``
compiled on insertion and the new query is compiled once per lookup as the
target.
"""

from __future__ import annotations

from collections import Counter

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from .cache import CacheEntry
from .containment import ContainmentIndex

__all__ = ["SupergraphQueryIndex"]


class SupergraphQueryIndex(ContainmentIndex):
    """Index of cached queries supporting "is a cached query a subgraph of g?"."""

    entry_is_target = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: NF[g_i] — number of distinct features of each indexed query
        self._num_features: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 1) — extra NF bookkeeping on top of the shared
    # ContainmentIndex lifecycle
    # ------------------------------------------------------------------
    def _entry_added(self, entry: CacheEntry) -> None:
        self._num_features[entry.entry_id] = entry.features.num_distinct

    def _entry_removed(self, entry_id: int) -> None:
        del self._num_features[entry_id]

    # ------------------------------------------------------------------
    # Query (Algorithm 2)
    # ------------------------------------------------------------------
    def candidate_subgraphs(self, features: GraphFeatures) -> list[int]:
        """Candidate cached-entry ids that may be subgraphs of the new query.

        Pure filtering step of Algorithm 2 (no isomorphism testing), exposed
        separately so that its no-false-negative property can be tested in
        isolation.
        """
        tally: Counter = Counter()
        for key, available in features.counts.items():
            postings = self._trie.postings(key)
            for entry_id, occurrences in postings.items():
                if occurrences <= available:
                    tally[entry_id] += 1
        return [
            entry_id
            for entry_id, count in tally.items()
            if count == self._num_features[entry_id]
        ]

    def candidate_mask(self, features: GraphFeatures) -> int:
        """Bitmask (over dense entry positions) of :meth:`candidate_subgraphs`."""
        mask = 0
        for entry_id in self.candidate_subgraphs(features):
            mask |= self._slots.bit(entry_id)
        return mask

    def find_subgraphs(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        query_side_cache: dict | None = None,
        restrict_ids=None,
    ) -> list[CacheEntry]:
        """Return the cached entries ``G`` with ``G ⊆ query`` (``Isuper(g)``).

        ``query_side_cache`` lets a sharded probe share the query's compiled
        target across several index partitions; ``restrict_ids`` limits the
        lookup to a subset of the indexed entries (the sharded runtime's
        per-probe replica assignment).
        """
        if not self._entries:
            return []
        if restrict_ids is None and self.lite:
            # A lite index has no trie for Algorithm 2's tallying; the
            # per-entry check below is its (equivalent) filtering path.
            restrict_ids = tuple(self._entries)
        if restrict_ids is not None:
            # Small explicit candidate set: Algorithm 2's tally condition
            # (``tally == NF[g_i]``) holds exactly when every feature of the
            # cached query occurs in ``g`` at least as often, which is
            # checkable per entry from its own feature counts — no posting
            # walk, O(|restrict_ids| x entry features).
            available = features.counts
            slots = self._slots
            mask = 0
            for entry_id in restrict_ids:
                entry = self._entries.get(entry_id)
                if entry is None:
                    continue
                for key, occurrences in entry.features.counts.items():
                    if available.get(key, 0) < occurrences:
                        break
                else:
                    mask |= slots.bit(entry_id)
            if not mask:
                return []
            return self._verified_hits(query, mask, query_side_cache)
        mask = self.candidate_mask(features)
        return self._verified_hits(query, mask, query_side_cache)

    # ------------------------------------------------------------------
    def num_features(self, entry_id: int) -> int:
        """``NF[g_i]`` — distinct feature count of an indexed entry."""
        return self._num_features[entry_id]

    def estimated_size_bytes(self) -> int:
        """Approximate in-memory size of the index structure (Figure 18)."""
        return super().estimated_size_bytes() + 40 * len(self._num_features)
