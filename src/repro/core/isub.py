"""The iGQ subgraph component ``Isub`` (§4.2.1 and §6.1 of the paper).

``Isub`` answers the question: *which previously executed queries are
supergraphs of the new query g?*  As §6.1 observes, this is "a microcosm of
the original problem" — a subgraph query posed against the collection of
cached query graphs instead of the dataset graphs — so any subgraph index
works.  Following the paper we reuse the path-trie filtering of the base
methods: cached query features are kept in a
:class:`~repro.features.trie.FeatureTrie`, a new query is filtered by
occurrence-count dominance and the surviving cached graphs are verified with
a (cheap — query graphs are small) subgraph isomorphism test, which makes
formula (1) hold: every reported entry is a true supergraph of ``g``.

The lifecycle and verification machinery is shared with ``Isuper`` through
:class:`~repro.core.containment.ContainmentIndex`: cached graphs are
compiled into bitset targets on insertion and every containment test runs
on the compiled kernel (the new query's plan is compiled once per lookup).
"""

from __future__ import annotations

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from .cache import CacheEntry
from .containment import ContainmentIndex

__all__ = ["SubgraphQueryIndex"]


class SubgraphQueryIndex(ContainmentIndex):
    """Index of cached queries supporting "is g a subgraph of a cached query?".

    The cached queries play the *target* role: each entry carries a
    ``CompiledTarget`` built when it entered the index and reused against
    every incoming query until eviction.
    """

    entry_is_target = True

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def find_supergraphs(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        query_side_cache: dict | None = None,
        restrict_ids=None,
    ) -> list[CacheEntry]:
        """Return the cached entries ``G`` with ``query ⊆ G`` (``Isub(g)``).

        Filtering: a cached query can only be a supergraph of ``query`` if it
        contains every feature of ``query`` at least as often (the exact
        dual of the dataset-side filtering).  Each surviving candidate is
        verified with a subgraph isomorphism test, so no false positives are
        possible (formula (1)).  ``query_side_cache`` lets a sharded probe
        share the query's compiled plan across several index partitions;
        ``restrict_ids`` limits the lookup to a subset of the indexed
        entries (the sharded runtime's per-probe replica assignment).
        """
        if not self._entries:
            return []
        if restrict_ids is None and self.lite:
            # A lite index has no trie to filter with; the per-entry
            # dominance check below is its (equivalent) filtering path.
            restrict_ids = tuple(self._entries)
        if restrict_ids is not None:
            # Small explicit candidate set: test the dominance condition
            # per entry against its own feature counts (the same counts the
            # trie postings hold) instead of walking every posting list —
            # O(|restrict_ids| x query features), so a covering probe for a
            # handful of replicas costs almost nothing.
            slots = self._slots
            candidate_mask = 0
            for entry_id in restrict_ids:
                entry = self._entries.get(entry_id)
                if entry is None:
                    continue
                counts = entry.features.counts
                for key, required in features.counts.items():
                    if counts.get(key, 0) < required:
                        break
                else:
                    candidate_mask |= slots.bit(entry_id)
            if not candidate_mask:
                return []
            return self._verified_hits(query, candidate_mask, query_side_cache)
        # Candidate bookkeeping as an integer bitmask over dense entry
        # positions (recycled on removal, so position order is arbitrary).
        slots = self._slots
        candidate_mask: int | None = None
        for key, required in features.counts.items():
            postings = self._trie.postings(key)
            matching = 0
            for entry_id, count in postings.items():
                if count >= required:
                    matching |= slots.bit(entry_id)
            candidate_mask = (
                matching if candidate_mask is None else candidate_mask & matching
            )
            if not candidate_mask:
                return []
        if candidate_mask is None:
            candidate_mask = self._full_mask()
        return self._verified_hits(query, candidate_mask, query_side_cache)
