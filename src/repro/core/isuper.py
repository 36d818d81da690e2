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

The tally reaches ``NF[g_i]`` exactly when every feature of ``g_i`` occurs in
``g`` at least as often, and that is how the condition is evaluated: per
cached query, from the feature counts stored with the entry (Algorithm 1's
``{g_i, o}`` pairs, kept by entry instead of by feature), stopping at the
first feature ``g`` lacks — most cached queries fail on their first or
second feature.  In the C kernel the walk is a sorted merge over the
entry's and the query's feature codes, inside the kernel, over the rows
:class:`~repro.core.containment.ContainmentIndex` keeps in its native table
(42 µs a query as the Python loop below against 5 µs as the kernel call, on
the 100-entry cache of the benchmark's ``cold_filter`` — see
``docs/performance.md``, "The cache-side probe").
:meth:`SupergraphQueryIndex.candidate_mask` is the Python form: the route
for features that do not pack into codes and the oracle it is tested
against.  It
reads the entries' own feature tables — their tuple-keyed view, so coded
and uncoded tables compare exactly — and has nothing to maintain on
insertion and eviction.

The lifecycle, the probe and the verification machinery are shared with
``Isub`` through :class:`~repro.core.containment.ContainmentIndex`: here
the cached queries play the *pattern* role, so each entry carries a
``CompiledQueryPlan`` and the new query is compiled once as the target.
"""

from __future__ import annotations

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
from .cache import CacheEntry
from .containment import ContainmentIndex

__all__ = ["SupergraphQueryIndex"]


class SupergraphQueryIndex(ContainmentIndex):
    """Index of cached queries supporting "is a cached query a subgraph of g?"."""

    entry_is_target = False

    # ------------------------------------------------------------------
    # Query (Algorithm 2)
    # ------------------------------------------------------------------
    def candidate_mask(self, features: GraphFeatures) -> int:
        """Algorithm 2's candidates by the Python loop: the live slots
        whose entries hold no feature more often than ``features`` does."""
        available = features.key_counts()
        have = available.get
        num_available = len(available)
        bit = self._slots.bit
        mask = 0
        for entry in self._entries.values():
            counts = entry.features.key_counts()
            if len(counts) > num_available:
                continue  # NF[g_i] exceeds g's distinct features: some key is missing
            for key, occurrences in counts.items():
                if have(key, 0) < occurrences:
                    break
            else:
                mask |= bit(entry.entry_id)
        return mask

    def candidate_subgraphs(self, features: GraphFeatures) -> list[int]:
        """Candidate cached-entry ids that may be subgraphs of the new query:
        :meth:`~ContainmentIndex.candidate_ids`, the pure filtering step of
        Algorithm 2."""
        return self.candidate_ids(features)

    def find_subgraphs(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
    ) -> list[CacheEntry]:
        """Return the cached entries ``G`` with ``G ⊆ query`` (``Isuper(g)``).

        ``compiled`` carries the query's shared compiled state (its target
        is built here if a candidate survives).
        """
        return self._hits(query, features, compiled)

    # ------------------------------------------------------------------
    def num_features(self, entry_id: int) -> int:
        """``NF[g_i]`` — distinct feature count of an indexed entry."""
        return self._entries[entry_id].features.num_distinct
