"""The iGQ subgraph component ``Isub`` (§4.2.1 and §6.1 of the paper).

``Isub`` answers the question: *which previously executed queries are
supergraphs of the new query g?*  As §6.1 observes, this is "a microcosm of
the original problem" — a subgraph query posed against the collection of
cached query graphs instead of the dataset graphs — so any subgraph index
works.  Following the paper we reuse the path filtering of the base
methods: a cached query can only contain ``g`` if it holds every feature of
``g`` at least as often, and the surviving cached graphs are verified with
a (cheap — query graphs are small) subgraph isomorphism test, which makes
formula (1) hold: every reported entry is a true supergraph of ``g``.

The lifecycle, the probe and the verification machinery are shared with
``Isuper`` through :class:`~repro.core.containment.ContainmentIndex`:
cached graphs are kept as bitset targets and every containment test runs on
the compiled kernel (against the new query's plan, compiled once per
query).  With the native kernel the dominance filter is a sorted merge over
the entries' feature codes inside the kernel; what lives here is its Python
form — a :class:`~repro.features.bitmaps.ThresholdBitmapIndex` over the
entries' slots, one AND per query feature — which the index maintains only
while it is off the native table.  It reads the tuple-keyed view of the
features (:meth:`~repro.features.extractor.GraphFeatures.key_counts`), so
coded and uncoded entries and queries compare exactly.
"""

from __future__ import annotations

from ..features.bitmaps import ThresholdBitmapIndex
from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
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

    def __init__(self, *args, **kwargs) -> None:
        #: the Python filter's structure; stays empty on the native table
        self._index = ThresholdBitmapIndex()
        super().__init__(*args, **kwargs)

    def _entry_added(self, entry: CacheEntry, bit: int) -> None:
        self._index.add(bit, entry.features.key_counts())

    def _entry_removed(self, entry: CacheEntry, bit: int) -> None:
        self._index.remove(bit, entry.features.key_counts())

    def candidate_mask(self, features: GraphFeatures) -> int:
        """The dominance filter by threshold bitmaps: the live slots whose
        entries hold every feature of ``features`` at least as often.  (Off
        the native table only: on it the bitmaps are not maintained.)"""
        return self._index.at_least(features.key_counts(), self._live_mask)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def find_supergraphs(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
    ) -> list[CacheEntry]:
        """Return the cached entries ``G`` with ``query ⊆ G`` (``Isub(g)``).

        Filtering: a cached query can only be a supergraph of ``query`` if it
        contains every feature of ``query`` at least as often (the exact
        dual of the dataset-side filtering).  Each surviving candidate is
        verified with a subgraph isomorphism test, so no false positives are
        possible (formula (1)).  ``compiled`` carries the query's shared
        compiled state (its plan is built here if a candidate survives).
        """
        return self._hits(query, features, compiled)

    def estimated_size_bytes(self) -> int:
        """Entry store, native rows and — off the native table — the
        threshold-bitmap index (Figure 18)."""
        total = super().estimated_size_bytes()
        if self._table is None:
            total += self._index.size_bytes()
        return total
