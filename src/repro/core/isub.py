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
query).  The dominance filter is a sorted merge over the entries' and the
query's feature codes inside the kernel, for every feature class: the
codes of :class:`~repro.features.extractor.GraphFeatures` are one key
domain.  Its Python form — a dominance check per entry — is the
kernel's oracle, ``isub_candidate_ids`` in ``tests/kernel_oracle.py``.
"""

from __future__ import annotations

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
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
        compiled: CompiledQuery | None = None,
    ) -> list[int]:
        """Return the ids, ascending, of the cached entries ``G`` with
        ``query ⊆ G`` (``Isub(g)``).

        Filtering: a cached query can only be a supergraph of ``query`` if it
        contains every feature of ``query`` at least as often (the exact
        dual of the dataset-side filtering).  Each surviving candidate is
        verified with a subgraph isomorphism test, so no false positives are
        possible (formula (1)).  ``compiled`` carries the query's shared
        compiled state (its plan is built here if a candidate survives).
        """
        return self._hits(query, features, compiled)
