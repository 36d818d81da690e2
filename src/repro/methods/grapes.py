"""Grapes: path index with location information and component-restricted
verification.

Giugno et al. [2013] index the same exhaustive path features as GGSX but also
record *where* each feature occurs inside each dataset graph.  During query
processing the locations of the query's features identify, inside every
candidate graph, the (typically small) connected regions that could possibly
host an embedding; the subgraph isomorphism test is then run against those
regions instead of the full graph.  Here that region is computed in the C
kernel from the candidate's label rows, which provably equal the location
union (see :meth:`GrapesMethod.verify`), so no location table is kept:
Figure 18's byte count sizes the one Grapes would store from the kernel's
coverage count (:meth:`GrapesMethod.index_size_bytes`), and a build does
nothing a GGSX build does not.  The original
system additionally parallelises index construction and verification over
several threads; the ``num_workers`` parameter mirrors that configuration
knob (Grapes(1) vs Grapes(6) in the paper) only in the method's name
(``grapes6``): it runs nothing in parallel.  Verification threads are the
engine's ``batch.num_workers``.
"""

from __future__ import annotations

from functools import partial

from ..features.extractor import FeatureExtractor, GraphFeatures
from ..features.paths import path_coverage
from ..graphs.bitset import CandidateBitmap
from ..graphs.database import GraphDatabase
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
from ..isomorphism.verifier import Verifier
from .base import SubgraphQueryMethod

__all__ = ["GrapesMethod"]


class GrapesMethod(SubgraphQueryMethod):
    """Grapes: path index + component-restricted verification; its location
    lists are sized for Figure 18, not kept."""

    name = "grapes"

    #: Grapes' location lists as its paper stores them, per dataset graph:
    #: one list header per distinct feature and one vertex id per
    #: (feature, vertex) a feature's occurrences cover
    LIST_HEADER_BYTES = 8
    VERTEX_ID_BYTES = 4

    def __init__(
        self,
        max_path_length: int = 4,
        num_workers: int = 1,
        verifier: Verifier | None = None,
        extractor: FeatureExtractor | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if extractor is None:
            extractor = FeatureExtractor(
                kind=FeatureExtractor.PATHS, max_path_length=max_path_length
            )
        super().__init__(extractor, verifier)
        self.max_path_length = extractor.max_path_length
        self.num_workers = num_workers
        if num_workers > 1:
            self.name = f"grapes{num_workers}"
        #: bytes of the location lists, sized on the first
        #: :meth:`index_size_bytes` after a build (``None`` until then)
        self._location_bytes: int | None = None

    def build_index(self, database: GraphDatabase) -> None:
        """Index every graph of ``database``; the location lists are sized
        again on the next :meth:`index_size_bytes`."""
        self._location_bytes = None
        super().build_index(database)

    # ------------------------------------------------------------------
    def index_size_bytes(self) -> int:
        """The threshold index plus the location lists Grapes would store:
        per graph ``LIST_HEADER_BYTES * features + VERTEX_ID_BYTES *
        covered``, where ``features`` is the number of its distinct
        features and ``covered`` the vertices each of its feature keys'
        occurrences cover, summed over the keys — :func:`path_coverage`
        for path features, :meth:`FeatureExtractor.tree_cycle_coverage
        <repro.features.extractor.FeatureExtractor.tree_cycle_coverage>`
        for a ``trees_cycles`` extractor's.  The lists' bytes are computed
        on the first call after a build, not at build time (a build that is
        never sized pays nothing), and kept."""
        if self._location_bytes is None:
            if self.extractor.kind == FeatureExtractor.PATHS:
                covered = partial(path_coverage, max_length=self.max_path_length)
            else:
                covered = self.extractor.tree_cycle_coverage
            self._location_bytes = sum(
                self.LIST_HEADER_BYTES * len(self._graph_features[graph_id].counts)
                + self.VERTEX_ID_BYTES * covered(graph)
                for graph_id, graph in self.database.items()
            )
        return self.feature_index.size_bytes() + self._location_bytes

    # ------------------------------------------------------------------
    def filter_candidates(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> CandidateBitmap:
        """Same occurrence-count dominance filter as GGSX."""
        self._require_index()
        if features is None:
            features = self.extract_query_features(query)
        return self._dominating_graphs(features)

    # ------------------------------------------------------------------
    def verify(
        self,
        query: LabeledGraph,
        candidate_ids,
        features: GraphFeatures | None = None,
        compiled: CompiledQuery | None = None,
    ) -> CandidateBitmap:
        """Component-restricted verification.

        For each candidate, a connected query is tested against the
        connected components of the subgraph induced by the query-feature
        locations (a disconnected one against the whole graph: the region
        only bounds connected embeddings).  That region is exactly the
        candidate's vertices whose label occurs in the query: (⊇) every
        query label is a single-vertex feature, located at all of the
        graph's vertices of that label; (⊆) every vertex of an occurrence
        carries one of the feature's labels.  So all candidates go through
        one :meth:`Verifier.verify_mask` call with ``by_component``: the
        kernel builds each region from the cached target's label rows and
        tests it component by component (size and edge pre-checks, one
        counted test per tested component, stop at the first match), or
        — the plan records whether the query is connected — the whole
        graph once.  Candidates and answers are bitmaps, as for
        :meth:`SubgraphQueryMethod.verify`.
        Precondition: two labels are equal exactly when their ``str()`` is
        (features key on ``str(label)``, the kernel interns label values);
        every shipped dataset meets it.
        """
        self._require_index()
        plan = self.verifier.compile_pattern(query, compiled)
        return self._verify_mask(plan, candidate_ids, supergraph=False, by_component=True)
