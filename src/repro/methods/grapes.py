"""Grapes: path index with location information and component-restricted
verification.

Giugno et al. [2013] index the same exhaustive path features as GGSX but also
record *where* each feature occurs inside each dataset graph.  During query
processing the locations of the query's features identify, inside every
candidate graph, the (typically small) connected regions that could possibly
host an embedding; the subgraph isomorphism test is then run against those
regions instead of the full graph.  Here that region is computed in the C
kernel from the candidate's label rows, which provably equal the location
union (see :meth:`GrapesMethod.verify`); the location table is still
built, because Figure 18 compares the index sizes with it.  The original
system additionally parallelises index construction and verification over
several threads; the ``num_workers`` parameter mirrors that configuration
knob (Grapes(1) vs Grapes(6) in the paper) only in the method's name
(``grapes6``): it runs nothing in parallel.  Verification threads are the batch executor's
``batch.num_workers``.
"""

from __future__ import annotations

import sys
from itertools import compress

from ..features.extractor import FeatureExtractor, GraphFeatures
from ..graphs.bitset import CandidateBitmap
from ..graphs.graph import LabeledGraph
from ..graphs.traversal import is_connected
from ..isomorphism.compiled import CompiledQuery
from ..isomorphism.verifier import Verifier
from .base import SubgraphQueryMethod

__all__ = ["GrapesMethod"]


class GrapesMethod(SubgraphQueryMethod):
    """Grapes: path index + location info + component-restricted verification."""

    name = "grapes"
    needs_feature_locations = True

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

    # ------------------------------------------------------------------
    def index_size_bytes(self) -> int:
        location_bytes = sum(
            sys.getsizeof(mask)
            for features in self._graph_features.values()
            for mask in features.locations.values()
        )
        return self.feature_index.size_bytes() + location_bytes

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
    ) -> set:
        """Component-restricted verification.

        For each candidate, a connected query is tested against the
        connected components of the subgraph induced by the query-feature
        locations (a disconnected one against the whole graph: the region
        only bounds connected embeddings).  That region is exactly the
        candidate's vertices whose label occurs in the query: (⊇) every
        query label is a single-vertex feature, located at all of the
        graph's vertices of that label; (⊆) every vertex of an occurrence
        carries one of the feature's labels.  So all candidates go through
        one :meth:`Verifier.verify_pairs` call with ``by_component``: the
        kernel builds each region from the cached target's label rows and
        tests it component by component (size and edge pre-checks, one
        counted test per tested component, stop at the first match).
        Precondition: two labels are equal exactly when their ``str()`` is
        (features key on ``str(label)``, the kernel interns label values);
        every shipped dataset meets it.
        """
        self._require_index()
        candidates = list(candidate_ids)
        matched = self.verifier.verify_pairs(
            self.verifier.compile_pattern(query, compiled),
            list(map(self.database.compiled_target, candidates)),
            by_component=is_connected(query),
        )
        return set(compress(candidates, matched))
