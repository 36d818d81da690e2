"""GraphGrepSX (GGSX): exhaustive path enumeration indexed in a trie.

Bonnici et al. [2010] index, for every dataset graph, all simple paths of up
to a maximum length (4 in the paper's experiments) in a suffix-trie carrying
per-graph occurrence counts.  A subgraph query is filtered by requiring that
every query path occurs in a candidate at least as many times as in the
query; verification uses VF2.

This implementation stores canonical undirected path features in a
:class:`~repro.features.bitmaps.ThresholdBitmapIndex` (one graph mask per
occurrence threshold of each path); the occurrence-count dominance check is
exactly the published filtering condition.
"""

from __future__ import annotations

from ..features.extractor import FeatureExtractor, GraphFeatures
from ..graphs.bitset import CandidateBitmap
from ..graphs.graph import LabeledGraph
from ..isomorphism.verifier import Verifier
from .base import SubgraphQueryMethod

__all__ = ["GGSXMethod"]


class GGSXMethod(SubgraphQueryMethod):
    """GraphGrepSX: path index with occurrence-count filtering."""

    name = "ggsx"

    def __init__(
        self,
        max_path_length: int = 4,
        verifier: Verifier | None = None,
        extractor: FeatureExtractor | None = None,
    ) -> None:
        if extractor is None:
            extractor = FeatureExtractor(
                kind=FeatureExtractor.PATHS, max_path_length=max_path_length
            )
        super().__init__(extractor, verifier)
        self.max_path_length = extractor.max_path_length

    def index_size_bytes(self) -> int:
        return self.feature_index.size_bytes()

    # ------------------------------------------------------------------
    def filter_candidates(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> CandidateBitmap:
        """Graphs whose path-occurrence counts dominate the query's."""
        self._require_index()
        if features is None:
            features = self.extract_query_features(query)
        return self._dominating_graphs(features)
