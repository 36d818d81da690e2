"""Index-free baseline: every dataset graph is a candidate.

The paper's Figures 2 and 3 contrast the candidate sets of the indexed
methods with the answer-set size; the natural lower bound of filtering power
is "no filtering at all", which this method provides.  It is also the oracle
used by the test suite: the answers of any correct method (with or without
iGQ) must coincide with the answers of :class:`ScanMethod`.
"""

from __future__ import annotations

from ..features.extractor import FeatureExtractor, GraphFeatures
from ..graphs.bitset import CandidateBitmap
from ..graphs.graph import LabeledGraph
from ..isomorphism.verifier import Verifier
from .base import SubgraphQueryMethod

__all__ = ["ScanMethod"]


class ScanMethod(SubgraphQueryMethod):
    """A method whose filtering stage keeps every dataset graph."""

    name = "scan"
    needs_graph_features = False

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        verifier: Verifier | None = None,
    ) -> None:
        # The extractor is only used when iGQ is stacked on top (its Isuper
        # component needs query features); a cheap path extractor suffices.
        super().__init__(
            extractor if extractor is not None else FeatureExtractor(max_path_length=2),
            verifier,
        )

    def index_size_bytes(self) -> int:
        return 0

    def filter_candidates(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> CandidateBitmap:
        self._require_index()
        # Only the trivially-safe size pre-filter is applied.
        space = self.id_space
        mask = 0
        for graph_id, graph in self.database.items():
            if (
                graph.num_vertices >= query.num_vertices
                and graph.num_edges >= query.num_edges
            ):
                mask |= space.bit(graph_id)
        return CandidateBitmap(space, mask)
