"""Grapes: path index with location information and component-restricted
verification.

Giugno et al. [2013] index the same exhaustive path features as GGSX but also
record *where* each feature occurs inside each dataset graph.  During query
processing the locations of the query's features identify, inside every
candidate graph, the (typically small) connected regions that could possibly
host an embedding; the subgraph isomorphism test is then run against those
regions instead of the full graph.  The original system additionally
parallelises index construction and verification over several threads; the
``num_workers`` parameter mirrors that configuration knob (Grapes(1) vs
Grapes(6) in the paper) only in the method's name (``grapes6``): it runs
nothing in parallel.  Verification threads are the batch executor's
``batch.num_workers``.
"""

from __future__ import annotations

import sys
from collections.abc import Hashable
from itertools import compress

from ..features.extractor import FeatureExtractor, GraphFeatures
from ..graphs.bitset import CandidateBitmap, iter_bits
from ..graphs.graph import LabeledGraph
from ..graphs.traversal import connected_components, is_connected
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
    def region_mask(self, query_features: GraphFeatures, graph_id: Hashable) -> int:
        """Vertices of ``graph_id`` covered by occurrences of query features,
        as a bitmask over the graph's compiled vertex positions.

        Any embedding of the query must lie entirely inside this region: each
        query vertex belongs to some query path feature, and the image of
        that path is an occurrence of the same feature in the dataset graph,
        whose vertices were recorded in the location table.

        The region is exactly the graph's vertices whose label occurs in the
        query: (⊇) every label ``L`` of the query is a single-vertex feature
        of both extractor kinds, whose locations in the graph are all of its
        ``L`` vertices; (⊆) every vertex of an occurrence of a query feature
        carries one of that feature's labels, all of which are query labels.
        The compiled path therefore never reads the location table: the
        kernel ORs the target's label rows instead
        (:meth:`~repro.isomorphism.verifier.Verifier.verify_pairs` with
        ``by_component``); this dict-path union is its independent oracle.
        Precondition: two labels are equal exactly when their ``str()`` is —
        features key on ``str(label)`` while the kernel interns label
        values.  Every shipped dataset meets it.
        """
        located = self._graph_features[graph_id].locations.get
        region = 0
        for code in query_features.counts:
            region |= located(code, 0)
        return region

    def candidate_regions(self, query_features: GraphFeatures, graph_id: Hashable) -> set:
        """:meth:`region_mask` decoded to the vertex set (dict-based path)."""
        vertices = list(self.database.get(graph_id).vertices())
        return {vertices[position] for position in iter_bits(self.region_mask(query_features, graph_id))}

    def verify(
        self,
        query: LabeledGraph,
        candidate_ids,
        features: GraphFeatures | None = None,
        compiled: CompiledQuery | None = None,
    ) -> set:
        """Component-restricted verification.

        For each candidate, the query is tested against the connected
        components of the subgraph induced by the query-feature locations.
        Falls back to whole-graph testing for disconnected queries (the
        region argument only bounds connected embeddings).

        On the compiled path the query plan is compiled once and all
        candidates go through one :meth:`Verifier.verify_pairs` call: each
        candidate's database-cached whole-graph :class:`CompiledTarget`,
        whose region — its vertices carrying a query label, equal to
        :meth:`region_mask` — the kernel builds from its label rows,
        decomposes and tests component by component; no region is
        marshalled and no region subgraph is ever materialised.
        Component order, the size/edge pre-checks and the
        one-test-per-component accounting replicate the dict-based path
        below exactly (``Verifier(compiled=False)`` selects it; it is the
        oracle the compiled path is tested against).
        """
        self._require_index()
        query_connected = is_connected(query)
        plan = self.verifier.compile_pattern(query, compiled)
        if plan is not None:
            return self._verify_compiled(list(candidate_ids), query_connected, plan)
        if features is None:
            features = self.extract_query_features(query)
        answers = set()
        for graph_id in candidate_ids:
            graph = self.database.get(graph_id)
            if not query_connected:
                if self.verifier.is_subgraph(query, graph):
                    answers.add(graph_id)
                continue
            region = self.candidate_regions(features, graph_id)
            if len(region) < query.num_vertices:
                continue
            region_graph = graph.subgraph(region)
            matched = False
            for component in connected_components(region_graph):
                if len(component) < query.num_vertices:
                    continue
                component_graph = region_graph.subgraph(component)
                if component_graph.num_edges < query.num_edges:
                    continue
                if self.verifier.is_subgraph(query, component_graph):
                    matched = True
                    break
            if matched:
                answers.add(graph_id)
        return answers

    def _verify_compiled(self, candidates: list, query_connected: bool, plan) -> set:
        """Region-decomposed verification of all candidates in one kernel call
        (a disconnected query: one whole-graph test per candidate)."""
        matched = self.verifier.verify_pairs(
            plan,
            list(map(self.database.compiled_target, candidates)),
            by_component=query_connected,
        )
        return set(compress(candidates, matched))
