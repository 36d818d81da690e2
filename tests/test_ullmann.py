"""Tests for the Ullmann oracle matcher of ``tests/kernel_oracle.py``
(agreement with VF2)."""

from __future__ import annotations

from hypothesis import given, settings

from repro.graphs import LabeledGraph
from repro.isomorphism import is_subgraph_isomorphic

from .conftest import (
    graph_and_subgraph,
    labeled_graphs,
    make_clique,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
)
from .kernel_oracle import UllmannMatcher, ullmann_is_subgraph_isomorphic


class TestKnownCases:
    def test_path_in_cycle(self):
        assert ullmann_is_subgraph_isomorphic(make_path_graph("ABC"), make_cycle_graph("ABC"))

    def test_cycle_not_in_path(self):
        assert not ullmann_is_subgraph_isomorphic(
            make_cycle_graph("ABC"), make_path_graph("ABC")
        )

    def test_triangle_in_k4(self):
        assert ullmann_is_subgraph_isomorphic(make_cycle_graph("AAA"), make_clique("AAAA"))

    def test_star_degree_pruning(self):
        assert not ullmann_is_subgraph_isomorphic(
            make_star_graph("A", "BBB"), make_path_graph("BAB")
        )

    def test_empty_pattern(self):
        assert ullmann_is_subgraph_isomorphic(LabeledGraph(), make_path_graph("AB"))

    def test_pattern_larger_than_target(self):
        assert not ullmann_is_subgraph_isomorphic(
            make_path_graph("ABCD"), make_path_graph("AB")
        )

    def test_embedding_is_valid(self):
        pattern = make_path_graph("ABC")
        target = make_cycle_graph("ABCD")
        embedding = UllmannMatcher(pattern, target).find_one()
        assert embedding is not None
        for u, v in pattern.edges():
            assert target.has_edge(embedding[u], embedding[v])

    def test_missing_label_prunes_immediately(self):
        assert not ullmann_is_subgraph_isomorphic(
            make_path_graph("AZ"), make_cycle_graph("ABC")
        )


class TestAgreementWithVF2:
    @settings(max_examples=40, deadline=None)
    @given(labeled_graphs(max_vertices=5), labeled_graphs(max_vertices=6))
    def test_random_pairs_agree(self, pattern, target):
        assert ullmann_is_subgraph_isomorphic(pattern, target) == is_subgraph_isomorphic(
            pattern, target
        )

    @settings(max_examples=40, deadline=None)
    @given(graph_and_subgraph(max_vertices=7))
    def test_true_subgraphs_always_found(self, pair):
        graph, subgraph = pair
        assert ullmann_is_subgraph_isomorphic(subgraph, graph)
