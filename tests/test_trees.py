"""Tests for connected-subset / spanning-tree / tree-subgraph enumeration."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings

from repro.features import (
    enumerate_connected_subsets,
    enumerate_spanning_trees,
    enumerate_tree_subgraphs,
    tree_feature_codes,
    tree_feature_counts,
)
from repro.graphs import LabeledGraph

from .conftest import labeled_graphs, make_clique, make_cycle_graph, make_path_graph, make_star_graph


def brute_force_connected_subsets(graph, max_size, min_size=1):
    """Reference implementation: test connectivity of every vertex subset."""
    vertices = list(graph.vertices())
    found = set()
    for size in range(min_size, max_size + 1):
        for subset in combinations(vertices, size):
            sub = graph.subgraph(subset)
            # connectivity check via BFS on the induced subgraph
            start = subset[0]
            seen = {start}
            stack = [start]
            while stack:
                vertex = stack.pop()
                for neighbor in sub.neighbors(vertex):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            if len(seen) == size:
                found.add(frozenset(subset))
    return found


class TestConnectedSubsets:
    def test_path_graph_subsets(self):
        graph = make_path_graph("ABCD")
        subsets = set(enumerate_connected_subsets(graph, 2))
        assert subsets == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
        }

    def test_no_duplicates(self):
        graph = make_clique("AAAA")
        subsets = list(enumerate_connected_subsets(graph, 3))
        assert len(subsets) == len(set(subsets))

    def test_invalid_sizes(self):
        graph = make_path_graph("AB")
        with pytest.raises(ValueError):
            list(enumerate_connected_subsets(graph, 0))
        with pytest.raises(ValueError):
            list(enumerate_connected_subsets(graph, 2, min_size=0))

    @settings(max_examples=25, deadline=None)
    @given(labeled_graphs(max_vertices=6))
    def test_matches_brute_force(self, graph):
        enumerated = set(enumerate_connected_subsets(graph, 4))
        assert enumerated == brute_force_connected_subsets(graph, 4)

    @settings(max_examples=25, deadline=None)
    @given(labeled_graphs(max_vertices=7))
    def test_unique_enumeration(self, graph):
        subsets = list(enumerate_connected_subsets(graph, 3))
        assert len(subsets) == len(set(subsets))


class TestSpanningTrees:
    def test_cycle_has_n_spanning_trees(self):
        graph = make_cycle_graph("ABCD")
        trees = list(enumerate_spanning_trees(graph, frozenset(graph.vertices())))
        assert len(trees) == 4  # a cycle of length n has n spanning trees

    def test_tree_has_one_spanning_tree(self):
        graph = make_star_graph("A", "BBB")
        trees = list(enumerate_spanning_trees(graph, frozenset(graph.vertices())))
        assert len(trees) == 1

    def test_single_vertex(self):
        graph = make_path_graph("A")
        assert list(enumerate_spanning_trees(graph, frozenset({0}))) == [()]

    def test_disconnected_subset_has_none(self):
        graph = make_path_graph("ABC")
        assert list(enumerate_spanning_trees(graph, frozenset({0, 2}))) == []

    def test_k4_has_sixteen_spanning_trees(self):
        # Cayley's formula: n^(n-2) = 16 for n=4.
        graph = make_clique("AAAA")
        trees = list(enumerate_spanning_trees(graph, frozenset(graph.vertices())))
        assert len(trees) == 16


class TestTreeSubgraphs:
    def test_every_enumerated_subgraph_is_a_tree(self):
        graph = make_clique("ABCA")
        for tree in enumerate_tree_subgraphs(graph, 4):
            assert tree.num_edges == tree.num_vertices - 1

    def test_counts_on_triangle(self):
        # Triangle tree subgraphs: 3 singletons, 3 edges, 3 two-edge paths.
        counts = tree_feature_counts(make_cycle_graph("AAA"), max_size=3)
        assert sum(counts.values()) == 9

    def test_codes_are_subset_of_counts(self):
        graph = make_cycle_graph("ABCD")
        codes = tree_feature_codes(graph, max_size=3)
        counts = tree_feature_counts(graph, max_size=3)
        assert codes == set(counts)

    @settings(max_examples=20, deadline=None)
    @given(labeled_graphs(max_vertices=6))
    def test_subgraph_feature_containment(self, graph):
        """Non-induced soundness: removing one edge can only shrink features."""
        edges = list(graph.edges())
        if not edges:
            return
        smaller = LabeledGraph.from_edges(
            {vertex: graph.label(vertex) for vertex in graph.vertices()}, edges[1:]
        )
        assert tree_feature_codes(smaller, 3) <= tree_feature_codes(graph, 3)

    def test_min_size_two_excludes_singletons(self):
        graph = make_path_graph("AB")
        trees = list(enumerate_tree_subgraphs(graph, 2, min_size=2))
        assert len(trees) == 1
        assert trees[0].num_vertices == 2


class TestLabeledGraphInterop:
    def test_tree_subgraphs_preserve_labels(self):
        graph = LabeledGraph()
        for vertex, label in enumerate("XYZ"):
            graph.add_vertex(vertex, label)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        labels = set()
        for tree in enumerate_tree_subgraphs(graph, 2, min_size=2):
            labels.update(tree.label(v) for v in tree.vertices())
        assert labels == {"X", "Y", "Z"}
