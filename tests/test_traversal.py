"""Unit tests for the test tree's graph traversal oracles
(``kernel_oracle``): BFS order, connectivity and ``connected_components``."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given

from repro.graphs import GraphError, LabeledGraph

from .conftest import labeled_graphs, make_cycle_graph, make_path_graph
from .kernel_oracle import bfs_order, connected_components, is_connected


def two_component_graph() -> LabeledGraph:
    graph = make_path_graph("ABC")
    graph.add_vertex(10, "X")
    graph.add_vertex(11, "Y")
    graph.add_edge(10, 11)
    return graph


class TestBFS:
    def test_bfs_order_starts_at_source(self):
        graph = make_path_graph("ABCD")
        order = list(bfs_order(graph, 0))
        assert order == [0, 1, 2, 3]

    def test_bfs_order_unknown_source(self):
        graph = make_path_graph("AB")
        with pytest.raises(GraphError):
            list(bfs_order(graph, 99))

    @given(labeled_graphs(max_vertices=7))
    def test_bfs_visits_whole_component(self, graph):
        source = next(graph.vertices())
        visited = set(bfs_order(graph, source))
        other = nx.Graph()
        other.add_nodes_from(graph.vertices())
        other.add_edges_from(graph.edges())
        assert visited == nx.node_connected_component(other, source)


class TestComponents:
    def test_single_component(self):
        graph = make_cycle_graph("ABC")
        components = connected_components(graph)
        assert len(components) == 1
        assert components[0] == {0, 1, 2}

    def test_two_components_sorted_by_size(self):
        graph = two_component_graph()
        components = connected_components(graph)
        assert [len(c) for c in components] == [3, 2]

    def test_is_connected(self):
        assert is_connected(make_path_graph("ABCD"))
        assert not is_connected(two_component_graph())
        assert is_connected(LabeledGraph())

    @given(labeled_graphs(max_vertices=7, connected=False))
    def test_components_partition_vertices(self, graph):
        components = connected_components(graph)
        union = set()
        total = 0
        for component in components:
            union |= component
            total += len(component)
        assert union == set(graph.vertices())
        assert total == graph.num_vertices
