"""Unit tests for the core LabeledGraph type."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.graphs import GraphError, LabeledGraph

from .conftest import labeled_graphs, make_cycle_graph, make_path_graph, make_star_graph


class TestConstruction:
    def test_empty_graph(self):
        graph = LabeledGraph(name="empty")
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert len(graph) == 0
        assert graph.average_degree() == 0.0
        assert graph.density() == 0.0

    def test_add_vertex_and_edge(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        graph.add_vertex(1, "B")
        graph.add_edge(0, 1)
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert graph.label(0) == "A"
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert sorted(graph.neighbors(0)) == [1]
        assert graph.degree(0) == 1

    def test_readding_vertex_same_label_is_noop(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        graph.add_vertex(0, "A")
        assert graph.num_vertices == 1

    def test_readding_vertex_other_label_fails(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        with pytest.raises(GraphError):
            graph.add_vertex(0, "B")

    def test_self_loop_rejected(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        with pytest.raises(GraphError):
            graph.add_edge(0, 0)

    def test_edge_requires_known_vertices(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        with pytest.raises(GraphError):
            graph.add_edge(0, 1)
        with pytest.raises(GraphError):
            graph.add_edge(2, 0)

    def test_duplicate_edge_is_noop(self):
        graph = make_path_graph("AB")
        graph.add_edge(0, 1)
        assert graph.num_edges == 1

    def test_duplicate_edge_with_other_label_fails(self):
        graph = make_path_graph("AB")
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, label="bond")

    def test_from_edges(self):
        graph = LabeledGraph.from_edges({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])
        assert graph.num_vertices == 3
        assert graph.num_edges == 2


class TestGrowOnly:
    def test_a_changed_graph_has_a_new_size(self):
        """``add_vertex`` / ``add_edge`` are the only mutators, and each grows
        a count when it changes anything: the per-object memos (the
        verifier's compiles, ``IGQ.prepare``) guard on the object and its
        ``|V|``, ``|E|``.  A removal could move an edge and keep both counts
        (a ``remove_edge(1, 2); add_edge(0, 2)`` path answered from its old
        plan), so there is none."""
        assert not hasattr(LabeledGraph, "remove_edge")
        assert not hasattr(LabeledGraph, "remove_vertex")
        graph = make_path_graph("ABC")
        graph.add_edge(0, 1)  # existing: a no-op
        graph.add_vertex(0, "A")  # existing: a no-op
        assert (graph.num_vertices, graph.num_edges) == (3, 2)
        graph.add_edge(2, 0)
        assert graph.num_edges == 3


class TestAccessors:
    def test_edges_reported_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert len({frozenset(edge) for edge in edges}) == 3

    def test_label_of_unknown_vertex(self, triangle):
        with pytest.raises(GraphError):
            triangle.label(99)

    def test_edge_label(self):
        graph = LabeledGraph()
        graph.add_vertex(0, "A")
        graph.add_vertex(1, "B")
        graph.add_edge(0, 1, label="double")
        assert graph.edge_label(0, 1) == "double"
        with pytest.raises(GraphError):
            graph.edge_label(0, 5)

    def test_vertices_with_label(self):
        graph = make_path_graph("ABA")
        assert graph.vertices_with_label("A") == frozenset({0, 2})
        assert graph.vertices_with_label("Z") == frozenset()

    def test_degree_sequence(self):
        graph = make_star_graph("A", "BBB")
        assert graph.degree_sequence() == [3, 1, 1, 1]

    def test_density_of_triangle(self, triangle):
        assert triangle.density() == pytest.approx(1.0)

    def test_contains_and_iteration(self, triangle):
        assert 0 in triangle
        assert 99 not in triangle
        assert set(triangle.vertices()) == {0, 1, 2}

    def test_repr_mentions_sizes(self, triangle):
        assert "|V|=3" in repr(triangle)


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.add_vertex(3, "D")
        clone.add_edge(0, 3)
        assert (triangle.num_vertices, triangle.num_edges) == (3, 3)
        assert (clone.num_vertices, clone.num_edges) == (4, 4)

    def test_subgraph_induced(self):
        graph = make_cycle_graph("ABCD")
        sub = graph.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # the edge closing the square is dropped

    def test_subgraph_unknown_vertex(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph([0, 42])

    def test_relabeled_preserves_structure(self):
        graph = LabeledGraph()
        graph.add_vertex("x", "A")
        graph.add_vertex("y", "B")
        graph.add_edge("x", "y")
        relabeled = graph.relabeled()
        assert set(relabeled.vertices()) == {0, 1}
        assert relabeled.num_edges == 1
        assert sorted(relabeled.label_histogram().items()) == [("A", 1), ("B", 1)]

    def test_same_size(self, triangle):
        assert triangle.same_size(make_cycle_graph("XYZ"))
        assert not triangle.same_size(make_path_graph("AB"))


class TestEqualityAndInvariants:
    def test_structural_equality(self):
        first = make_path_graph("ABC")
        second = make_path_graph("ABC")
        assert first == second
        second.add_vertex(9, "Z")
        assert first != second

    def test_equality_other_type(self, triangle):
        assert triangle.__eq__(42) is NotImplemented

    @given(labeled_graphs())
    def test_invariant_signature_stable_under_relabeling(self, graph):
        assert graph.invariant_signature() == graph.relabeled().invariant_signature()

    @given(labeled_graphs(max_vertices=6))
    def test_degree_sum_is_twice_edges(self, graph):
        assert sum(graph.degree(v) for v in graph.vertices()) == 2 * graph.num_edges

    @given(labeled_graphs(max_vertices=6))
    def test_label_histogram_total(self, graph):
        assert sum(graph.label_histogram().values()) == graph.num_vertices
