"""Tests for the public embedding API, served by the C kernel.

``is_subgraph_isomorphic``, ``find_subgraph_embedding`` and
``are_isomorphic`` run on compiled forms (``ck_verify_many`` /
``ck_find_embedding``).  Correctness is checked on hand-built cases and,
property-based, against the ``networkx`` matcher (a test-only dependency)
and ``UllmannMatcher``; every returned embedding is checked to be
injective and to preserve labels and edges.  The dict-based
``VF2Matcher`` that served this API before is an oracle in
``tests/kernel_oracle.py``; its enumeration is tested here too.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graphs import LabeledGraph
from repro.isomorphism import (
    are_isomorphic,
    find_subgraph_embedding,
    is_subgraph_isomorphic,
)

from .kernel_oracle import UllmannMatcher, VF2Matcher
from .conftest import (
    graph_and_subgraph,
    labeled_graphs,
    make_clique,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
)


def to_networkx(graph: LabeledGraph) -> nx.Graph:
    result = nx.Graph()
    for vertex in graph.vertices():
        result.add_node(vertex, label=graph.label(vertex))
    result.add_edges_from(graph.edges())
    return result


def networkx_is_subgraph(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    """Oracle: non-induced, label-preserving subgraph isomorphism."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_networkx(target),
        to_networkx(pattern),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return matcher.subgraph_is_monomorphic()


def networkx_is_isomorphic(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Oracle: label-preserving graph isomorphism."""
    return nx.is_isomorphic(
        to_networkx(first),
        to_networkx(second),
        node_match=lambda a, b: a["label"] == b["label"],
    )


def checked_embedding(pattern: LabeledGraph, target: LabeledGraph) -> dict | None:
    """``find_subgraph_embedding``, checked: a found embedding maps every
    pattern vertex, injectively, label- and edge-preserving; it exists
    exactly when ``is_subgraph_isomorphic`` and ``UllmannMatcher`` say so."""
    embedding = find_subgraph_embedding(pattern, target)
    exists = UllmannMatcher(pattern, target).has_match()
    assert (embedding is not None) == exists == is_subgraph_isomorphic(pattern, target)
    if embedding is not None:
        assert set(embedding) == set(pattern.vertices())
        assert len(set(embedding.values())) == pattern.num_vertices
        for vertex, image in embedding.items():
            assert target.has_vertex(image)
            assert pattern.label(vertex) == target.label(image)
        for u, v in pattern.edges():
            assert target.has_edge(embedding[u], embedding[v])
    return embedding


def two_triangles() -> LabeledGraph:
    graph = make_cycle_graph("AAA")
    for vertex in (10, 11, 12):
        graph.add_vertex(vertex, "A")
    graph.add_edge(10, 11)
    graph.add_edge(11, 12)
    graph.add_edge(12, 10)
    return graph


class TestKnownCases:
    def test_path_in_cycle(self):
        assert is_subgraph_isomorphic(make_path_graph("ABC"), make_cycle_graph("ABC"))

    def test_cycle_not_in_path(self):
        assert not is_subgraph_isomorphic(make_cycle_graph("ABC"), make_path_graph("ABC"))

    def test_label_mismatch(self):
        assert not is_subgraph_isomorphic(make_path_graph("AZ"), make_cycle_graph("ABC"))

    def test_triangle_in_k4(self):
        assert is_subgraph_isomorphic(make_cycle_graph("AAA"), make_clique("AAAA"))

    def test_star_needs_degree(self):
        star = make_star_graph("A", "BBB")
        assert not is_subgraph_isomorphic(star, make_path_graph("BAB"))
        bigger_star = make_star_graph("A", "BBBB")
        assert is_subgraph_isomorphic(star, bigger_star)

    def test_empty_pattern_matches_everything(self):
        assert is_subgraph_isomorphic(LabeledGraph(), make_path_graph("AB"))
        assert find_subgraph_embedding(LabeledGraph(), make_path_graph("AB")) == {}
        assert find_subgraph_embedding(LabeledGraph(), LabeledGraph()) == {}

    def test_pattern_larger_than_target(self):
        assert not is_subgraph_isomorphic(make_path_graph("ABCD"), make_path_graph("AB"))
        assert find_subgraph_embedding(make_path_graph("ABCD"), make_path_graph("AB")) is None
        assert find_subgraph_embedding(make_path_graph("A"), LabeledGraph()) is None

    def test_disconnected_pattern(self):
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "C")
        target = make_path_graph("ABC")
        assert is_subgraph_isomorphic(pattern, target)
        assert checked_embedding(pattern, target) == {0: 0, 1: 2}
        pattern.add_vertex(2, "Z")
        assert not is_subgraph_isomorphic(pattern, target)
        assert checked_embedding(pattern, target) is None
        # two components, each an edge, into one path: images disjoint
        pattern = make_path_graph("AB")
        pattern.add_vertex("x", "A")
        pattern.add_vertex("y", "B")
        pattern.add_edge("x", "y")
        assert checked_embedding(pattern, make_path_graph("ABAB")) is not None
        assert checked_embedding(pattern, make_path_graph("ABA")) is None

    def test_embedding_is_valid(self):
        pattern = make_path_graph("ABC")
        target = make_cycle_graph("ABCD")
        embedding = checked_embedding(pattern, target)
        assert embedding == {0: 0, 1: 1, 2: 2}

    def test_no_embedding_returns_none(self):
        assert find_subgraph_embedding(make_cycle_graph("AAA"), make_path_graph("AAA")) is None

    def test_count_embeddings_path_in_triangle(self):
        """The oracle's enumeration: a labelled A-A path embeds in an all-A
        triangle 6 times (3 edges x 2 directions)."""
        assert VF2Matcher(make_path_graph("AA"), make_cycle_graph("AAA")).count_matches() == 6

    def test_count_embeddings_with_limit(self):
        matcher = VF2Matcher(make_path_graph("AA"), make_cycle_graph("AAA"))
        assert matcher.count_matches(limit=2) == 2

    def test_iter_matches_limit_zero(self):
        matcher = VF2Matcher(make_path_graph("AA"), make_cycle_graph("AAA"))
        assert list(matcher.iter_matches(limit=0)) == []

    def test_induced_semantics(self):
        """Matching is non-induced: an A-A-A path embeds in an all-A
        triangle (an induced one would not; the oracle still has that
        mode), and the API takes no ``induced`` keyword."""
        path = make_path_graph("AAA")
        triangle = make_cycle_graph("AAA")
        assert is_subgraph_isomorphic(path, triangle)
        assert checked_embedding(path, triangle) is not None
        assert not VF2Matcher(path, triangle, induced=True).has_match()
        with pytest.raises(TypeError):
            is_subgraph_isomorphic(path, triangle, induced=False)
        with pytest.raises(TypeError):
            find_subgraph_embedding(path, triangle, induced=False)

    def test_removed_api_is_gone(self):
        import repro.isomorphism as isomorphism

        assert not hasattr(isomorphism, "count_subgraph_embeddings")
        assert not hasattr(isomorphism, "VF2Matcher")
        assert repro.is_subgraph_isomorphic is is_subgraph_isomorphic


class TestIsomorphism:
    def test_same_graph_relabeled(self):
        graph = make_cycle_graph("ABCD")
        other = LabeledGraph()
        for vertex, label in [(10, "C"), (11, "D"), (12, "A"), (13, "B")]:
            other.add_vertex(vertex, label)
        other.add_edge(12, 13)
        other.add_edge(13, 10)
        other.add_edge(10, 11)
        other.add_edge(11, 12)
        assert are_isomorphic(graph, other)

    def test_different_sizes(self):
        assert not are_isomorphic(make_path_graph("AB"), make_path_graph("ABC"))

    def test_same_size_different_structure(self):
        assert not are_isomorphic(make_path_graph("AAAA"), make_star_graph("A", "AAA"))

    def test_different_labels(self):
        assert not are_isomorphic(make_path_graph("AAB"), make_path_graph("ABB"))

    def test_equal_size_equal_degrees_not_isomorphic(self):
        """A hexagon and two triangles: same |V|, |E|, labels and degree
        sequence, so the signature pre-reject passes and the search decides."""
        hexagon = make_cycle_graph("AAAAAA")
        assert not are_isomorphic(hexagon, two_triangles())
        assert not are_isomorphic(two_triangles(), hexagon)
        assert are_isomorphic(two_triangles(), two_triangles().relabeled())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equal_size_pairs_match_oracle(self, data):
        """Random pairs of equal |V| and |E|: isomorphic exactly when
        networkx says so."""
        first = data.draw(labeled_graphs(max_vertices=6, labels="AB"))
        second = data.draw(labeled_graphs(max_vertices=6, labels="AB"))
        if (first.num_vertices, first.num_edges) != (second.num_vertices, second.num_edges):
            second = first.relabeled()
        assert are_isomorphic(first, second) == networkx_is_isomorphic(first, second)


class TestAgainstNetworkxOracle:
    @settings(max_examples=60, deadline=None)
    @given(labeled_graphs(max_vertices=5), labeled_graphs(max_vertices=7))
    def test_random_pairs_match_oracle(self, pattern, target):
        assert is_subgraph_isomorphic(pattern, target) == networkx_is_subgraph(
            pattern, target
        )
        checked_embedding(pattern, target)

    @settings(max_examples=30, deadline=None)
    @given(
        labeled_graphs(max_vertices=6, connected=False),
        labeled_graphs(max_vertices=8, connected=False),
    )
    def test_disconnected_pairs_embed_validly(self, pattern, target):
        checked_embedding(pattern, target)

    @settings(max_examples=60, deadline=None)
    @given(graph_and_subgraph(max_vertices=8))
    def test_true_subgraphs_always_found(self, pair):
        graph, subgraph = pair
        assert is_subgraph_isomorphic(subgraph, graph)
        assert checked_embedding(subgraph, graph) is not None

    @settings(max_examples=40, deadline=None)
    @given(labeled_graphs(max_vertices=6))
    def test_every_graph_contains_itself(self, graph):
        assert is_subgraph_isomorphic(graph, graph)
        assert are_isomorphic(graph, graph.relabeled())
