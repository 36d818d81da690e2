"""Tests for the Python path enumeration the kernel is checked against
(``tests/kernel_oracle.py``) and for the kernel's coverage count."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.features import path_coverage

from . import kernel_oracle
from .kernel_oracle import enumerate_simple_paths, path_features
from .conftest import labeled_graphs, make_clique, make_cycle_graph, make_path_graph, make_star_graph


def count_paths(graph, max_length, min_length=0):
    return sum(1 for _ in enumerate_simple_paths(graph, max_length, min_length=min_length))


class TestEnumeration:
    def test_single_vertices_are_zero_length_paths(self):
        graph = make_path_graph("ABC")
        paths = list(enumerate_simple_paths(graph, 0))
        assert sorted(paths) == [(0,), (1,), (2,)]

    def test_path_graph_counts(self):
        # A path graph with 4 vertices has: 4 vertices, 3 edges, 2 paths of
        # length 2, 1 path of length 3.
        graph = make_path_graph("ABCD")
        assert count_paths(graph, 1) == 4 + 3
        assert count_paths(graph, 2) == 4 + 3 + 2
        assert count_paths(graph, 3) == 4 + 3 + 2 + 1

    def test_each_undirected_path_once(self):
        graph = make_cycle_graph("ABC")
        paths = set(enumerate_simple_paths(graph, 2, min_length=1))
        assert len(paths) == 6  # 3 edges + 3 two-edge paths
        # A path and its reverse are the same undirected path: only one of
        # the two directions may be reported.
        for path in paths:
            assert tuple(reversed(path)) not in paths or len(path) == 1

    def test_triangle_counts(self):
        # Triangle: 3 vertices, 3 edges, 3 paths of length 2.
        graph = make_cycle_graph("ABC")
        assert count_paths(graph, 2) == 3 + 3 + 3

    def test_min_length_excludes_short_paths(self):
        graph = make_path_graph("ABCD")
        assert count_paths(graph, 3, min_length=2) == 2 + 1

    def test_invalid_lengths(self):
        graph = make_path_graph("AB")
        with pytest.raises(ValueError):
            list(enumerate_simple_paths(graph, -1))
        with pytest.raises(ValueError):
            list(enumerate_simple_paths(graph, 2, min_length=-2))

    @settings(max_examples=30, deadline=None)
    @given(labeled_graphs(max_vertices=6))
    def test_paths_are_simple_and_within_bounds(self, graph):
        for path in enumerate_simple_paths(graph, 3):
            assert 1 <= len(path) <= 4
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert graph.has_edge(u, v)


class TestPathFeatures:
    def test_counts_on_known_graph(self):
        features = path_features(make_path_graph("ABA"), max_length=2)
        # Features: single labels A (x2), B (x1); edges A-B (x2); path A-B-A (x1).
        assert features == {("A",): 2, ("B",): 1, ("A", "B"): 2, ("A", "B", "A"): 1}

    def test_locations_cover_occurrence_vertices(self):
        """The coverage counts, per key, the vertices its occurrences
        cover: A the centre, B both leaves, A-B all three."""
        graph = make_star_graph("A", "BB")
        assert path_features(graph, max_length=1)[("A", "B")] == 2
        assert path_coverage(graph, 1) == 1 + 2 + 3

    def test_clique_feature_counts(self):
        features = path_features(make_clique("AAA"), max_length=1)
        assert features[("A",)] == 3
        assert features[("A", "A")] == 3

    @settings(max_examples=25, deadline=None)
    @given(labeled_graphs(max_vertices=6))
    def test_feature_counts_match_enumeration(self, graph):
        features = path_features(graph, max_length=2)
        assert sum(features.values()) == count_paths(graph, 2)

    @settings(max_examples=25, deadline=None)
    @given(labeled_graphs(max_vertices=6))
    def test_locations_are_subsets_of_vertices(self, graph):
        """Each key covers at least one and at most all of the graph's
        vertices, and the kernel's count is the oracle's."""
        keys = len(path_features(graph, max_length=2))
        covered = path_coverage(graph, 2)
        assert covered == kernel_oracle.coverage(graph, 2)
        assert keys <= covered <= keys * graph.num_vertices
