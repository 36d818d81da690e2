"""Tests for canonical path / cycle / tree codes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import (
    canonical_cycle_code,
    canonical_path_code,
    canonical_tree_code,
)
from repro.graphs import GraphError, LabeledGraph

from .conftest import make_cycle_graph, make_path_graph, make_star_graph


class TestPathCode:
    def test_direction_invariance(self):
        assert canonical_path_code("ABC") == canonical_path_code("CBA")

    def test_different_paths_differ(self):
        assert canonical_path_code("ABC") != canonical_path_code("ACB")

    def test_single_label(self):
        assert canonical_path_code(["X"]) == "X"

    def test_non_string_labels(self):
        assert canonical_path_code([1, 2, 3]) == canonical_path_code([3, 2, 1])

    @given(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=6))
    def test_reverse_always_equal(self, labels):
        assert canonical_path_code(labels) == canonical_path_code(list(reversed(labels)))


class TestCycleCode:
    def test_rotation_invariance(self):
        assert canonical_cycle_code("ABCD") == canonical_cycle_code("BCDA")

    def test_reflection_invariance(self):
        assert canonical_cycle_code("ABCD") == canonical_cycle_code("DCBA")

    def test_distinct_cycles_differ(self):
        assert canonical_cycle_code("AABB") != canonical_cycle_code("ABAB")

    def test_prefix_prevents_collision_with_paths(self):
        assert canonical_cycle_code("ABC") != canonical_path_code("ABC")

    def test_too_short_cycle(self):
        with pytest.raises(ValueError):
            canonical_cycle_code("AB")

    @given(st.lists(st.sampled_from("ABC"), min_size=3, max_size=7), st.integers(0, 6))
    def test_any_rotation_equal(self, labels, shift):
        rotated = labels[shift % len(labels):] + labels[: shift % len(labels)]
        assert canonical_cycle_code(labels) == canonical_cycle_code(rotated)


class TestTreeCode:
    def test_path_tree_direction_invariance(self):
        assert canonical_tree_code(make_path_graph("ABC")) == canonical_tree_code(
            make_path_graph("CBA")
        )

    def test_star_vs_path(self):
        assert canonical_tree_code(make_star_graph("A", "BBB")) != canonical_tree_code(
            make_path_graph("BABB")
        )

    def test_relabeling_invariance(self):
        tree = make_star_graph("A", "BCB")
        relabeled = LabeledGraph()
        mapping = {0: "root", 1: "x", 2: "y", 3: "z"}
        for old, new in mapping.items():
            relabeled.add_vertex(new, tree.label(old))
        for u, v in tree.edges():
            relabeled.add_edge(mapping[u], mapping[v])
        assert canonical_tree_code(tree) == canonical_tree_code(relabeled)

    def test_label_sensitivity(self):
        assert canonical_tree_code(make_star_graph("A", "BBB")) != canonical_tree_code(
            make_star_graph("A", "BBC")
        )

    def test_single_vertex(self):
        single = LabeledGraph()
        single.add_vertex(0, "Q")
        assert canonical_tree_code(single).startswith("tree:")

    def test_empty_tree(self):
        assert canonical_tree_code(LabeledGraph()) == "tree:"

    def test_non_tree_rejected(self):
        with pytest.raises(GraphError):
            canonical_tree_code(make_cycle_graph("ABC"))

    def test_isomorphic_trees_same_code(self):
        # The same labelled tree built with two different vertex orderings.
        first = LabeledGraph()
        for vertex, label in enumerate("ABAC"):
            first.add_vertex(vertex, label)
        first.add_edge(0, 1)
        first.add_edge(1, 2)
        first.add_edge(1, 3)
        second = LabeledGraph()
        for vertex, label in enumerate("CABA"):
            second.add_vertex(vertex, label)
        second.add_edge(0, 1)
        second.add_edge(1, 2)
        second.add_edge(2, 3)
        # first: B is the centre with children A, A, C;
        # second: path C-A-B-A -> different trees, codes must differ...
        assert canonical_tree_code(first) != canonical_tree_code(second)

    @settings(max_examples=40)
    @given(st.lists(st.sampled_from("AB"), min_size=2, max_size=7))
    def test_path_trees_reverse_invariant(self, labels):
        forward = make_path_graph("".join(labels))
        backward = make_path_graph("".join(reversed(labels)))
        assert canonical_tree_code(forward) == canonical_tree_code(backward)
