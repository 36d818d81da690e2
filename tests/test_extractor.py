"""Tests for the feature-extraction facade.

The load-bearing property for the whole filter-then-verify stack is
*anti-monotonicity*: if ``q ⊆ G`` then every feature of ``q`` appears in
``G`` at least as often.  This is what guarantees no false negatives in the
filtering stage (for the dataset index, for Isub, and for Isuper's Algorithm
2 alike), so it is tested property-based for both feature families.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.datasets.registry import load_dataset
from repro.features import (
    FeatureExtractor,
    GraphFeatures,
    canonical_cycle_code,
    canonical_path_code,
    canonical_tree_code,
    enumerate_simple_paths,
    enumerate_tree_subgraphs,
)
from repro.features import extractor as extractor_module
from repro.features.paths import path_code, path_coverage
from repro.isomorphism.compiled import FlatGraph

from . import kernel_oracle
from .conftest import (
    contains_all_of,
    covers_counts_of,
    feature_keys,
    graph_and_subgraph,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
)


class TestConfiguration:
    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            FeatureExtractor(kind="wavelets")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FeatureExtractor(max_path_length=0)
        with pytest.raises(ValueError):
            FeatureExtractor(tree_max_size=0)
        with pytest.raises(ValueError):
            FeatureExtractor(cycle_max_length=2)

    def test_describe(self):
        assert FeatureExtractor(max_path_length=3).describe() == {
            "kind": "paths",
            "max_path_length": 3,
        }
        described = FeatureExtractor(
            kind=FeatureExtractor.TREES_CYCLES, tree_max_size=5, cycle_max_length=7
        ).describe()
        assert described["tree_max_size"] == 5
        assert described["cycle_max_length"] == 7


class TestPathFeatures:
    def test_counts_and_locations(self):
        """Counts are extracted; locations only as their size, the
        coverage Figure 18 charges Grapes for."""
        extractor = FeatureExtractor(max_path_length=2)
        graph = make_star_graph("A", "BB")
        features = extractor.extract(graph)
        counts = features.counts
        assert counts[path_code(("A",))] == 1
        assert counts[path_code(("B",))] == 2
        assert counts[path_code(("A", "B"))] == 2
        assert counts[path_code(("B", "A", "B"))] == 1
        assert features.num_distinct == 4
        # A covers the centre, B both leaves, A-B and B-A-B all three
        assert path_coverage(graph, 2) == kernel_oracle.coverage(graph, 2) == 1 + 2 + 3 + 3

    def test_keys_helper(self):
        extractor = FeatureExtractor(max_path_length=1)
        features = extractor.extract(make_path_graph("AB"))
        assert feature_keys(features) == set(map(path_code, [("A",), ("B",), ("A", "B")]))

    @pytest.mark.parametrize("dataset", ["aids", "pdbs"])
    def test_keys_equal_the_string_code_round_trip(self, dataset):
        """The features are the keys splitting ``canonical_path_code`` gave,
        coded: same counts, in ascending code order — and the Python
        enumeration walks every path in the direction whose full vertex-repr
        sequence is the smaller one (the endpoint shortcut decides the
        same)."""
        extractor = FeatureExtractor(max_path_length=3)
        for _, graph in list(load_dataset(dataset, scale=0.05).items())[:6]:
            counts = {}
            for path in enumerate_simple_paths(graph, extractor.max_path_length):
                reprs = tuple(map(repr, path))
                assert reprs <= reprs[::-1]
                code = canonical_path_code([graph.label(vertex) for vertex in path])
                key = tuple(code.split("\x1f"))
                counts[key] = counts.get(key, 0) + 1
            expected = GraphFeatures.from_keys(counts)
            assert list(extractor.extract(graph).counts.items()) == list(expected.counts.items())

    @pytest.mark.parametrize("shared_flat", [False, True])
    def test_key_order_does_not_depend_on_the_extractor(self, shared_flat, monkeypatch):
        """WAL records, snapshots, shard deltas and answer digests iterate
        the feature dicts: the native and the Python extractor must return
        the same codes in the same (ascending) order, whether or not the
        caller hands over the graph's flattened arrays."""
        extractor = FeatureExtractor(max_path_length=4)
        graphs = [graph for _, graph in load_dataset("aids", scale=0.05).items()][:8]
        graphs.append(make_star_graph("B", "ACA"))

        def extract(graph):
            return extractor.extract(graph, flat=FlatGraph(graph) if shared_flat else None)

        native = list(map(extract, graphs))
        monkeypatch.setattr(extractor_module, "native_path_features", lambda *args: None)
        for graph, fast in zip(graphs, native):
            slow = extract(graph)
            assert list(fast.counts.items()) == list(slow.counts.items())
            codes = list(fast.counts)
            assert codes == sorted(codes)


class TestTreeCycleFeatures:
    def test_cycle_feature_present(self):
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, cycle_max_length=4)
        features = extractor.extract(make_cycle_graph("ABC"))
        assert path_code((canonical_cycle_code(list("ABC")),)) in features.counts

    def test_tree_features_present(self):
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, tree_max_size=3)
        graph = make_path_graph("ABC")
        features = extractor.extract(graph)
        tree_keys = {(canonical_tree_code(tree),) for tree in enumerate_tree_subgraphs(graph, 3)}
        assert len(tree_keys) >= 3  # singletons and edges at minimum
        assert set(map(path_code, tree_keys)) == set(features.counts)


class TestContainmentHelpers:
    def test_contains_all_of_and_covers_counts(self):
        extractor = FeatureExtractor(max_path_length=2)
        small = extractor.extract(make_path_graph("AB"))
        large = extractor.extract(make_star_graph("A", "BB"))
        assert contains_all_of(large, small)
        assert covers_counts_of(large, small)
        assert not contains_all_of(small, large)
        assert not covers_counts_of(small, large)


class TestAntiMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(graph_and_subgraph(max_vertices=7))
    def test_path_features_are_anti_monotone(self, pair):
        graph, subgraph = pair
        extractor = FeatureExtractor(max_path_length=3)
        assert covers_counts_of(extractor.extract(graph), extractor.extract(subgraph))

    @settings(max_examples=25, deadline=None)
    @given(graph_and_subgraph(max_vertices=6))
    def test_tree_cycle_features_are_anti_monotone(self, pair):
        graph, subgraph = pair
        extractor = FeatureExtractor(
            kind=FeatureExtractor.TREES_CYCLES, tree_max_size=3, cycle_max_length=4
        )
        assert covers_counts_of(extractor.extract(graph), extractor.extract(subgraph))
