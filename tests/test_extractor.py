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
from repro.features import FeatureExtractor, canonical_path_code, enumerate_simple_paths
from repro.features import extractor as extractor_module

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
        extractor = FeatureExtractor(max_path_length=2)
        graph = make_star_graph("A", "BB")
        features = extractor.extract(graph, locations=True)
        counts, located = features.key_counts(), features.key_locations()
        assert counts[("A",)] == 1
        assert counts[("B",)] == 2
        assert counts[("A", "B")] == 2
        assert counts[("B", "A", "B")] == 1
        # a bitmask over the positions of graph.vertices()
        assert list(graph.vertices()) == [0, 1, 2]
        assert located[("A", "B")] == 0b111
        assert located[("A",)] == 0b001
        assert features.num_distinct == 4

    def test_locations_only_on_request(self):
        extractor = FeatureExtractor(max_path_length=2)
        graph = make_star_graph("A", "BB")
        assert extractor.extract(graph).locations == {}
        assert extractor.extract(graph).counts == extractor.extract(graph, locations=True).counts

    def test_keys_helper(self):
        extractor = FeatureExtractor(max_path_length=1)
        features = extractor.extract(make_path_graph("AB"))
        assert feature_keys(features) == {("A",), ("B",), ("A", "B")}

    @pytest.mark.parametrize("dataset", ["aids", "pdbs"])
    def test_keys_equal_the_string_code_round_trip(self, dataset):
        """The tuple keys are what splitting ``canonical_path_code`` gave:
        same keys, counts and locations, in ascending key order — and the
        Python enumeration walks every path in the direction whose full
        vertex-repr sequence is the smaller one (the endpoint shortcut
        decides the same)."""
        extractor = FeatureExtractor(max_path_length=3)
        for _, graph in list(load_dataset(dataset, scale=0.05).items())[:6]:
            position = {vertex: index for index, vertex in enumerate(graph.vertices())}
            counts, locations = {}, {}
            for path in enumerate_simple_paths(graph, extractor.max_path_length):
                reprs = tuple(map(repr, path))
                assert reprs <= reprs[::-1]
                code = canonical_path_code([graph.label(vertex) for vertex in path])
                key = tuple(code.split("\x1f"))
                counts[key] = counts.get(key, 0) + 1
                locations[key] = locations.get(key, 0) | sum(1 << position[v] for v in path)
            features = extractor.extract(graph, locations=True)
            assert list(features.key_counts().items()) == sorted(counts.items())
            assert list(features.key_locations().items()) == sorted(locations.items())
            assert list(extractor.extract(graph).key_counts().items()) == sorted(counts.items())

    @pytest.mark.parametrize("locations", [False, True])
    def test_key_order_does_not_depend_on_the_extractor(self, locations, monkeypatch):
        """WAL records, snapshots, shard deltas and answer digests iterate
        the feature dicts: the native and the Python extractor must return
        the same keys in the same (ascending) order."""
        extractor = FeatureExtractor(max_path_length=4)
        graphs = [graph for _, graph in load_dataset("aids", scale=0.05).items()][:8]
        graphs.append(make_star_graph("B", "ACA"))
        native = [extractor.extract(graph, locations=locations) for graph in graphs]
        monkeypatch.setattr(extractor_module, "native_path_features", lambda *args: None)
        for graph, fast in zip(graphs, native):
            slow = extractor.extract(graph, locations=locations)
            assert fast.coded and slow.coded
            assert list(fast.counts.items()) == list(slow.counts.items())
            assert list(fast.locations.items()) == list(slow.locations.items())
            keys = list(fast.key_counts())
            assert keys == sorted(keys)
            assert list(fast.key_locations()) == (keys if locations else [])


class TestTreeCycleFeatures:
    def test_cycle_feature_present(self):
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, cycle_max_length=4)
        features = extractor.extract(make_cycle_graph("ABC"))
        cycle_keys = [key for key in features.counts if key[0].startswith("cycle:")]
        assert len(cycle_keys) == 1

    def test_tree_features_present(self):
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, tree_max_size=3)
        features = extractor.extract(make_path_graph("ABC"))
        tree_keys = [key for key in features.counts if key[0].startswith("tree:")]
        assert len(tree_keys) >= 3  # singletons and edges at minimum

    def test_locations_populated(self):
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, tree_max_size=2)
        features = extractor.extract(make_path_graph("AB"), locations=True)
        assert set(features.locations) == set(features.counts)
        for mask in features.locations.values():
            assert 0 < mask <= 0b11


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
