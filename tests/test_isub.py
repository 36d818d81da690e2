"""Tests for the Isub component (finding cached supergraphs of a new query)."""

from __future__ import annotations

import random

from hypothesis import given, settings

from repro.core import QueryCache, SubgraphQueryIndex
from repro.features import FeatureExtractor
from repro.isomorphism import is_subgraph_isomorphic

from .conftest import (
    index_state,
    labeled_graphs,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
    oracle_index,
    random_labeled_graph,
)

EXTRACTOR = FeatureExtractor(max_path_length=3)


def build_index(graphs, answers=None):
    cache = QueryCache()
    index = SubgraphQueryIndex()
    for position, graph in enumerate(graphs):
        answer = frozenset() if answers is None else frozenset(answers[position])
        entry = cache.add(graph, EXTRACTOR.extract(graph), answer)
        index.add(entry)
    return cache, index


class TestFindSupergraphs:
    def test_finds_containing_cached_query(self):
        cache, index = build_index([make_cycle_graph("ABCD"), make_path_graph("XY")])
        query = make_path_graph("ABC")
        hits = index.find_supergraphs(query, EXTRACTOR.extract(query))
        assert len(hits) == 1
        assert hits[0].graph.num_vertices == 4

    def test_no_hits_for_unrelated_query(self):
        cache, index = build_index([make_path_graph("AB")])
        query = make_star_graph("Z", "ZZ")
        assert index.find_supergraphs(query, EXTRACTOR.extract(query)) == []

    def test_empty_index(self):
        index = SubgraphQueryIndex()
        query = make_path_graph("AB")
        assert index.find_supergraphs(query, EXTRACTOR.extract(query)) == []

    def test_no_false_positives_guarantee(self):
        rng = random.Random(3)
        cached = [
            random_labeled_graph(rng, rng.randint(3, 7), 0.3, name=f"c{i}") for i in range(15)
        ]
        cache, index = build_index(cached)
        for _ in range(10):
            query = random_labeled_graph(rng, rng.randint(2, 5), 0.3)
            features = EXTRACTOR.extract(query)
            for entry in index.find_supergraphs(query, features):
                assert is_subgraph_isomorphic(query, entry.graph)

    def test_no_false_negatives(self):
        rng = random.Random(11)
        cached = [
            random_labeled_graph(rng, rng.randint(3, 7), 0.3, name=f"c{i}") for i in range(15)
        ]
        cache, index = build_index(cached)
        for _ in range(10):
            query = random_labeled_graph(rng, rng.randint(2, 4), 0.4)
            features = EXTRACTOR.extract(query)
            found = {id(entry.graph) for entry in index.find_supergraphs(query, features)}
            expected = {
                id(graph) for graph in cached if is_subgraph_isomorphic(query, graph)
            }
            assert found == expected

    def test_a_partition_finds_its_share_of_the_hits(self):
        """Each hit is decided by its own entry: an index over a subset of
        the entries (one shard's partition) finds exactly the whole index's
        hits among them."""
        graphs = [make_cycle_graph("ABCD"), make_path_graph("ABC"), make_path_graph("ABCD")]
        query = make_path_graph("ABC")
        features = EXTRACTOR.extract(query)
        whole = [entry.graph for entry in build_index(graphs)[1].find_supergraphs(query, features)]
        assert whole == graphs
        for subset in ([], graphs[:1], graphs[1:], graphs[2:]):
            _, part = build_index(subset)
            assert [entry.graph for entry in part.find_supergraphs(query, features)] == subset

    @settings(max_examples=25, deadline=None)
    @given(labeled_graphs(max_vertices=5), labeled_graphs(max_vertices=6))
    def test_agrees_with_direct_isomorphism(self, query, cached_graph):
        cache, index = build_index([cached_graph])
        hits = index.find_supergraphs(query, EXTRACTOR.extract(query))
        assert bool(hits) == is_subgraph_isomorphic(query, cached_graph)


class TestMaintenance:
    def test_remove_entry(self):
        cache, index = build_index([make_cycle_graph("ABC"), make_cycle_graph("ABCD")])
        entry_id = cache.entry_ids()[0]
        index.remove(entry_id)
        assert len(index) == 1
        query = make_cycle_graph("ABC")
        hits = index.find_supergraphs(query, EXTRACTOR.extract(query))
        assert all(entry.entry_id != entry_id for entry in hits)

    def test_remove_unknown_is_noop(self):
        cache, index = build_index([make_path_graph("AB")])
        index.remove(999)
        assert len(index) == 1

    def test_incremental_updates_match_fresh_index(self):
        cache, index = build_index([make_path_graph("AB"), make_path_graph("ABC")])
        victim = cache.entry_ids()[0]
        index.remove(victim)
        cache.remove(victim)
        graph = make_cycle_graph("ABC")
        index.add(cache.add(graph, EXTRACTOR.extract(graph), frozenset()))
        assert len(index) == 2
        assert index_state(index) == index_state(oracle_index(index, cache))

    def test_size_estimate(self):
        cache, index = build_index([make_path_graph("ABCD")])
        assert index.estimated_size_bytes() > 0
