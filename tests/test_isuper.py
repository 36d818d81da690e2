"""Tests for the Isuper component (Algorithms 1 and 2 of the paper)."""

from __future__ import annotations

import random

from hypothesis import given, settings

from repro.core import QueryCache, SupergraphQueryIndex
from repro.features import FeatureExtractor
from repro.isomorphism import Verifier, is_subgraph_isomorphic

from .conftest import (
    index_state,
    labeled_graphs,
    make_clique,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
    oracle_index,
    random_labeled_graph,
)

EXTRACTOR = FeatureExtractor(max_path_length=3)


def build_index(graphs, verifier=None):
    cache = QueryCache()
    index = SupergraphQueryIndex(verifier)
    for graph in graphs:
        entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
        index.add(entry)
    return cache, index


class TestAlgorithm1:
    def test_nf_counts_distinct_features(self):
        cache, index = build_index([make_path_graph("AB")])
        entry_id = cache.entry_ids()[0]
        # Features of A-B with path length <= 3: "A", "B", "A-B".
        assert index.num_features(entry_id) == 3

    def test_entries_tracked(self):
        cache, index = build_index([make_path_graph("AB"), make_cycle_graph("ABC")])
        assert len(index) == 2


class TestAlgorithm2:
    def test_candidate_generation_no_false_negatives(self):
        """The filter the default verifier selects: the kernel's sorted
        merge over the native table."""
        self.assert_no_false_negatives(None)

    def test_candidate_generation_no_false_negatives_on_the_python_loop(self):
        self.assert_no_false_negatives(Verifier(compiled=False))

    @staticmethod
    def assert_no_false_negatives(verifier):
        rng = random.Random(5)
        cached = [
            random_labeled_graph(rng, rng.randint(2, 5), 0.3, name=f"c{i}") for i in range(15)
        ]
        cache, index = build_index(cached, verifier)
        assert verifier is None or index._table is None
        entries = {entry.entry_id: entry for entry in cache.entries()}
        for _ in range(10):
            query = random_labeled_graph(rng, rng.randint(4, 8), 0.3)
            features = EXTRACTOR.extract(query)
            candidates = set(index.candidate_subgraphs(features))
            for entry_id, entry in entries.items():
                if is_subgraph_isomorphic(entry.graph, query):
                    assert entry_id in candidates

    def test_occurrence_counts_prune(self):
        # A cached star with two A-B edges cannot be a subgraph of a single
        # A-B edge: the count check (o <= O[f, g]) must prune it.
        cache, index = build_index([make_star_graph("A", "BB")])
        query = make_path_graph("AB")
        features = EXTRACTOR.extract(query)
        assert index.candidate_subgraphs(features) == []

    def test_a_partition_finds_its_share_of_the_hits(self):
        """An index over a subset of the entries (one shard's partition)
        finds exactly the whole index's hits among them."""
        graphs = [make_path_graph("AB"), make_path_graph("ABC"), make_path_graph("BC")]
        query = make_cycle_graph("ABCD")
        features = EXTRACTOR.extract(query)
        whole = [entry.graph for entry in build_index(graphs)[1].find_subgraphs(query, features)]
        assert whole == graphs
        for subset in ([], graphs[:1], graphs[1:], graphs[2:]):
            _, part = build_index(subset)
            assert [entry.graph for entry in part.find_subgraphs(query, features)] == subset

    def test_find_subgraphs_verifies_candidates(self):
        cache, index = build_index(
            [make_path_graph("AB"), make_cycle_graph("ABC"), make_clique("ABCD")]
        )
        query = make_cycle_graph("ABC")
        hits = index.find_subgraphs(query, EXTRACTOR.extract(query))
        names = sorted(entry.graph.num_vertices for entry in hits)
        # The A-B edge and the ABC triangle are subgraphs; K4 is not.
        assert names == [2, 3]

    def test_empty_index(self):
        index = SupergraphQueryIndex()
        query = make_path_graph("AB")
        assert index.find_subgraphs(query, EXTRACTOR.extract(query)) == []

    def test_no_false_positives(self):
        rng = random.Random(9)
        cached = [
            random_labeled_graph(rng, rng.randint(2, 5), 0.4, name=f"c{i}") for i in range(12)
        ]
        cache, index = build_index(cached)
        for _ in range(10):
            query = random_labeled_graph(rng, rng.randint(3, 7), 0.3)
            features = EXTRACTOR.extract(query)
            for entry in index.find_subgraphs(query, features):
                assert is_subgraph_isomorphic(entry.graph, query)

    @settings(max_examples=25, deadline=None)
    @given(labeled_graphs(max_vertices=5), labeled_graphs(max_vertices=6))
    def test_agrees_with_direct_isomorphism(self, cached_graph, query):
        cache, index = build_index([cached_graph])
        hits = index.find_subgraphs(query, EXTRACTOR.extract(query))
        assert bool(hits) == is_subgraph_isomorphic(cached_graph, query)


class TestMaintenance:
    def test_remove_entry(self):
        cache, index = build_index([make_path_graph("AB"), make_path_graph("ABC")])
        victim = cache.entry_ids()[0]
        index.remove(victim)
        assert len(index) == 1
        query = make_cycle_graph("ABCD")
        hits = index.find_subgraphs(query, EXTRACTOR.extract(query))
        assert all(entry.entry_id != victim for entry in hits)

    def test_remove_unknown_is_noop(self):
        cache, index = build_index([make_path_graph("AB")])
        index.remove(42)
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
