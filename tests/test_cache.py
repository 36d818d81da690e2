"""Tests for the iGQ query cache and its metadata bookkeeping."""

from __future__ import annotations

from array import array

import pytest

from repro.core import QueryCache
from repro.features import FeatureExtractor

from .conftest import make_cycle_graph, make_path_graph

EXTRACTOR = FeatureExtractor(max_path_length=2)


def add_entry(cache, graph, answer=("g1",)):
    return cache.add(graph, EXTRACTOR.extract(graph), frozenset(answer))


class TestQueryCache:
    def test_add_assigns_increasing_ids(self):
        cache = QueryCache()
        first = add_entry(cache, make_path_graph("AB"))
        second = add_entry(cache, make_path_graph("BC"))
        assert second.entry_id == first.entry_id + 1
        assert len(cache) == 2
        assert first.entry_id in cache

    def test_get_and_remove(self):
        cache = QueryCache()
        entry = add_entry(cache, make_path_graph("AB"))
        assert cache.get(entry.entry_id) is entry
        removed = cache.remove(entry.entry_id)
        assert removed is entry
        assert len(cache) == 0
        with pytest.raises(KeyError):
            cache.get(entry.entry_id)
        with pytest.raises(KeyError):
            cache.remove(entry.entry_id)

    def test_entries_in_insertion_order(self):
        cache = QueryCache()
        graphs = [make_path_graph("AB"), make_path_graph("BC"), make_cycle_graph("ABC")]
        for graph in graphs:
            add_entry(cache, graph)
        assert [entry.graph for entry in cache.entries()] == graphs
        assert cache.entry_ids() == [0, 1, 2]

    def test_query_counter_and_added_at(self):
        cache = QueryCache()
        for _ in range(5):
            cache.note_query_processed()
        entry = add_entry(cache, make_path_graph("AB"))
        assert entry.added_at == 5
        for _ in range(3):
            cache.note_query_processed()
        assert entry.queries_since_added(cache.query_counter) == 3

    def test_answer_stored_as_frozenset(self):
        cache = QueryCache()
        entry = cache.add(
            make_path_graph("AB"), EXTRACTOR.extract(make_path_graph("AB")), {"g1", "g2"}
        )
        assert entry.answer == frozenset({"g1", "g2"})

    def test_tags_are_copied(self):
        cache = QueryCache()
        tags = {"mode": "subgraph"}
        entry = cache.add(
            make_path_graph("AB"), EXTRACTOR.extract(make_path_graph("AB")), set(), tags=tags
        )
        tags["mode"] = "mutated"
        assert entry.tags == {"mode": "subgraph"}


class TestCacheEntryMetadata:
    def test_record_hit_accumulates(self):
        """A hit's credit lands in the entry's column row; a replay adds
        it again; the totals stay with the entry when it leaves."""
        cache = QueryCache()
        entry = add_entry(cache, make_path_graph("AB"))
        cache.columns.set_width(5)
        cache.columns.set_answers([entry.entry_id], [0b00111])
        costs = array("d", [1.0, 2.0, 4.0, 8.0, 16.0])
        *_, credits = cache.columns.plan(array("q", [entry.entry_id]), 1, 0b01101, costs, 0, 0)
        assert (entry.hits, entry.removed, entry.alleviated_cost) == (1, 2, 5.0)
        cache.columns.credit(credits)
        assert (entry.hits, entry.removed, entry.alleviated_cost) == (2, 4, 10.0)
        cache.remove(entry.entry_id)
        assert (entry.hits, entry.removed, entry.alleviated_cost) == (2, 4, 10.0)

    def test_queries_since_added_never_negative(self):
        cache = QueryCache()
        entry = add_entry(cache, make_path_graph("AB"))
        assert entry.queries_since_added(0) == 0
