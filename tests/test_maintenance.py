"""Tests for the windowed maintenance scheme of §5.2."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    IGQ,
    CacheConfig,
    EngineConfig,
    IndexMaintenance,
    PendingQuery,
    QueryCache,
    SubgraphQueryIndex,
    SupergraphQueryIndex,
    UtilityReplacementPolicy,
)
from repro.features import FeatureExtractor
from repro.graphs import GraphDatabase
from repro.methods import GGSXMethod

from .conftest import (
    apply_report,
    index_state,
    make_path_graph,
    oracle_at_least,
    oracle_index,
    oracle_tally,
    posting_lists,
    random_labeled_graph,
)

EXTRACTOR = FeatureExtractor(max_path_length=2)


def pending(label: str, answer=()):
    graph = make_path_graph(label)
    return PendingQuery(graph=graph, features=EXTRACTOR.extract(graph), answer=frozenset(answer))


class TestConfiguration:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            IndexMaintenance(cache_size=0)
        with pytest.raises(ValueError):
            IndexMaintenance(cache_size=10, window_size=0)
        with pytest.raises(ValueError):
            IndexMaintenance(cache_size=5, window_size=6)

    def test_default_policy_is_utility(self):
        maintenance = IndexMaintenance(cache_size=10, window_size=2)
        assert isinstance(maintenance.policy, UtilityReplacementPolicy)


class TestWindow:
    def test_submit_reports_full_window(self):
        maintenance = IndexMaintenance(cache_size=10, window_size=2)
        assert maintenance.submit(pending("AB")) is False
        assert maintenance.window_fill == 1
        assert maintenance.submit(pending("BC")) is True

    def test_flush_empty_window_is_noop(self):
        maintenance = IndexMaintenance(cache_size=4, window_size=2)
        cache = QueryCache()
        report = maintenance.flush(cache)
        assert report.inserted == 0
        assert report.evicted == 0

    def test_flush_inserts_and_empties_window(self):
        maintenance = IndexMaintenance(cache_size=10, window_size=2)
        cache = QueryCache()
        maintenance.submit(pending("AB"))
        maintenance.submit(pending("BC"))
        report = maintenance.flush(cache)
        assert report.inserted == 2
        assert report.evicted == 0
        assert report.cache_size_after == 2
        assert maintenance.window_fill == 0

    def test_no_eviction_during_warmup(self):
        maintenance = IndexMaintenance(cache_size=6, window_size=2)
        cache = QueryCache()
        for labels in ("AB", "BC"):
            maintenance.submit(pending(labels))
        report = maintenance.flush(cache)
        assert report.evicted == 0

    def test_eviction_when_capacity_exceeded(self):
        maintenance = IndexMaintenance(cache_size=3, window_size=2)
        cache = QueryCache()
        # Pre-fill the cache to capacity.
        for labels in ("AB", "BC", "CA"):
            entry = cache.add(
                make_path_graph(labels), EXTRACTOR.extract(make_path_graph(labels)), frozenset()
            )
            entry.alleviated_cost = 100.0  # old entries look valuable
        cache.query_counter = 10
        maintenance.submit(pending("AA"))
        maintenance.submit(pending("CC"))
        report = maintenance.flush(cache)
        assert report.inserted == 2
        assert report.evicted == 2
        assert len(cache) == 3
        assert report.cache_size_after == 3

    def test_flush_adds_window_to_component_indexes(self):
        maintenance = IndexMaintenance(cache_size=5, window_size=1)
        cache = QueryCache()
        isub = SubgraphQueryIndex()
        isuper = SupergraphQueryIndex()
        maintenance.submit(pending("ABC"))
        apply_report(maintenance.flush(cache), isub, isuper)
        assert len(isub) == 1
        assert len(isuper) == 1
        maintenance.submit(pending("BCD"))
        apply_report(maintenance.flush(cache), isub, isuper)
        assert len(isub) == 2
        assert len(isuper) == 2
        for index in (isub, isuper):
            assert index_state(index) == index_state(oracle_index(index, cache))

    def test_evicted_entries_leave_indexes_after_flush(self):
        maintenance = IndexMaintenance(cache_size=1, window_size=1)
        cache = QueryCache()
        isub = SubgraphQueryIndex()
        isuper = SupergraphQueryIndex()
        maintenance.submit(pending("AB"))
        apply_report(maintenance.flush(cache), isub, isuper)
        cache.query_counter = 5
        maintenance.submit(pending("CD"))
        report = maintenance.flush(cache)
        apply_report(report, isub, isuper)
        assert report.evicted == 1
        assert len(cache) == 1
        assert len(isub) == 1
        assert next(cache.entries()).graph.label(0) == "C"
        for index in (isub, isuper):
            assert index_state(index) == index_state(oracle_index(index, cache))


@st.composite
def flush_scenarios(draw):
    cache_size = draw(st.integers(min_value=1, max_value=6))
    return {
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "cache_size": cache_size,
        "window_size": draw(st.integers(min_value=1, max_value=cache_size)),
        "policy": draw(st.sampled_from(["utility", "hit_rate", "fifo"])),
        "mode": draw(st.sampled_from(["subgraph", "supergraph", "mixed"])),
        "length": draw(st.integers(min_value=4, max_value=30)),
    }


class TestIncrementalFlushProperties:
    """The in-place window flush against a from-scratch oracle."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(flush_scenarios())
    def test_live_indexes_equal_fresh_indexes_after_every_flush(self, scenario):
        rng = random.Random(scenario["seed"])
        database = GraphDatabase.from_graphs(
            [random_labeled_graph(rng, rng.randint(3, 7), 0.4, name=f"g{i}") for i in range(5)]
        )
        # A small pool with repeats, so entries get hit, credited and evicted.
        pool = [random_labeled_graph(rng, rng.randint(2, 5), 0.4, name=f"q{i}") for i in range(8)]
        capacity = scenario["cache_size"]
        engine = IGQ(
            GGSXMethod(max_path_length=2),
            EngineConfig(
                mode=scenario["mode"],
                cache=CacheConfig(
                    size=capacity, window=scenario["window_size"], policy=scenario["policy"]
                ),
            ),
        )
        engine.build_index(database)
        seen: dict[int, object] = {}
        flushes = 0
        for _ in range(scenario["length"]):
            query = rng.choice(pool)
            mode = scenario["mode"]
            if mode == "mixed":
                mode = rng.choice(["subgraph", "supergraph"])
            report = engine.query(query, mode=mode).maintenance
            seen.update((entry.entry_id, entry) for entry in engine.cache.entries())
            if report is None:
                continue
            flushes += 1
            isub_oracle = oracle_index(engine.isub, engine.cache)
            isuper_oracle = oracle_index(engine.isuper, engine.cache)
            assert index_state(engine.isub) == index_state(isub_oracle)
            assert index_state(engine.isuper) == index_state(isuper_oracle)
            for evicted in report.evicted_entry_ids:
                assert seen[evicted].compiled_target is None
                assert seen[evicted].compiled_plan is None
            assert sum(e.compiled_target is not None for e in seen.values()) <= capacity
            assert sum(e.compiled_plan is not None for e in seen.values()) <= capacity
            tables = {entry.entry_id: entry.features for entry in engine.cache.entries()}
            postings = posting_lists(tables)
            isub = engine.isub
            for probe in pool:
                features = engine.method.extract_query_features(probe)
                # The candidate filters against the posting walks they replaced.
                assert set(isub.candidate_ids(features)) == oracle_at_least(
                    postings, tables, features.counts
                )
                assert set(engine.isuper.candidate_subgraphs(features)) == oracle_tally(
                    postings, tables, features.counts
                )
                for hits, oracle_hits in (
                    (
                        engine.isub.find_supergraphs(probe, features),
                        isub_oracle.find_supergraphs(probe, features),
                    ),
                    (
                        engine.isuper.find_subgraphs(probe, features),
                        isuper_oracle.find_subgraphs(probe, features),
                    ),
                ):
                    assert hits == sorted(hits)
                    assert hits == oracle_hits
        assert flushes == scenario["length"] // scenario["window_size"]

    def test_steady_state_across_1k_flushes(self):
        """Recycled slots and trimmed thresholds: nothing grows with history."""
        capacity, window = 8, 2
        rng = random.Random(7)
        maintenance = IndexMaintenance(cache_size=capacity, window_size=window)
        cache = QueryCache()
        isub = SubgraphQueryIndex()
        isuper = SupergraphQueryIndex()
        for flush in range(1000):
            for _ in range(window):
                graph = random_labeled_graph(rng, rng.randint(2, 5), 0.4, labels="ABCDEF")
                maintenance.submit(
                    PendingQuery(graph, EXTRACTOR.extract(graph), frozenset())
                )
            cache.query_counter += window
            apply_report(maintenance.flush(cache), isub, isuper)
            for index in (isub, isuper):
                # Victims free their slots before the window claims any.
                assert len(index._slots._order) <= capacity
                if flush % 100 == 99:
                    oracle = oracle_index(index, cache)
                    assert index_state(index) == index_state(oracle)
        assert len(cache) == len(isub) == len(isuper) == capacity
