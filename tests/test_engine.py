"""Integration tests for the iGQ engine (correctness, optimal cases, modes)."""

from __future__ import annotations

import random

import pytest

from repro.core import IGQ, EngineConfig
from repro.graphs import GraphDatabase
from repro.isomorphism import is_subgraph_isomorphic
from repro.isomorphism.cost import isomorphism_test_cost
from repro.methods import CTIndexMethod, GGSXMethod, GrapesMethod, ScanMethod

from .conftest import (
    engine_config,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
    random_labeled_graph,
)


def build_database(seed=21, count=14) -> GraphDatabase:
    rng = random.Random(seed)
    graphs = [
        random_labeled_graph(rng, rng.randint(4, 9), 0.25, labels="ABC", name=f"g{i}")
        for i in range(count)
    ]
    graphs.append(make_cycle_graph("ABC", name="tri"))
    graphs.append(make_star_graph("A", "BBC", name="star"))
    return GraphDatabase.from_graphs(graphs)


def make_queries(seed=3, count=40):
    rng = random.Random(seed)
    queries = []
    for index in range(count):
        queries.append(
            random_labeled_graph(
                rng, rng.randint(2, 6), 0.3, labels="ABC", name=f"q{index}"
            )
        )
    return queries


def subgraph_truth(database, query):
    return {gid for gid, graph in database.items() if is_subgraph_isomorphic(query, graph)}


def supergraph_truth(database, query):
    return {gid for gid, graph in database.items() if is_subgraph_isomorphic(graph, query)}


class TestConstruction:
    def test_requires_a_component(self):
        with pytest.raises(ValueError):
            IGQ(GGSXMethod(max_path_length=2), EngineConfig(enable_isub=False, enable_isuper=False))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            IGQ(GGSXMethod(max_path_length=2), EngineConfig(mode="bidirectional"))

    def test_query_before_index(self):
        engine = IGQ(GGSXMethod(max_path_length=2))
        with pytest.raises(RuntimeError):
            engine.query(make_path_graph("AB"))

    def test_mode_guards(self):
        engine = IGQ(GGSXMethod(max_path_length=2), EngineConfig(mode="subgraph"))
        engine.build_index(build_database())
        with pytest.raises(ValueError, match=r"EngineConfig\(mode='mixed'\)"):
            engine.supergraph_query(make_path_graph("AB"))

    def test_attach_prebuilt_requires_built_method(self):
        engine = IGQ(GGSXMethod(max_path_length=2))
        with pytest.raises(RuntimeError):
            engine.attach_prebuilt()

    def test_name_and_repr(self):
        engine = IGQ(GGSXMethod(max_path_length=2))
        assert engine.name == "igq_ggsx"
        assert "ggsx" in repr(engine)


@pytest.mark.parametrize(
    "method_factory",
    [
        lambda: GGSXMethod(max_path_length=3),
        lambda: GrapesMethod(max_path_length=3),
        lambda: CTIndexMethod(tree_max_size=3, cycle_max_length=4),
        lambda: ScanMethod(),
    ],
    ids=["ggsx", "grapes", "ctindex", "scan"],
)
class TestCorrectness:
    def test_answers_always_match_brute_force(self, method_factory):
        database = build_database()
        method = method_factory()
        engine = IGQ(method, engine_config(10, 3))
        engine.build_index(database)
        for query in make_queries(count=35):
            result = engine.query(query)
            assert result.answers == subgraph_truth(database, query), query.name

    def test_repeated_stream_has_no_false_results(self, method_factory):
        """Lemmas 1 and 2: no false positives, no false negatives, even when
        the same queries recur and the cache is heavily reused."""
        database = build_database()
        method = method_factory()
        engine = IGQ(method, engine_config(8, 2))
        engine.build_index(database)
        queries = make_queries(count=12)
        for _ in range(3):  # replay the same queries: exact-hit path exercised
            for query in queries:
                result = engine.query(query)
                truth = subgraph_truth(database, query)
                assert result.answers == truth


class TestPreparedQueries:
    def test_a_query_grown_in_place_is_prepared_again(self):
        """``IGQ.prepare`` memoises under the query's ``ordered_key``: a
        query object grown after its first run is flattened and extracted
        again, not answered with its old features."""
        database = GraphDatabase.from_graphs(
            [make_path_graph("ABC", name="p"), make_cycle_graph("ABC", name="c")]
        )
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(10, 3))
        engine.build_index(database)
        scan = ScanMethod()
        scan.build_index(database)
        query = make_path_graph("ABC")
        assert engine.query(query).answers == scan.query(query).answers == {"c", "p"}
        query.add_edge(2, 0)
        assert engine.query(query).answers == scan.query(query).answers == {"c"}


class TestOptimalCases:
    def test_exact_repeat_skips_verification(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(10, 1))
        engine.build_index(database)
        query = make_path_graph("ABC", name="repeat")
        first = engine.query(query)
        second = engine.query(query.copy(name="repeat-again"))
        assert second.exact_hit
        assert second.num_isomorphism_tests == 0
        assert second.answers == first.answers

    def test_empty_answer_subquery_short_circuits(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(10, 1))
        engine.build_index(database)
        # A query with a label that exists nowhere: empty answer, cached.
        impossible = make_path_graph("AZ", name="impossible")
        first = engine.query(impossible)
        assert first.answers == set()
        # A supergraph of the impossible query: Isuper finds the cached empty
        # answer and proves the result empty without any isomorphism test.
        bigger = make_path_graph("AZB", name="bigger")
        second = engine.query(bigger)
        assert second.answers == set()
        assert second.num_isomorphism_tests == 0
        assert second.verification_skipped

    def test_subgraph_of_cached_query_reuses_answers(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(10, 1))
        engine.build_index(database)
        big_query = make_path_graph("ABC", name="big")
        engine.query(big_query)
        small_query = make_path_graph("AB", name="small")
        result = engine.query(small_query)
        assert result.num_sub_hits >= 1
        assert result.guaranteed_answers  # answers inherited without testing
        assert result.answers == subgraph_truth(database, small_query)


class TestSupergraphMode:
    def test_supergraph_answers_match_brute_force(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(8, 2, mode="supergraph"))
        engine.build_index(database)
        rng = random.Random(17)
        for index in range(25):
            query = random_labeled_graph(
                rng, rng.randint(4, 9), 0.35, labels="ABC", name=f"sq{index}"
            )
            result = engine.supergraph_query(query)
            assert result.answers == supergraph_truth(database, query), query.name

    def test_generic_query_dispatches_by_mode(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), EngineConfig(mode="supergraph"))
        engine.build_index(database)
        query = make_star_graph("A", "BBC")
        assert engine.query(query).answers == supergraph_truth(database, query)


class TestComponentsAndMetadata:
    def test_single_component_configurations_stay_correct(self):
        database = build_database()
        for flags in ((True, False), (False, True)):
            engine = IGQ(
                GGSXMethod(max_path_length=3),
                engine_config(8, 2, enable_isub=flags[0], enable_isuper=flags[1]),
            )
            engine.build_index(database)
            for query in make_queries(count=20):
                assert engine.query(query).answers == subgraph_truth(database, query)

    def test_hits_update_metadata(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(10, 1))
        engine.build_index(database)
        engine.query(make_path_graph("ABC", name="seed"))
        engine.query(make_path_graph("AB", name="child"))
        hit_entries = [entry for entry in engine.cache.entries() if entry.hits > 0]
        assert hit_entries
        assert all(entry.alleviated_cost >= 0 for entry in hit_entries)

    @pytest.mark.parametrize("supergraph", [False, True])
    def test_credits_equal_the_per_graph_cost_sum(self, supergraph):
        """H, R and C bit for bit as summing ``isomorphism_test_cost`` graph
        by graph in id order gives (the policy and the WAL compare floats)."""
        database = build_database()
        mode = "supergraph" if supergraph else "subgraph"
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(12, 2, mode=mode))
        engine.build_index(database)
        num_labels = max(database.num_labels, 1)
        credited = 0
        for query in make_queries(count=40) * 2:
            before = {
                entry.entry_id: (entry.hits, entry.removed, entry.alleviated_cost)
                for entry in engine.cache.entries()
            }
            plan = engine.plan_query(query, supergraph=supergraph)
            candidates = set(engine.method.id_space.to_ids(plan.candidate_mask))
            expected = {}
            guaranteed, restricting = plan.sub_hits, plan.super_hits
            if supergraph:
                guaranteed, restricting = restricting, guaranteed
            roles = [(engine.cache.get(entry_id), True) for entry_id in guaranteed]
            roles += [(engine.cache.get(entry_id), False) for entry_id in restricting]
            for entry, guarantees in roles:
                answer = set(entry.answer)
                freed = candidates & answer if guarantees else candidates - answer
                cost = 0.0
                for graph_id in database.ids():
                    if graph_id in freed:
                        size = database.get(graph_id).num_vertices
                        if supergraph:
                            cost += isomorphism_test_cost(size, query.num_vertices, num_labels)
                        else:
                            cost += isomorphism_test_cost(query.num_vertices, size, num_labels)
                hits, removed, total = expected.get(entry.entry_id, before[entry.entry_id])
                expected[entry.entry_id] = (hits + 1, removed + len(freed), total + cost)
            for entry_id, triple in before.items():
                entry = engine.cache.get(entry_id)
                got = (entry.hits, entry.removed, entry.alleviated_cost)
                assert got == expected.get(entry_id, triple)
                credited += entry_id in expected and got[1] > 0
            engine.complete_query(plan, engine.verify_plan(plan), 0.0)
        assert credited

    def test_cache_respects_capacity(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(5, 2))
        engine.build_index(database)
        for query in make_queries(count=30):
            engine.query(query)
        assert len(engine.cache) <= 5

    def test_maintenance_report_returned_on_flush(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(6, 2))
        engine.build_index(database)
        first = engine.query(make_path_graph("AB", name="one"))
        second = engine.query(make_path_graph("BC", name="two"))
        assert first.maintenance is None
        assert second.maintenance is not None
        assert second.maintenance.inserted == 2

    def test_index_size_grows_with_cached_queries(self):
        database = build_database()
        engine = IGQ(GGSXMethod(max_path_length=3), engine_config(10, 1))
        engine.build_index(database)
        empty_size = engine.index_size_bytes()
        for query in make_queries(count=6):
            engine.query(query)
        assert engine.index_size_bytes() > empty_size
