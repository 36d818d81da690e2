"""Cross-method tests: the filter-then-verify contract.

For every base method the filtering stage must be complete (no false
negatives: every true answer appears in the candidate set) and the
end-to-end answers must coincide with brute-force verification.  The same is
checked for supergraph queries.
"""

from __future__ import annotations

import random

import pytest

from repro.graphs import GraphDatabase
from repro.isomorphism import is_subgraph_isomorphic
from repro.methods import available_methods, create_method

from .conftest import (
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
    oracle_subgraph_candidates,
    oracle_supergraph_candidates,
    random_labeled_graph,
)

METHOD_NAMES = ("scan", "ggsx", "grapes", "grapes6", "ctindex")


def small_database() -> GraphDatabase:
    rng = random.Random(42)
    graphs = [
        random_labeled_graph(rng, rng.randint(4, 9), 0.25, labels="ABC", name=f"g{i}")
        for i in range(12)
    ]
    graphs.append(make_cycle_graph("ABC", name="tri"))
    graphs.append(make_path_graph("ABCA", name="p4"))
    graphs.append(make_star_graph("A", "BBC", name="star"))
    return GraphDatabase.from_graphs(graphs, name="small")


def small_queries() -> list:
    rng = random.Random(7)
    queries = [
        make_path_graph("AB", name="q_ab"),
        make_path_graph("ABC", name="q_abc"),
        make_cycle_graph("ABC", name="q_tri"),
        make_star_graph("A", "BB", name="q_star"),
    ]
    queries.extend(
        random_labeled_graph(rng, rng.randint(2, 5), 0.3, labels="ABC", name=f"q{i}")
        for i in range(6)
    )
    return queries


def brute_force_subgraph_answers(database, query):
    return {gid for gid, graph in database.items() if is_subgraph_isomorphic(query, graph)}


def brute_force_supergraph_answers(database, query):
    return {gid for gid, graph in database.items() if is_subgraph_isomorphic(graph, query)}


@pytest.fixture(scope="module")
def database():
    return small_database()


@pytest.fixture(scope="module", params=METHOD_NAMES)
def built_method(request, database):
    method = create_method(request.param, max_path_length=3) if request.param in (
        "ggsx",
        "grapes",
        "grapes6",
    ) else create_method(request.param)
    method.build_index(database)
    return method


class TestFactory:
    def test_available_methods(self):
        assert set(available_methods()) == set(METHOD_NAMES)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            create_method("gindex")

    def test_query_before_index_fails(self):
        method = create_method("ggsx")
        with pytest.raises(RuntimeError):
            method.query(make_path_graph("AB"))


class TestSubgraphQueries:
    def test_no_false_negatives_in_candidates(self, built_method, database):
        for query in small_queries():
            truth = brute_force_subgraph_answers(database, query)
            candidates = built_method.filter_candidates(query)
            assert truth <= set(candidates), built_method.name

    def test_answers_match_brute_force(self, built_method, database):
        for query in small_queries():
            truth = brute_force_subgraph_answers(database, query)
            result = built_method.query(query)
            assert result.answers == truth, built_method.name

    def test_result_accounting(self, built_method):
        query = make_path_graph("ABC", name="acc")
        result = built_method.query(query)
        assert result.num_candidates >= result.num_answers
        assert result.num_false_positives == result.num_candidates - result.num_answers
        assert result.num_isomorphism_tests <= result.num_candidates
        assert result.total_seconds >= result.verify_seconds

    def test_index_size_reported(self, built_method):
        assert built_method.index_size_bytes() >= 0


class TestSupergraphQueries:
    def test_no_false_negatives_in_candidates(self, built_method, database):
        for query in small_queries():
            truth = brute_force_supergraph_answers(database, query)
            candidates = built_method.filter_supergraph_candidates(query)
            assert truth <= set(candidates), built_method.name

    def test_answers_match_brute_force(self, built_method, database):
        for query in small_queries():
            truth = brute_force_supergraph_answers(database, query)
            result = built_method.supergraph_query(query)
            assert result.answers == truth, built_method.name


class TestFiltersMatchOracles:
    """The bitmap filters keep exactly the graphs the posting walk and the
    per-graph loops they replaced kept — equality, not just completeness."""

    @staticmethod
    def probes(database):
        rng = random.Random(11)
        larger = [
            random_labeled_graph(rng, rng.randint(6, 12), 0.3, labels="ABC") for _ in range(8)
        ]
        return small_queries() + larger + [graph for _, graph in database.items()]

    def test_subgraph_candidates(self, built_method, database):
        for query in self.probes(database):
            features = built_method.extract_query_features(query)
            candidates = built_method.filter_candidates(query, features=features)
            if built_method.name == "scan":
                continue
            if built_method.name == "ctindex":
                wanted = built_method.fingerprint(features)
                expected = {
                    graph_id
                    for graph_id in database.ids()
                    if built_method.graph_bitmap(graph_id) & wanted == wanted
                }
            else:
                expected = oracle_subgraph_candidates(built_method, features)
            assert set(candidates) == expected, built_method.name

    def test_supergraph_candidates(self, built_method, database):
        nonempty = 0
        for query in self.probes(database):
            features = built_method.extract_query_features(query)
            candidates = built_method.filter_supergraph_candidates(query, features=features)
            expected = oracle_supergraph_candidates(built_method, query, features)
            assert set(candidates) == expected, built_method.name
            nonempty += bool(expected)
        assert nonempty
