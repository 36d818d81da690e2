"""Property-based end-to-end tests of the iGQ theorems (Lemmas 1–4).

Hypothesis drives randomized graph databases and query streams through an
iGQ engine stacked on a base method, and the answers are compared against
brute-force subgraph isomorphism over the whole database: Theorem 1/2 say
the two must always coincide, regardless of cache contents, window timing or
replacement decisions.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IGQ
from repro.graphs import GraphDatabase
from repro.isomorphism import is_subgraph_isomorphic
from repro.methods import GGSXMethod, GrapesMethod

from .conftest import engine_config, labeled_graphs


@st.composite
def database_and_queries(draw):
    graphs = draw(
        st.lists(labeled_graphs(max_vertices=6), min_size=2, max_size=6)
    )
    queries = draw(
        st.lists(labeled_graphs(max_vertices=4), min_size=1, max_size=8)
    )
    database = GraphDatabase.from_graphs(
        [graph.relabeled(name=f"g{index}") for index, graph in enumerate(graphs)]
    )
    return database, [query.relabeled(name=f"q{index}") for index, query in enumerate(queries)]


def brute_force(database, query):
    return {gid for gid, graph in database.items() if is_subgraph_isomorphic(query, graph)}


def brute_force_super(database, query):
    return {gid for gid, graph in database.items() if is_subgraph_isomorphic(graph, query)}


class TestSubgraphTheorems:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(database_and_queries())
    def test_igq_ggsx_answers_equal_brute_force(self, payload):
        database, queries = payload
        engine = IGQ(GGSXMethod(max_path_length=2), engine_config(4, 2))
        engine.build_index(database)
        for query in queries:
            result = engine.query(query)
            truth = brute_force(database, query)
            # Lemma 1: no false positives.
            assert result.answers <= truth
            # Lemma 2: no false negatives.
            assert truth <= result.answers

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(database_and_queries())
    def test_igq_grapes_answers_equal_brute_force(self, payload):
        database, queries = payload
        engine = IGQ(GrapesMethod(max_path_length=2), engine_config(4, 2))
        engine.build_index(database)
        for query in queries:
            assert engine.query(query).answers == brute_force(database, query)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(database_and_queries())
    def test_guaranteed_answers_are_true_answers(self, payload):
        """The graphs iGQ adds without verification (formula (4)) are correct."""
        database, queries = payload
        engine = IGQ(GGSXMethod(max_path_length=2), engine_config(4, 1))
        engine.build_index(database)
        for query in queries:
            result = engine.query(query)
            truth = brute_force(database, query)
            assert result.guaranteed_answers <= truth


class TestSupergraphTheorems:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(database_and_queries())
    def test_supergraph_mode_equals_brute_force(self, payload):
        database, queries = payload
        engine = IGQ(GGSXMethod(max_path_length=2), engine_config(4, 2, mode="supergraph"))
        engine.build_index(database)
        for query in queries:
            assert engine.query(query).answers == brute_force_super(database, query)
