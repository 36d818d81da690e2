"""Unit tests for GraphDatabase and dataset statistics."""

from __future__ import annotations

import pytest

from repro.experiments.figures import summarize_dataset
from repro.graphs import GraphDatabase, GraphError

from .conftest import make_cycle_graph, make_path_graph


class TestGraphDatabase:
    def test_from_graphs_uses_names_as_ids(self, tiny_database):
        assert "g_tri" in tiny_database
        assert tiny_database.get("g_tri").num_edges == 3

    def test_from_graphs_generates_ids_for_unnamed(self):
        database = GraphDatabase.from_graphs([make_path_graph("AB"), make_path_graph("BC")])
        assert database.ids() == ["g0", "g1"]

    def test_duplicate_id_rejected(self):
        database = GraphDatabase()
        database.add("g", make_path_graph("AB"))
        with pytest.raises(GraphError):
            database.add("g", make_path_graph("CD"))

    def test_get_unknown_id(self, tiny_database):
        with pytest.raises(GraphError):
            tiny_database.get("nope")

    def test_len_iteration_and_items(self, tiny_database):
        assert len(tiny_database) == 6
        assert set(iter(tiny_database)) == set(tiny_database.ids())
        assert {gid for gid, _ in tiny_database.items()} == set(tiny_database.ids())
        assert len(list(tiny_database.graphs())) == 6

    def test_label_universe(self, tiny_database):
        assert tiny_database.labels() == {"A", "B", "C", "D"}
        assert tiny_database.num_labels == 4

    def test_repr(self, tiny_database):
        assert "graphs=6" in repr(tiny_database)


class TestDatasetStatistics:
    def test_summary_of_known_collection(self):
        graphs = [make_path_graph("AB"), make_cycle_graph("ABC")]
        stats = summarize_dataset(graphs)
        assert stats.num_graphs == 2
        assert stats.num_labels == 3
        assert stats.nodes_avg == pytest.approx(2.5)
        assert stats.nodes_max == 3
        assert stats.edges_avg == pytest.approx(2.0)
        assert stats.edges_max == 3
        # total degree = 2*(1+3) = 8 over 5 vertices
        assert stats.average_degree == pytest.approx(8 / 5)

    def test_summary_of_empty_collection(self):
        stats = summarize_dataset([])
        assert stats.num_graphs == 0
        assert stats.average_degree == 0.0
        assert stats.nodes_max == 0

    def test_as_row_keys(self):
        stats = summarize_dataset([make_path_graph("AB")])
        row = stats.as_row()
        assert set(row) == {
            "num_labels",
            "num_graphs",
            "avg_degree",
            "nodes_avg",
            "nodes_std",
            "nodes_max",
            "edges_avg",
            "edges_std",
            "edges_max",
        }

    def test_std_zero_for_single_graph(self):
        stats = summarize_dataset([make_path_graph("ABCD")])
        assert stats.nodes_std == 0.0
        assert stats.edges_std == 0.0
