"""Round-trip and error-handling tests for graph serialization."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.graphs import (
    LabeledGraph,
    GraphError,
    graph_from_dict,
    graph_to_dict,
    graphs_from_gfu,
    graphs_to_gfu,
    read_gfu,
    read_jsonl,
    write_gfu,
    write_jsonl,
)

from .conftest import labeled_graphs, make_cycle_graph, make_path_graph, make_star_graph


def sample_graphs():
    return [
        make_path_graph("ABC", name="p3"),
        make_cycle_graph("ABCD", name="c4"),
        make_star_graph("A", "BBC", name="s3"),
    ]


class TestGFU:
    def test_round_trip_string(self):
        originals = sample_graphs()
        text = graphs_to_gfu(originals)
        restored = graphs_from_gfu(text)
        assert len(restored) == len(originals)
        for original, copy in zip(originals, restored):
            assert copy.name == original.name
            assert copy.num_vertices == original.num_vertices
            assert copy.num_edges == original.num_edges
            assert copy.label_histogram() == {
                str(k): v for k, v in original.label_histogram().items()
            }

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "graphs.gfu"
        write_gfu(sample_graphs(), path)
        assert len(read_gfu(path)) == 3

    def test_empty_collection(self):
        assert graphs_to_gfu([]) == ""
        assert graphs_from_gfu("") == []

    def test_missing_header(self):
        with pytest.raises(GraphError):
            graphs_from_gfu("3\nA\nB\nC\n0\n")

    def test_bad_vertex_count(self):
        with pytest.raises(GraphError):
            graphs_from_gfu("#g\nnot-a-number\n")

    def test_truncated_labels(self):
        with pytest.raises(GraphError):
            graphs_from_gfu("#g\n3\nA\nB\n")

    def test_bad_edge_line(self):
        with pytest.raises(GraphError):
            graphs_from_gfu("#g\n2\nA\nB\n1\n0\n")

    @given(labeled_graphs(max_vertices=6))
    def test_gfu_round_trip_preserves_structure(self, graph):
        restored = graphs_from_gfu(graphs_to_gfu([graph]))[0]
        assert restored.num_vertices == graph.num_vertices
        assert restored.num_edges == graph.num_edges
        assert restored.degree_sequence() == graph.degree_sequence()


class TestJSONL:
    def test_dict_round_trip(self):
        graph = make_cycle_graph("ABC", name="tri")
        restored = graph_from_dict(graph_to_dict(graph))
        assert restored == graph

    def test_dict_round_trip_with_edge_labels(self):
        labeled = LabeledGraph(name="e")
        labeled.add_vertex(0, "A")
        labeled.add_vertex(1, "B")
        labeled.add_edge(0, 1, label="double")
        restored = graph_from_dict(graph_to_dict(labeled))
        assert restored.edge_label(0, 1) == "double"

    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "graphs.jsonl"
        originals = sample_graphs()
        write_jsonl(originals, path)
        restored = read_jsonl(path)
        assert [g.name for g in restored] == [g.name for g in originals]
        assert all(a == b for a, b in zip(restored, originals))

    def test_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "graphs.jsonl"
        write_jsonl(sample_graphs(), path)
        content = path.read_text() + "\n\n"
        path.write_text(content)
        assert len(read_jsonl(path)) == 3

    @given(labeled_graphs(max_vertices=6))
    def test_jsonl_round_trip_is_exact(self, graph):
        assert graph_from_dict(graph_to_dict(graph)) == graph
