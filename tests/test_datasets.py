"""Tests for the synthetic dataset generators and the registry."""

from __future__ import annotations

import random

import pytest

from repro.datasets import (
    available_datasets,
    dataset_spec,
    generate_molecule_like,
    load_dataset,
    random_connected_graph,
)
from repro.datasets.synthetic import MotifPool, generate_motif_collection
from repro.experiments.figures import summarize_dataset, table1_row

from .kernel_oracle import is_connected


class TestRandomConnectedGraph:
    def test_connected_and_sized(self):
        rng = random.Random(1)
        graph = random_connected_graph(rng, 30, 2.5, ["A", "B", "C"])
        assert graph.num_vertices == 30
        assert is_connected(graph)
        assert graph.num_edges >= 29

    def test_degree_targeting(self):
        rng = random.Random(2)
        sparse = random_connected_graph(rng, 40, 2.0, ["A"])
        dense = random_connected_graph(rng, 40, 6.0, ["A"])
        assert dense.num_edges > sparse.num_edges

    def test_invalid_arguments(self):
        rng = random.Random(3)
        with pytest.raises(ValueError):
            random_connected_graph(rng, 0, 2.0, ["A"])
        with pytest.raises(ValueError):
            random_connected_graph(rng, 5, -1.0, ["A"])

    def test_single_vertex(self):
        rng = random.Random(4)
        graph = random_connected_graph(rng, 1, 2.0, ["A"])
        assert graph.num_vertices == 1
        assert graph.num_edges == 0


class TestMotifGeneration:
    def test_motif_pool_sampling_is_skewed(self):
        rng = random.Random(5)
        pool = MotifPool(rng, 10, (3, 5), 2.0, ["A", "B"], label_skew=1.0)
        sampled = pool.sample(rng, 500)
        counts = {}
        for motif in sampled:
            counts[motif.name] = counts.get(motif.name, 0) + 1
        assert counts.get("motif0", 0) > counts.get("motif9", 0)

    def test_collection_shapes(self):
        graphs = generate_motif_collection(
            num_graphs=10,
            num_labels=5,
            num_motifs=4,
            motif_size_range=(3, 5),
            motifs_per_graph=(2, 3),
            average_degree=2.0,
            label_skew=1.0,
            extra_edge_fraction=0.0,
            seed=7,
            prefix="t",
        )
        assert len(graphs) == 10
        for graph in graphs:
            assert is_connected(graph)
            assert graph.name.startswith("t")

    def test_invalid_num_graphs(self):
        with pytest.raises(ValueError):
            generate_motif_collection(
                num_graphs=0,
                num_labels=3,
                num_motifs=2,
                motif_size_range=(3, 4),
                motifs_per_graph=(1, 2),
                average_degree=2.0,
                label_skew=1.0,
                extra_edge_fraction=0.0,
                seed=1,
                prefix="x",
            )

    def test_determinism(self):
        first = generate_molecule_like(num_graphs=5, seed=33)
        second = generate_molecule_like(num_graphs=5, seed=33)
        for a, b in zip(first, second):
            assert a == b
        third = generate_molecule_like(num_graphs=5, seed=34)
        assert any(a != b for a, b in zip(first, third))


class TestRegistry:
    def test_available_datasets(self):
        assert set(available_datasets()) == {"aids", "pdbs", "ppi", "synthetic"}

    def test_dataset_spec_lookup(self):
        spec = dataset_spec("aids")
        assert spec.paper_num_graphs == 40000
        with pytest.raises(ValueError):
            dataset_spec("chembl")

    def test_load_dataset_scaling(self):
        small = load_dataset("pdbs", scale=0.1)
        larger = load_dataset("pdbs", scale=0.3)
        assert len(larger) > len(small)

    def test_load_dataset_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("aids", scale=0)

    def test_generated_shapes_follow_spec(self):
        for name in available_datasets():
            spec = dataset_spec(name)
            database = load_dataset(name, scale=0.2)
            stats = summarize_dataset(database.graphs())
            assert stats.num_labels <= spec.default_num_labels
            low, high = spec.default_node_range
            # Assembled graphs are unions of motifs; sizes stay in the same
            # order of magnitude as the configured node range.
            assert stats.nodes_avg <= high * 2.5
            assert stats.nodes_avg >= low * 0.3

    def test_sparse_vs_dense_datasets(self):
        sparse = summarize_dataset(load_dataset("aids", scale=0.2).graphs())
        dense = summarize_dataset(load_dataset("ppi", scale=0.5).graphs())
        assert dense.average_degree > sparse.average_degree

    def test_table1_row_structure(self):
        row = table1_row("aids", scale=0.1)
        assert row["dataset"] == "aids"
        assert row["paper"]["num_graphs"] == 40000
        assert row["generated"]["num_graphs"] > 0
