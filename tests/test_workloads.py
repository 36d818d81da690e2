"""Tests for the popularity samplers and the query workload generator."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.workloads import (
    DEFAULT_QUERY_SIZES,
    DriftingZipfSampler,
    QueryGenerator,
    UniformSampler,
    WorkloadSpec,
    ZipfSampler,
    create_sampler,
    drifting_stream,
    standard_workloads,
)

from .conftest import make_path_graph
from .kernel_oracle import is_connected
from repro.datasets import load_dataset


class TestSamplers:
    def test_uniform_probabilities(self):
        sampler = UniformSampler(4)
        assert sampler.probability(0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            sampler.probability(4)

    def test_uniform_sampling_range(self):
        sampler = UniformSampler(5)
        rng = random.Random(1)
        assert all(0 <= sampler.sample(rng) < 5 for _ in range(200))

    def test_zipf_probabilities_decreasing_and_normalised(self):
        sampler = ZipfSampler(10, alpha=1.4)
        probabilities = [sampler.probability(rank) for rank in range(10)]
        assert probabilities == sorted(probabilities, reverse=True)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_zipf_follows_power_law(self):
        sampler = ZipfSampler(100, alpha=2.0)
        # p(1)/p(2) should be (2/1)^alpha = 4.
        assert sampler.probability(0) / sampler.probability(1) == pytest.approx(4.0)

    def test_zipf_skew_effect_on_samples(self):
        rng = random.Random(5)
        weak = ZipfSampler(50, alpha=1.1)
        strong = ZipfSampler(50, alpha=2.4)
        weak_top = sum(1 for _ in range(2000) if weak.sample(rng) == 0)
        strong_top = sum(1 for _ in range(2000) if strong.sample(rng) == 0)
        assert strong_top > weak_top

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(5, alpha=0)
        with pytest.raises(ValueError):
            UniformSampler(0)

    def test_create_sampler(self):
        assert isinstance(create_sampler("uniform", 3), UniformSampler)
        assert isinstance(create_sampler("uni", 3), UniformSampler)
        assert isinstance(create_sampler("zipf", 3, alpha=2.0), ZipfSampler)
        with pytest.raises(ValueError):
            create_sampler("gaussian", 3)


class TestDriftingZipf:
    def test_alpha_drift_sharpens_the_distribution(self):
        sampler = DriftingZipfSampler(50, alpha=1.1, alpha_end=2.4, drift_steps=100)
        p_start = sampler.probability(0)
        rng = random.Random(3)
        for _ in range(100):
            sampler.sample(rng)
        # After the drift window the exponent sits at alpha_end, so the top
        # rank concentrates more mass than it did at the start.
        assert sampler.probability(0) > p_start

    def test_rotation_moves_the_hot_set(self):
        sampler = DriftingZipfSampler(20, alpha=2.0, rotate_every=10, rotate_stride=3)
        assert sampler.probability(0) > sampler.probability(3)
        rng = random.Random(4)
        for _ in range(10):
            sampler.sample(rng)
        # One rotation later the most popular identity is rank 3; the
        # popularity *shape* is still the same Zipf.
        assert sampler.probability(3) > sampler.probability(0)
        assert sampler.probability(3) == pytest.approx(
            ZipfSampler(20, alpha=2.0).probability(0)
        )

    def test_no_drift_arguments_means_static_zipf(self):
        drifting = DriftingZipfSampler(30, alpha=1.4)
        static = ZipfSampler(30, alpha=1.4)
        rng_a, rng_b = random.Random(11), random.Random(11)
        draws = [drifting.sample(rng_a) for _ in range(50)]
        reference = [static.sample(rng_b) for _ in range(50)]
        assert draws == reference

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="drift_steps"):
            DriftingZipfSampler(10, alpha_end=2.0)
        with pytest.raises(ValueError, match="drift_steps"):
            DriftingZipfSampler(10, alpha_end=2.0, drift_steps=0)
        with pytest.raises(ValueError, match="rotate_every"):
            DriftingZipfSampler(10, rotate_every=0)
        with pytest.raises(ValueError, match="resolution"):
            DriftingZipfSampler(10, resolution=0)

    def test_create_sampler_drift_kinds(self):
        for kind in ("zipf-drift", "drifting-zipf"):
            sampler = create_sampler(
                kind, 10, alpha=1.2, alpha_end=2.0, drift_steps=64, rotate_every=8
            )
            assert isinstance(sampler, DriftingZipfSampler)
            assert sampler.alpha_end == 2.0
        with pytest.raises(ValueError, match="drift"):
            create_sampler("zipf", 10, rotate_every=8)
        with pytest.raises(ValueError, match="drift"):
            create_sampler("uniform", 10, alpha_end=2.0)

    def test_drifting_stream_rotates_the_popular_items(self):
        pool = [make_path_graph("AB") for _ in range(20)]
        stream = drifting_stream(
            pool, 400, alpha=2.0, rotate_every=100, rotate_stride=10, seed=13
        )
        assert len(stream) == 400
        assert all(graph in pool for graph in stream)
        # Deterministic for a given seed.
        again = drifting_stream(
            pool, 400, alpha=2.0, rotate_every=100, rotate_stride=10, seed=13
        )
        assert [id(g) for g in stream] == [id(g) for g in again]
        # The early hot item differs from the late one: rotation moved the
        # popularity peak while the stream ran.
        early = Counter(id(g) for g in stream[:100]).most_common(1)[0][0]
        late = Counter(id(g) for g in stream[300:]).most_common(1)[0][0]
        assert early != late

    def test_generator_accepts_drifting_graph_distribution(self):
        database = load_dataset("synthetic", scale=0.12)
        spec = WorkloadSpec(
            name="drift",
            graph_distribution="zipf-drift",
            alpha=1.2,
            alpha_end=2.2,
            drift_steps=40,
            rotate_every=16,
            rotate_stride=4,
            seed=3,
        )
        queries = QueryGenerator(database, spec).generate(20)
        assert len(queries) == 20
        assert all(is_connected(query) for query in queries)
        description = spec.describe()
        assert description["alpha_end"] == 2.2
        assert description["rotate_every"] == 16
        assert spec.drift_kwargs() == {
            "alpha_end": 2.2,
            "drift_steps": 40,
            "rotate_every": 16,
            "rotate_stride": 4,
        }


class TestWorkloadSpec:
    def test_standard_workloads(self):
        names = [spec.name for spec in standard_workloads()]
        assert names == ["uni-uni", "uni-zipf", "zipf-uni", "zipf-zipf"]

    def test_describe(self):
        spec = WorkloadSpec(name="zipf-uni", graph_distribution="zipf", alpha=2.0)
        description = spec.describe()
        assert description["name"] == "zipf-uni"
        assert description["alpha"] == 2.0
        assert description["query_sizes"] == list(DEFAULT_QUERY_SIZES)


class TestQueryGenerator:
    @pytest.fixture(scope="class")
    def database(self):
        return load_dataset("aids", scale=0.05)

    def test_empty_database_rejected(self):
        from repro.graphs import GraphDatabase

        with pytest.raises(ValueError):
            QueryGenerator(GraphDatabase(), WorkloadSpec(name="uni-uni"))

    def test_query_sizes_come_from_spec(self, database):
        spec = WorkloadSpec(name="uni-uni", query_sizes=(4, 8), seed=1)
        queries = QueryGenerator(database, spec).generate(30)
        assert {query.num_edges for query in queries} <= {4, 8}

    def test_queries_are_connected_and_named(self, database):
        spec = WorkloadSpec(name="zipf-zipf", graph_distribution="zipf", node_distribution="zipf")
        queries = QueryGenerator(database, spec).generate(20)
        for index, query in enumerate(queries):
            assert is_connected(query)
            assert query.name == f"q{index}_e{query.num_edges}"
            assert query.num_edges >= 1

    def test_queries_are_subgraphs_of_some_dataset_graph(self, database):
        from repro.isomorphism import is_subgraph_isomorphic

        spec = WorkloadSpec(name="uni-uni", seed=9, query_sizes=(4, 8))
        queries = QueryGenerator(database, spec).generate(10)
        for query in queries:
            assert any(
                is_subgraph_isomorphic(query, graph) for graph in database.graphs()
            ), query.name

    def test_determinism(self, database):
        spec = WorkloadSpec(name="zipf-uni", graph_distribution="zipf", seed=13)
        first = QueryGenerator(database, spec).generate(15)
        second = QueryGenerator(database, spec).generate(15)
        for a, b in zip(first, second):
            assert a == b

    def test_different_seeds_differ(self, database):
        base = WorkloadSpec(name="uni-uni", seed=1)
        other = WorkloadSpec(name="uni-uni", seed=2)
        first = QueryGenerator(database, base).generate(10)
        second = QueryGenerator(database, other).generate(10)
        assert any(a != b for a, b in zip(first, second))

    def test_zipf_graph_selection_is_skewed(self):
        # With a strongly skewed graph distribution most queries come from a
        # few graphs, which shows up as many repeated (isomorphic) queries.
        database = load_dataset("aids", scale=0.05)
        spec = WorkloadSpec(
            name="zipf-zipf",
            graph_distribution="zipf",
            node_distribution="zipf",
            alpha=2.4,
            query_sizes=(4,),
            seed=3,
        )
        queries = QueryGenerator(database, spec).generate(40)
        signatures = Counter(query.invariant_signature() for query in queries)
        assert signatures.most_common(1)[0][1] >= 3

    def test_tiny_graph_fallback(self):
        from repro.graphs import GraphDatabase

        database = GraphDatabase.from_graphs([make_path_graph("AB", name="tiny")])
        spec = WorkloadSpec(name="uni-uni", query_sizes=(20,), seed=4)
        queries = QueryGenerator(database, spec).generate(3)
        # The single dataset graph has only one edge; the generator falls
        # back to the largest extractable query instead of failing.
        assert all(query.num_edges == 1 for query in queries)
