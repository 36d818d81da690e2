"""Tests for the sharded query cache and its replicas.

Three contracts:

* **Routing** — an entry's home shard is a hash of its feature counts,
  computed once at insert: deterministic (independent of
  ``PYTHONHASHSEED``), stable under insert/evict churn, and shared by
  isomorphic (relabeled) copies.
* **Equivalence** — ``shards>1`` is byte-identical to ``shards=1`` (one
  replica updated by the same flushes): answers,
  per-query accounting, containment-test statistics, cache contents and
  replacement metadata.
* **Lifecycle** — replicas hold the cache entries themselves, so an entry
  is compiled at most once per direction and every eviction path
  releases it.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import IGQ, EngineConfig, ShardConfig
from repro.core.placement import home_shard
from repro.datasets.registry import load_dataset
from repro.features import FeatureExtractor
from repro.graphs import LabeledGraph
from repro.methods import create_method
from repro.workloads.generator import QueryGenerator, WorkloadSpec
from repro.workloads.zipf import create_sampler

from . import kernel_oracle
from .conftest import engine_config, random_labeled_graph

EXTRACTOR = FeatureExtractor(max_path_length=3)


@pytest.fixture(scope="module")
def small_synthetic():
    return load_dataset("synthetic", scale=0.12)


@pytest.fixture(scope="module")
def zipf_stream(small_synthetic):
    spec = WorkloadSpec(
        name="zipf", graph_distribution="zipf", node_distribution="zipf",
        alpha=1.2, seed=5,
    )
    pool = QueryGenerator(small_synthetic, spec).generate(12)
    rng = random.Random(6)
    sampler = create_sampler("zipf", len(pool), alpha=1.2)
    return [pool[sampler.sample(rng)] for _ in range(48)]


def engine_fingerprint(engine, results):
    """Everything the equivalence contract compares, as one tuple."""
    answers = [tuple(sorted(map(repr, result.answers))) for result in results]
    accounting = [
        (
            result.num_isomorphism_tests,
            result.num_sub_hits,
            result.num_super_hits,
            result.exact_hit,
            result.verification_skipped,
        )
        for result in results
    ]
    cache_state = sorted(
        (
            entry.entry_id,
            entry.graph.name,
            tuple(sorted(map(repr, entry.answer))),
            entry.hits,
            entry.removed,
            round(entry.alleviated_cost, 9),
            entry.added_at,
        )
        for entry in engine.cache.entries()
    )
    igq_stats = engine.igq_verifier.stats
    method_stats = engine.method.verifier.stats
    return (
        answers,
        accounting,
        cache_state,
        (igq_stats.tests, igq_stats.positives, igq_stats.negatives),
        (method_stats.tests, method_stats.positives, method_stats.negatives),
    )


def config(**shard_fields) -> EngineConfig:
    """The suite's engine config (C=10, W=3) with the given shard section."""
    return engine_config(10, 3, shard=ShardConfig(**shard_fields))


def run_engine(database, stream, **shard_fields):
    method = create_method("ggsx", max_path_length=3)
    engine = IGQ(method, config(**shard_fields))
    engine.build_index(database)
    results = [engine.query(query) for query in stream]
    fingerprint = engine_fingerprint(engine, results)
    return engine, fingerprint


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
#: CT-Index's feature class: trees and cycles, coded like paths
TREE_EXTRACTOR = FeatureExtractor(kind="trees_cycles", tree_max_size=3, cycle_max_length=4)

REPO_ROOT = Path(__file__).resolve().parent.parent

_ROUTING_CHILD = """
import random
from repro.core.placement import home_shard
from repro.features import FeatureExtractor
from tests.conftest import random_labeled_graph
rng = random.Random(5)
graphs = [random_labeled_graph(rng, rng.randint(2, 7), 0.4) for _ in range(40)]
for extractor in (FeatureExtractor(max_path_length=3), FeatureExtractor(kind="trees_cycles")):
    print([home_shard(extractor.extract(graph), 7) for graph in graphs])
"""


def shuffled_twin(graph, rng):
    """An isomorphic copy with fresh vertex ids inserted in another order."""
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    mapping = {old: f"t{new}" for new, old in enumerate(vertices)}
    twin = LabeledGraph()
    for old in vertices:
        twin.add_vertex(mapping[old], graph.label(old))
    for u, v in graph.edges():
        twin.add_edge(mapping[u], mapping[v])
    return twin


class TestRouting:
    def test_stable_and_in_range(self):
        rng = random.Random(7)
        graphs = [random_labeled_graph(rng, rng.randint(2, 6), 0.4) for _ in range(50)]
        for extractor in (EXTRACTOR, TREE_EXTRACTOR):
            for num_shards in (1, 2, 3, 8):
                shards = [home_shard(extractor.extract(graph), num_shards) for graph in graphs]
                assert all(0 <= shard < num_shards for shard in shards)
                # A function of the features: recomputing never moves an entry.
                assert shards == [
                    home_shard(extractor.extract(graph), num_shards) for graph in graphs
                ]

    def test_distributes_over_shards(self):
        rng = random.Random(11)
        graphs = [random_labeled_graph(rng, rng.randint(2, 7), 0.4) for _ in range(200)]
        hit_shards = {home_shard(EXTRACTOR.extract(g), 4) for g in graphs}
        assert hit_shards == {0, 1, 2, 3}

    def test_isomorphic_copies_share_a_shard(self):
        rng = random.Random(13)
        for _ in range(40):
            graph = random_labeled_graph(rng, rng.randint(1, 8), 0.4, connected=False)
            twin = shuffled_twin(graph, rng)
            for extractor in (EXTRACTOR, TREE_EXTRACTOR):
                assert home_shard(extractor.extract(graph), 8) == home_shard(
                    extractor.extract(twin), 8
                )

    def test_independent_of_the_hash_seed(self):
        """Two interpreters with different string-hash salts route alike."""
        outputs = []
        for seed in ("0", "4242"):
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", _ROUTING_CHILD],
                    capture_output=True,
                    text=True,
                    check=True,
                    cwd=REPO_ROOT,
                    env={
                        **os.environ,
                        "PYTHONHASHSEED": seed,
                        "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
                    },
                ).stdout
            )
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 2

    def test_routing_stable_under_churn(self, small_synthetic, zipf_stream):
        engine, _ = run_engine(
            small_synthetic, zipf_stream, shards=3, backend="inline"
        )
        # After arbitrary insert/evict churn, every live entry sits exactly
        # where its features hash to, and the replicas hold exactly their
        # routed entries.
        for entry in engine.cache.entries():
            assert engine.placement.entry_shard[entry.entry_id] == home_shard(entry.features, 3)
        for shard in engine.shard_runtime.shards:
            expected = sorted(
                entry_id
                for entry_id in engine.cache.entry_ids()
                if engine.placement.entry_shard[entry_id] == shard.shard_id
            )
            assert shard.entry_ids() == expected
        engine.close()


# ----------------------------------------------------------------------
# Engine equivalence (the A/B contract)
# ----------------------------------------------------------------------
class TestShardedEngineEquivalence:
    def test_shards_1_matches_legacy_engine(self, small_synthetic, zipf_stream):
        """``shards=1`` is the default engine: one inline replica of the same
        log every other shape writes."""
        method = create_method("ggsx", max_path_length=3)
        default = IGQ(method, engine_config(10, 3))
        default.build_index(small_synthetic)
        results = [default.query(query) for query in zipf_stream]
        engine, explicit = run_engine(small_synthetic, zipf_stream, shards=1)
        assert explicit == engine_fingerprint(default, results)
        assert len(engine.shard_runtime.shards) == 1 and engine.isub is not None
        assert engine.shard_runtime.shards[0].entry_ids() == sorted(engine.cache.entry_ids())

    @pytest.mark.parametrize("shards", [2, 4])
    def test_inline_shards_match_single_shard(
        self, shards, small_synthetic, zipf_stream
    ):
        _, baseline = run_engine(small_synthetic, zipf_stream, shards=1)
        engine, sharded = run_engine(
            small_synthetic, zipf_stream, shards=shards, backend="inline"
        )
        assert sharded == baseline
        engine.close()

    def test_supergraph_mode_inline_shards(self, small_synthetic, zipf_stream):
        stream = zipf_stream[:30]

        def run(shards):
            method = create_method("ggsx", max_path_length=3)
            engine = IGQ(
                method, config(shards=shards, backend="inline").replace(mode="supergraph")
            )
            engine.build_index(small_synthetic)
            results = [engine.query(query) for query in stream]
            fingerprint = engine_fingerprint(engine, results)
            engine.close()
            return fingerprint

        assert run(3) == run(1)

    def test_run_batch_on_sharded_engine(self, small_synthetic, zipf_stream):
        stream = zipf_stream[:24]
        _, baseline = run_engine(small_synthetic, stream, shards=1)
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, config(shards=2, backend="inline"))
        engine.build_index(small_synthetic)
        results = engine.run_batch(list(stream))
        assert engine_fingerprint(engine, results) == baseline
        engine.close()

    def test_single_component_configurations(self, small_synthetic, zipf_stream):
        stream = zipf_stream[:24]
        for flags in ({"enable_isuper": False}, {"enable_isub": False}):
            def run(shards):
                method = create_method("ggsx", max_path_length=3)
                engine = IGQ(
                    method, config(shards=shards, backend="inline").replace(**flags)
                )
                engine.build_index(small_synthetic)
                results = [engine.query(query) for query in stream]
                fingerprint = engine_fingerprint(engine, results)
                engine.close()
                return fingerprint

            assert run(2) == run(1)

    def test_dict_path_configuration(self, small_synthetic, zipf_stream, oracle_probes):
        """The oracle engine (its probes verify with the dict-based
        ``VF2Matcher``, its base method on the bigint kernel) holds on every
        replica, and sharded or not it matches the kernel engine."""
        stream = zipf_stream[:24]

        def run(shards):
            engine = kernel_oracle.oracle_engine(
                "ggsx", config(shards=shards, backend="inline"), max_path_length=3
            )
            engine.build_index(small_synthetic)
            results = [engine.query(query) for query in stream]
            fingerprint = engine_fingerprint(engine, results)
            assert engine.igq_verifier.stats.tests > 0
            engine.close()
            return fingerprint

        oracle = run(1)
        assert run(2) == oracle
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, config(shards=2, backend="inline"))
        engine.build_index(small_synthetic)
        results = [engine.query(query) for query in stream]
        assert engine_fingerprint(engine, results) == oracle
        engine.close()


class TestValidation:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            config(shards=0)
        with pytest.raises(ValueError):
            config(shards=2, backend="threads")

    def test_context_manager_closes_runtime(self, small_synthetic):
        method = create_method("ggsx", max_path_length=3)
        with IGQ(method, config(shards=2, backend="inline")) as engine:
            engine.build_index(small_synthetic)
        engine.close()  # idempotent
