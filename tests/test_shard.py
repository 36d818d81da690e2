"""Tests for the sharded query cache and its delta-replicated state.

Four contracts:

* **Replication** — a replica that missed any number of window flushes
  catches up by replaying the ordered delta log and ends in exactly the
  state a from-scratch replay (or the live replica) has; compaction folds
  the log without changing what a bootstrap sees, and a replica behind the
  compaction floor falls back to reset-and-replay.
* **Routing** — an entry's home shard is a hash of its feature counts,
  computed once at insert: deterministic (independent of
  ``PYTHONHASHSEED``), stable under insert/evict churn, and shared by
  isomorphic (relabeled) copies.
* **Equivalence** — ``shards>1`` is byte-identical to ``shards=1`` (one
  replica of the same log): answers,
  per-query accounting, containment-test statistics, cache contents and
  replacement metadata.
* **Lifecycle** — compiled payloads ship through deltas (shards never
  recompile) and every eviction path releases them.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    IGQ,
    DeltaLog,
    DeltaLogTruncated,
    EngineConfig,
    QueryIndexShard,
    ShardConfig,
)
from repro.core.placement import home_shard
from repro.core.shard import BROADCAST, CacheDelta, ShardEntry, fold_deltas
from repro.datasets.registry import load_dataset
from repro.features import FeatureExtractor
from repro.graphs import LabeledGraph
from repro.isomorphism import Verifier
from repro.methods import create_method
from repro.workloads.generator import QueryGenerator, WorkloadSpec
from repro.workloads.zipf import create_sampler

from .conftest import engine_config, make_path_graph, random_labeled_graph

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
#: the trees-and-cycles extractor's features are tuple-keyed (never coded)
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
            assert extractor.extract(graphs[0]).coded == (extractor is EXTRACTOR)
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
# Delta log
# ----------------------------------------------------------------------
def make_entry(entry_id: int, name: str = "g") -> ShardEntry:
    graph = make_path_graph("AB")
    graph.name = f"{name}{entry_id}"
    return ShardEntry(entry_id=entry_id, graph=graph, features=EXTRACTOR.extract(graph))


def legacy_record(version: int, op: str, shard: int, entry: ShardEntry) -> CacheDelta:
    """A ``replicate`` / ``move`` record as a pre-4.0 WAL holds it."""
    return CacheDelta(version, 0, op, shard, entry.entry_id, entry)


class TestDeltaLog:
    def test_versions_and_epochs_are_monotonic(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_insert(1, make_entry(2))
        assert log.epoch == 0
        log.append_flush()
        log.append_evict(0, 1)
        log.append_flush()
        versions = [record.version for record in log.since(0)]
        assert versions == [1, 2, 3, 4, 5]
        assert log.epoch == 2
        assert [r.epoch for r in log.since(0)] == [0, 0, 1, 1, 2]

    def test_shard_filter_keeps_flush_markers(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_insert(1, make_entry(2))
        log.append_flush()
        records = log.since(0, shard=1)
        assert [(r.op, r.shard) for r in records] == [("insert", 1), ("flush", -1)]

    def test_compact_folds_to_net_state(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_insert(0, make_entry(2))
        log.append_flush()
        log.append_evict(0, 1)
        log.append_flush()
        log.append_insert(0, make_entry(3))
        removed = log.compact(5)  # everything up to the second flush marker
        assert removed == 4  # insert(1), evict(1) and the two markers fold away
        assert log.floor_version == 5
        # Bootstrap (version 0) still sees the net state: entry 2 then entry 3.
        replayed = [(r.op, r.entry_id) for r in log.since(0)]
        assert replayed == [("insert", 2), ("insert", 3)]

    # A WAL written before 4.0 may hold the ``replicate`` / ``move`` records
    # of hot-key placement; nothing appends them any more, but the fold
    # that WAL replay runs must still read them.
    def test_compact_folds_move_into_rewritten_insert(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_insert(1, make_entry(2))
        log.append_flush()
        moved = make_entry(2)
        live = fold_deltas({}, log.since(0) + [legacy_record(4, "move", 0, moved)])
        # The live insert takes the move's shard and payload but keeps its
        # version, so the replay order is stable.
        rewritten = live[2]
        assert (rewritten.op, rewritten.shard, rewritten.version) == ("insert", 0, 2)
        assert rewritten.entry is moved
        shard = QueryIndexShard(0)
        for record in sorted(live.values(), key=lambda record: record.version):
            shard.apply(record)
        assert shard.entry_ids() == [1, 2]

    def test_compact_replicate_supersedes_insert(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_insert(1, make_entry(2))
        records = log.since(0) + [
            legacy_record(3, "replicate", BROADCAST, make_entry(1)),
            CacheDelta(4, 1, "flush", BROADCAST),
        ]
        live = fold_deltas({}, records)
        assert [(r.op, r.entry_id) for r in sorted(live.values(), key=lambda r: r.version)] == [
            ("insert", 2),
            ("replicate", 1),
        ]

    def test_compact_retains_standalone_replicate(self):
        # A born-hot entry's only record was its replicate: it stays live.
        record = legacy_record(1, "replicate", BROADCAST, make_entry(7))
        assert fold_deltas({}, [record]) == {7: record}

    def test_compact_drops_evicted_replicated_entry(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        records = log.since(0) + [
            legacy_record(2, "replicate", BROADCAST, make_entry(1)),
            CacheDelta(3, 0, "evict", BROADCAST, 1),
        ]
        assert fold_deltas({}, records) == {}

    def test_subscriber_below_floor_is_rejected(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_evict(0, 1)
        log.append_flush()
        log.compact(3)
        with pytest.raises(DeltaLogTruncated):
            log.since(1)
        assert log.since(0) == []  # net state is empty

    def test_shard_rejects_stale_and_misrouted_deltas(self):
        log = DeltaLog()
        delta = log.append_insert(0, make_entry(1))
        shard = QueryIndexShard(0)
        shard.apply(delta)
        with pytest.raises(ValueError):
            shard.apply(delta)  # already applied
        misrouted = log.append_insert(1, make_entry(2))
        with pytest.raises(ValueError):
            shard.apply(misrouted)
        shard.reset()


# ----------------------------------------------------------------------
# Replication
# ----------------------------------------------------------------------
def probe_fingerprint(shard: QueryIndexShard, queries) -> list:
    """Hit ids of both probe directions over ``queries``."""
    out = []
    for query in queries:
        features = EXTRACTOR.extract(query)
        out.append(
            (
                shard.find_supergraph_ids(query, features),
                shard.find_subgraph_ids(query, features),
            )
        )
    return out


class TestReplication:
    def test_replay_after_missed_flushes_equals_full_rebuild(
        self, small_synthetic, zipf_stream
    ):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, config(shards=2, backend="inline"))
        engine.build_index(small_synthetic)
        half = len(zipf_stream) // 2
        for query in zipf_stream[:half]:
            engine.query(query)
        # A straggler replica synchronised now...
        straggler = QueryIndexShard(0, verifier=Verifier())
        straggler.catch_up(engine.delta_log)
        flushes_before = engine.delta_log.epoch
        # ...misses every flush of the second half of the stream...
        for query in zipf_stream[half:]:
            engine.query(query)
        assert engine.delta_log.epoch > flushes_before
        # ...and replays the tail instead of being re-snapshotted.
        applied = straggler.catch_up(engine.delta_log)
        assert applied > 0

        fresh = QueryIndexShard(0, verifier=Verifier())
        fresh.catch_up(engine.delta_log)
        live = engine.shard_runtime.shards[0]
        probes = zipf_stream[:6]
        assert straggler.entry_ids() == fresh.entry_ids() == live.entry_ids()
        assert straggler.epoch == fresh.epoch == engine.delta_log.epoch
        assert (
            probe_fingerprint(straggler, probes)
            == probe_fingerprint(fresh, probes)
            == probe_fingerprint(live, probes)
        )
        engine.close()

    def test_replica_behind_compaction_floor_resets_and_recovers(
        self, small_synthetic, zipf_stream
    ):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, config(shards=2, backend="inline"))
        engine.build_index(small_synthetic)
        half = len(zipf_stream) // 2
        for query in zipf_stream[:half]:
            engine.query(query)
        stale = QueryIndexShard(1, verifier=Verifier())
        stale.catch_up(engine.delta_log)
        for query in zipf_stream[half:]:
            engine.query(query)
        # Compact past the straggler's cursor: replaying the tail is no
        # longer sound, so catch_up must reset and bootstrap from 0.
        engine.delta_log.compact(engine.delta_log.version)
        assert stale.applied_version < engine.delta_log.floor_version
        stale.catch_up(engine.delta_log)
        live = engine.shard_runtime.shards[1]
        assert stale.entry_ids() == live.entry_ids()
        probes = zipf_stream[:6]
        assert probe_fingerprint(stale, probes) == probe_fingerprint(live, probes)
        engine.close()

    def test_deltas_ship_compiled_payloads_never_recompiled(
        self, small_synthetic, zipf_stream
    ):
        engine, _ = run_engine(small_synthetic, zipf_stream, shards=2, backend="inline")
        inserts = [
            record
            for record in engine.delta_log.since(0)
            if record.op == "insert" and record.entry_id in engine.cache
        ]
        assert inserts
        for record in inserts:
            parent = engine.cache.get(record.entry_id)
            # Compiled exactly once, in the parent, shared by the payload.
            assert record.entry.compiled_target is parent.compiled_target
            assert record.entry.compiled_plan is parent.compiled_plan
            assert parent.compiled_target is not None
            assert parent.compiled_plan is not None
        engine.close()

    def test_auto_compaction_keeps_log_bounded(self, small_synthetic, zipf_stream):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(
            method, config(shards=2, backend="inline", compact_threshold=8)
        )
        engine.build_index(small_synthetic)
        for query in zipf_stream:
            engine.query(query)
        # Inline replicas are always current, so compaction can fold the
        # whole prefix: live inserts plus at most the tail of one window.
        assert len(engine.delta_log) <= 8 + len(engine.cache)
        assert engine.delta_log.floor_version > 0
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
        assert engine.delta_log.epoch == len(zipf_stream) // 3  # one marker a flush

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

    def test_dict_path_configuration(self, small_synthetic, zipf_stream):
        stream = zipf_stream[:24]

        def run(shards):
            method = create_method(
                "ggsx", max_path_length=3, verifier=Verifier(compiled=False)
            )
            engine = IGQ(
                method,
                config(shards=shards, backend="inline"),
                igq_verifier=Verifier(compiled=False),
            )
            engine.build_index(small_synthetic)
            results = [engine.query(query) for query in stream]
            fingerprint = engine_fingerprint(engine, results)
            # The injected dict-path verifier must hold on the shards too.
            if engine.delta_log is not None:
                for record in engine.delta_log.since(0):
                    if record.op == "insert":
                        assert record.entry.compiled_target is None
                        assert record.entry.compiled_plan is None
            engine.close()
            return fingerprint

        assert run(2) == run(1)


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
