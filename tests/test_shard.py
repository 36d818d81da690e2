"""Tests for the sharded query cache and its delta-replicated state.

Four contracts:

* **Replication** — a replica that missed any number of window flushes
  catches up by replaying the ordered delta log and ends in exactly the
  state a from-scratch replay (or the live replica) has; compaction folds
  the log without changing what a bootstrap sees, and a replica behind the
  compaction floor falls back to reset-and-replay.
* **Routing** — an entry's owning shard is a pure function of its graph's
  canonical form: stable across processes and insert/evict churn, and
  shared by isomorphic (relabeled) copies.
* **Equivalence** — ``shards>1`` — inline or process-backed — is
  byte-identical to ``shards=1`` (one inline replica of the same log): answers,
  per-query accounting, containment-test statistics, cache contents and
  replacement metadata.
* **Lifecycle** — compiled payloads ship through deltas (shards never
  recompile) and every eviction path releases them.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    IGQ,
    CacheConfig,
    DeltaLog,
    DeltaLogTruncated,
    EngineConfig,
    QueryIndexShard,
    ShardConfig,
)
from repro.core.shard import BROADCAST, ShardEntry, shard_of_key
from repro.datasets.registry import load_dataset
from repro.features import FeatureExtractor
from repro.features.canonical import canonical_graph_key
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
class TestRouting:
    def test_stable_and_in_range(self):
        rng = random.Random(7)
        graphs = [random_labeled_graph(rng, rng.randint(2, 6), 0.4) for _ in range(50)]
        for num_shards in (1, 2, 3, 8):
            shards = [
                shard_of_key(canonical_graph_key(graph), num_shards) for graph in graphs
            ]
            assert all(0 <= shard < num_shards for shard in shards)
            # Pure function of the graph: recomputing never moves an entry.
            assert shards == [
                shard_of_key(canonical_graph_key(graph), num_shards) for graph in graphs
            ]

    def test_distributes_over_shards(self):
        rng = random.Random(11)
        graphs = [random_labeled_graph(rng, rng.randint(2, 7), 0.4) for _ in range(200)]
        hit_shards = {shard_of_key(canonical_graph_key(g), 4) for g in graphs}
        assert hit_shards == {0, 1, 2, 3}

    def test_isomorphic_copies_share_a_shard(self):
        graph = make_path_graph("ABCA")
        relabeled = make_path_graph("ABCA")  # structural copy
        assert shard_of_key(canonical_graph_key(graph), 8) == shard_of_key(
            canonical_graph_key(relabeled), 8
        )

    def test_routing_stable_under_churn(self, small_synthetic, zipf_stream):
        engine, _ = run_engine(
            small_synthetic, zipf_stream, shards=3, backend="inline"
        )
        # After arbitrary insert/evict churn, every live entry sits exactly
        # where re-running the router would put it, and the replicas hold
        # exactly their routed entries.
        for entry in engine.cache.entries():
            assert engine.placement.entry_shard[entry.entry_id] == engine.placement.shard_of(entry.graph)
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

    def test_compact_folds_move_into_rewritten_insert(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        original = make_entry(2)
        log.append_insert(1, original)
        log.append_flush()
        moved = make_entry(2)
        log.append_move(moved, src_shard=1, dst_shard=0)
        log.append_flush()
        removed = log.compact(5)
        assert removed == 3  # the move and both markers fold away
        replayed = [(r.op, r.entry_id, r.shard) for r in log.since(0)]
        assert replayed == [("insert", 1, 0), ("insert", 2, 0)]
        # The retained insert carries the move's payload (the source shard
        # released the original instance's compiled pointers on transfer)
        # but keeps its original version, so the order is stable.
        rewritten = log.since(0)[1]
        assert rewritten.entry is moved
        assert rewritten.version == 2
        # A fresh shard 0 bootstrapping from the folded prefix holds both.
        shard = QueryIndexShard(0)
        shard.catch_up(log)
        assert shard.entry_ids() == [1, 2]
        # ...and shard 1 (the move's source) sees nothing to install.
        other = QueryIndexShard(1)
        other.catch_up(log)
        assert other.entry_ids() == []

    def test_compact_replicate_supersedes_insert(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_insert(1, make_entry(2))
        log.append_replicate(make_entry(1))
        log.append_flush()
        removed = log.compact(4)
        assert removed == 2  # insert(1) and the marker fold away
        replayed = [(r.op, r.entry_id, r.shard) for r in log.since(0)]
        assert replayed == [("insert", 2, 1), ("replicate", 1, BROADCAST)]
        # Replaying the replicate alone IS the net state of a hot entry:
        # every holder installs it in its replica store, no home copy.
        for shard_id in (0, 1):
            shard = QueryIndexShard(shard_id)
            shard.catch_up(log)
            assert shard.replica_ids() == [1]
            assert shard.entry_ids() == ([2] if shard_id == 1 else [])

    def test_compact_retains_standalone_replicate(self):
        # Born-hot entries enter the log as a replicate with no prior
        # insert; compaction must retain the record and a bootstrap must
        # still install it on exactly its holder group.
        log = DeltaLog()
        log.append_replicate(make_entry(7), targets=(0, 1))
        log.append_flush()
        removed = log.compact(2)
        assert removed == 1  # only the marker folds
        holder = QueryIndexShard(0)
        holder.catch_up(log)
        assert holder.replica_ids() == [7]
        assert holder.entry_ids() == []
        outsider = QueryIndexShard(2)
        outsider.catch_up(log)
        assert outsider.replica_ids() == []

    def test_compact_drops_evicted_replicated_entry(self):
        log = DeltaLog()
        log.append_insert(0, make_entry(1))
        log.append_replicate(make_entry(1))
        log.append_evict(BROADCAST, 1)
        log.append_flush()
        log.compact(4)
        assert log.since(0) == []

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
# Hot-key replication and adaptive rebalancing
# ----------------------------------------------------------------------
class TestHotReplication:
    @pytest.mark.parametrize(
        "shard_fields",
        [
            {"shards": 3, "hot_threshold": 2, "rebalance_interval": 2},
            {"shards": 3, "hot_threshold": 1, "replication_factor": 2},
            {"shards": 4, "rebalance_interval": 1},
            {"shards": 2, "hot_threshold": 2, "rebalance_interval": 1},
        ],
    )
    def test_hot_configurations_match_single_shard(
        self, shard_fields, small_synthetic, zipf_stream
    ):
        _, baseline = run_engine(small_synthetic, zipf_stream, shards=1)
        engine, sharded = run_engine(
            small_synthetic, zipf_stream, backend="inline", **shard_fields
        )
        assert sharded == baseline
        stats = engine.shard_stats()
        if "hot_threshold" in shard_fields:
            assert stats["replicas_live"] > 0  # replication actually fired
        if shard_fields.get("rebalance_interval") == 1:
            assert stats["moves_applied"] > 0  # rebalancing actually fired
        engine.close()

    def test_process_shard_skipping_flushes_catches_up(
        self, small_synthetic, zipf_stream
    ):
        """Pruned-away process shards miss whole flush epochs, then replay.

        With probe pruning on, a shard can go unprobed across one or more
        window flushes; the parent ships it the accumulated log tail with
        its next probe.  The run must observe such a lag actually happening
        and still end byte-identical to the single-shard engine.
        """
        stream = zipf_stream[:30]
        _, baseline = run_engine(small_synthetic, stream, shards=1)
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(
            method,
            EngineConfig(
                cache=CacheConfig(size=10, window=3),
                shard=ShardConfig(
                    shards=2, backend="process", hot_threshold=1, rebalance_interval=2
                ),
            ),
        )
        engine.build_index(small_synthetic)
        lagged = False
        results = []
        for query in stream:
            results.append(engine.query(query))
            if engine.shard_runtime._pools is not None:
                behind = min(engine.shard_runtime._shipped)
                if any(r.op == "flush" for r in engine.delta_log.since(behind)):
                    lagged = True
        assert lagged
        assert engine_fingerprint(engine, results) == baseline
        engine.close()

    def test_replication_factor_limits_holder_group(
        self, small_synthetic, zipf_stream
    ):
        engine, _ = run_engine(
            small_synthetic,
            zipf_stream,
            shards=3,
            backend="inline",
            hot_threshold=1,
            replication_factor=2,
        )
        stats = engine.shard_stats()
        assert stats["replicas_live"] > 0
        # Every replicate record names exactly its 2-shard holder group,
        # and the group contains the entry's home shard.
        replicates = [
            record for record in engine.delta_log.since(0) if record.op == "replicate"
        ]
        assert replicates
        for record in replicates:
            assert record.targets is not None and len(record.targets) == 2
        # Live holders: each hot entry counted once per holder, nowhere else
        # (the inline backend's shards share one physical replica store, so
        # the holder narrowing lives in this parent-side accounting and in
        # the per-probe cover directives, not in the store itself).
        assert sum(engine.placement.replica_counts()) == 2 * stats["replicas_live"]
        for entry_id, targets in engine.placement.replica_targets.items():
            assert engine.placement.entry_shard[entry_id] in targets
        engine.close()

    def test_born_hot_replacement_skips_home_install(
        self, small_synthetic, zipf_stream
    ):
        """A churned-out hot entry's re-insertion is replicated directly.

        The replacement enters the log as a standalone ``replicate`` record
        — no home insert/retire round-trip — which is exactly the record
        shape the compaction test pins down as bootstrap-valid.
        """
        engine, _ = run_engine(
            small_synthetic, zipf_stream, shards=3, backend="inline", hot_threshold=1
        )
        records = engine.delta_log.since(0)
        assert engine.delta_log.floor_version == 0  # full history retained
        inserted = {r.entry_id for r in records if r.op == "insert"}
        born_hot = [
            r.entry_id
            for r in records
            if r.op == "replicate" and r.entry_id not in inserted
        ]
        assert born_hot
        engine.close()

    def test_straggler_missing_rebalance_epoch_resets_and_replays(
        self, small_synthetic, zipf_stream
    ):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(
            method,
            EngineConfig(
                cache=CacheConfig(size=10, window=3),
                shard=ShardConfig(
                    shards=2, backend="inline", hot_threshold=2, rebalance_interval=1
                ),
            ),
        )
        engine.build_index(small_synthetic)
        half = len(zipf_stream) // 2
        for query in zipf_stream[:half]:
            engine.query(query)
        straggler = QueryIndexShard(0, verifier=Verifier())
        straggler.catch_up(engine.delta_log)
        moves_before = engine.shard_stats()["moves_applied"]
        for query in zipf_stream[half:]:
            engine.query(query)
        # The missed tail contains at least one rebalance epoch (moves) and
        # replicate traffic; compacting past the straggler's cursor makes a
        # plain tail replay unsound, so catch_up must reset and bootstrap.
        assert engine.shard_stats()["moves_applied"] > moves_before
        engine.delta_log.compact(engine.delta_log.version)
        assert straggler.applied_version < engine.delta_log.floor_version
        straggler.catch_up(engine.delta_log)
        live = engine.shard_runtime.shards[0]
        assert straggler.entry_ids() == live.entry_ids()
        assert straggler.replica_ids() == live.replica_ids()
        # Probing home + full replica cover agrees with the live shard.
        for query in zipf_stream[:6]:
            features = EXTRACTOR.extract(query)
            assert sorted(
                straggler.find_supergraph_ids(query, features, cover=True)
            ) == sorted(live.find_supergraph_ids(query, features, cover=True))
            assert sorted(
                straggler.find_subgraph_ids(query, features, cover=True)
            ) == sorted(live.find_subgraph_ids(query, features, cover=True))
        engine.close()

    def test_reset_stats_clears_counters_not_placement(
        self, small_synthetic, zipf_stream
    ):
        engine, _ = run_engine(
            small_synthetic,
            zipf_stream,
            shards=3,
            backend="inline",
            hot_threshold=2,
            rebalance_interval=2,
        )
        stats = engine.shard_stats()
        assert stats["replicas_live"] > 0
        assert sum(stats["probe_load"]) > 0
        replicas_before = engine.placement.replica_counts()
        engine.reset_stats()
        stats = engine.shard_stats()
        assert stats["probe_load"] == [0, 0, 0]
        assert stats["moves_applied"] == 0
        assert stats["replicas_created"] == 0
        assert stats["delta_log"]["records_folded"] == 0
        # Placement survives: replicas stay replicated, entries stay put.
        assert stats["replicas_live"] > 0
        assert engine.placement.replica_counts() == replicas_before
        # The engine keeps serving queries (fresh hotness slate).
        result = engine.query(zipf_stream[0])
        assert result is not None
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

    def test_process_shards_match_single_shard(self, small_synthetic, zipf_stream):
        stream = zipf_stream[:30]
        _, baseline = run_engine(small_synthetic, stream, shards=1)
        engine, sharded = run_engine(small_synthetic, stream, shards=2, backend="process")
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

    def test_batch_executor_borrows_process_shard_pools(
        self, small_synthetic, zipf_stream
    ):
        """Verification chunks ride on the long-lived shard workers.

        With process-backed shards the batch executor must not spawn a
        second pool: its ``process`` backend borrows the shard pools (whose
        workers hold the method snapshot *and* the delta-fed replica), and
        the pipelined run stays byte-identical to the single-shard engine.
        """
        from repro.core.batch import BatchExecutor

        stream = zipf_stream[:24]
        _, baseline = run_engine(small_synthetic, stream, shards=1)
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, config(shards=2, backend="process"))
        engine.build_index(small_synthetic)
        with BatchExecutor(engine, num_workers=2, backend="process") as executor:
            results = executor.run_batch(stream)
            executor._ensure_pool()
            assert not executor._owns_pool  # borrowed, not spawned
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
