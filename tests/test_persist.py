"""Tests for the durability subsystem (:mod:`repro.persist`).

The contracts:

* **WAL discipline** — records are length-prefixed and CRC-checksummed;
  a torn tail (partial header, partial payload, corrupt checksum) never
  poisons the intact prefix, and ``repair=True`` truncates it in place.
* **Atomic snapshots** — snapshots land via temp-file + rename, so a
  crash mid-write leaves either the old state or the new one, never a
  half-written file; corrupt snapshots fall back to the previous one.
* **Warm restart** — an engine reopened on its persist directory serves
  *byte-identical* answers and accounting to an engine that never
  restarted, for single-shard and sharded configurations alike.
* **Prefix consistency** — however the process dies (no close, a real
  ``SIGKILL`` mid-stream, WAL torn at an arbitrary byte offset), recovery
  lands exactly on some window flush boundary: the state equals a fresh
  engine fed that query prefix.
* **Follower identity** — a remote replica streaming the delta log over
  the wire probes the same entry ids as the leader, including across a
  compaction-floor reset.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.cache import QueryCache
from repro.core.config import (
    CacheConfig,
    ConfigError,
    EngineConfig,
    PersistConfig,
    ShardConfig,
)
from repro.core.engine import IGQ
from repro.core.shard import DeltaLog, ShardedIGQ, ShardEntry
from repro.datasets import load_dataset
from repro.features.extractor import FeatureExtractor
from repro.methods import create_method
from repro.persist import CacheFollower, attach_persistence
from repro.persist import inspect as persist_inspect
from repro.persist import replicate, restore, snapshot, wal
from repro.service import GraphQueryService, serve
from repro.service.protocol import ProtocolError
from repro.workloads import QueryGenerator, WorkloadSpec

from .conftest import make_path_graph

WINDOW = 10
CACHE = CacheConfig(size=25, window=WINDOW)


# ----------------------------------------------------------------------
# Shared workload
# ----------------------------------------------------------------------
def load_database():
    return load_dataset("synthetic", scale=0.12)


def generate_queries(database):
    """The deterministic Zipf stream (the SIGKILL child derives it again)."""
    spec = WorkloadSpec(
        name="zipf", graph_distribution="zipf", node_distribution="zipf",
        alpha=1.2, seed=11,
    )
    return QueryGenerator(database, spec).generate(120)


@pytest.fixture(scope="module")
def database():
    return load_database()


@pytest.fixture(scope="module")
def queries(database):
    return generate_queries(database)


def persist_config(tmp_path, **overrides):
    overrides.setdefault("fsync", "flush")
    return PersistConfig(dir=str(tmp_path / "state"), **overrides)


def build_engine(database, config):
    cls = ShardedIGQ if config.shard.shards > 1 else IGQ
    engine = cls.from_config(create_method("ggsx", max_path_length=3), config)
    engine.build_index(database)
    return engine


def cache_fingerprint(engine):
    """Everything a restart must reproduce, as one comparable value."""
    entries = sorted(
        (
            entry.entry_id,
            repr(entry.graph),
            tuple(sorted(map(repr, entry.answer))),
            entry.hits,
            entry.removed,
            round(entry.alleviated_cost, 9),
            tuple(sorted(entry.tags)),
        )
        for entry in engine.cache.entries()
    )
    return (engine.cache.query_counter, entries)


def result_fingerprint(results):
    return [
        (
            tuple(sorted(map(repr, result.answers))),
            result.num_sub_hits,
            result.num_super_hits,
            result.exact_hit,
        )
        for result in results
    ]


# ----------------------------------------------------------------------
# WAL framing
# ----------------------------------------------------------------------
class TestWal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal-0.seg"
        writer = wal.WalWriter(path)
        records = [("delta", {"n": i}) for i in range(5)] + [("state", {"q": 50})]
        for record in records:
            writer.append(record)
        writer.sync()
        writer.close()
        scan = wal.read_segment(path)
        assert scan.clean
        assert scan.records == records
        assert scan.valid_bytes == scan.total_bytes

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "wal-0.seg"
        writer = wal.WalWriter(path)
        writer.append(("a", 1))
        writer.close()
        writer = wal.WalWriter(path)
        writer.append(("b", 2))
        writer.close()
        assert wal.read_segment(path).records == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_torn_tail_truncated(self, tmp_path, cut):
        path = tmp_path / "wal-0.seg"
        writer = wal.WalWriter(path)
        writer.append(("a", 1))
        writer.append(("b", 2))
        writer.sync()
        writer.close()
        intact = path.stat().st_size
        # Tear mid-record: keep the first record plus `cut` bytes of junk.
        data = path.read_bytes()
        frame_one = len(wal.MAGIC) + len(wal.encode_record(("a", 1)))
        path.write_bytes(data[: frame_one + cut])
        scan = wal.read_segment(path, repair=True)
        assert not scan.clean
        assert scan.records == [("a", 1)]
        assert path.stat().st_size == frame_one < intact
        # After repair the segment reads back clean.
        assert wal.read_segment(path).clean

    def test_crc_corruption_stops_scan(self, tmp_path):
        path = tmp_path / "wal-0.seg"
        writer = wal.WalWriter(path)
        writer.append(("a", 1))
        writer.append(("b", 2))
        writer.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte of the last record
        path.write_bytes(bytes(data))
        scan = wal.read_segment(path)
        assert not scan.clean
        assert scan.records == [("a", 1)]
        assert "checksum" in scan.reason

    def test_empty_and_bad_magic(self, tmp_path):
        empty = tmp_path / "wal-empty.seg"
        empty.write_bytes(b"")
        assert wal.read_segment(empty).clean
        bad = tmp_path / "wal-bad.seg"
        bad.write_bytes(b"NOTAWAL!" + b"x" * 16)
        scan = wal.read_segment(bad)
        assert not scan.clean and scan.records == []

    def test_segment_names_sort_by_version(self, tmp_path):
        for version in (7, 123, 0):
            (tmp_path / wal.segment_name(version)).write_bytes(wal.MAGIC)
        listed = wal.list_segments(tmp_path)
        assert [version for version, _ in listed] == [0, 7, 123]
        assert wal.segment_start_version(wal.segment_name(42)) == 42


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_roundtrip_and_latest(self, tmp_path):
        snapshot.write_snapshot(tmp_path, 5, {"v": 5})
        snapshot.write_snapshot(tmp_path, 12, {"v": 12})
        version, payload = snapshot.load_latest_snapshot(tmp_path)
        assert (version, payload) == (12, {"v": 12})

    def test_corrupt_snapshot_falls_back(self, tmp_path):
        snapshot.write_snapshot(tmp_path, 5, {"v": 5})
        snapshot.write_snapshot(tmp_path, 12, {"v": 12})
        newest = tmp_path / snapshot.snapshot_name(12)
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        version, payload = snapshot.load_latest_snapshot(tmp_path)
        assert (version, payload) == (5, {"v": 5})

    def test_interrupted_rename_leaves_old_state(self, tmp_path):
        snapshot.write_snapshot(tmp_path, 5, {"v": 5})
        # A crash between write and rename leaves only a temp file behind.
        stray = tmp_path / (snapshot.snapshot_name(12) + ".999.tmp")
        stray.write_bytes(b"half-written")
        assert snapshot.load_latest_snapshot(tmp_path) == (5, {"v": 5})
        snapshot.prune_snapshots(tmp_path, keep_version=5)
        assert not stray.exists()

    def test_prune_keeps_newest(self, tmp_path):
        for version in (3, 9, 20):
            snapshot.write_snapshot(tmp_path, version, {"v": version})
        snapshot.prune_snapshots(tmp_path, keep_version=20)
        assert [version for version, _ in snapshot.list_snapshots(tmp_path)] == [20]


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestPersistConfig:
    def test_defaults_off(self):
        config = EngineConfig()
        assert config.persist.dir is None
        assert not config.persist.enabled

    def test_bad_fsync_rejected(self):
        with pytest.raises(ConfigError, match="persist.fsync"):
            PersistConfig(dir="/tmp/x", fsync="sometimes")

    def test_bad_snapshot_interval_rejected(self):
        with pytest.raises(ConfigError, match="snapshot_interval"):
            PersistConfig(dir="/tmp/x", snapshot_interval=0)

    def test_round_trips_through_dict(self, tmp_path):
        config = EngineConfig(
            persist=PersistConfig(dir=str(tmp_path), fsync="never", follow="h:1")
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_mode_mismatch_rejected(self, tmp_path, database, queries):
        config = EngineConfig(cache=CACHE, persist=persist_config(tmp_path))
        engine = build_engine(database, config)
        for query in queries[:WINDOW]:
            engine.query(query)
        engine.close()
        sharded = EngineConfig(
            cache=CACHE,
            shard=ShardConfig(shards=3, backend="inline"),
            persist=persist_config(tmp_path),
        )
        with pytest.raises(ConfigError, match="shards"):
            build_engine(database, sharded)


# ----------------------------------------------------------------------
# Warm restart
# ----------------------------------------------------------------------
SHARDED = ShardConfig(shards=3, backend="inline", hot_threshold=2)


def engine_config(tmp_path=None, shard=None):
    kwargs = {"cache": CACHE}
    if shard is not None:
        kwargs["shard"] = shard
    if tmp_path is not None:
        kwargs["persist"] = persist_config(tmp_path)
    return EngineConfig(**kwargs)


class TestWarmRestart:
    @pytest.mark.parametrize("shard", [None, SHARDED], ids=["single", "sharded"])
    def test_restart_is_byte_identical(self, tmp_path, database, queries, shard):
        durable = engine_config(tmp_path, shard)
        first = build_engine(database, durable)
        for query in queries[:80]:
            first.query(query)
        before = cache_fingerprint(first)
        first.close()

        reopened = build_engine(database, durable)
        assert reopened.persister.restored
        assert cache_fingerprint(reopened) == before

        reference = build_engine(database, engine_config(None, shard))
        for query in queries[:80]:
            reference.query(query)
        cont_reopened = [reopened.query(q) for q in queries[80:120]]
        cont_reference = [reference.query(q) for q in queries[80:120]]
        assert result_fingerprint(cont_reopened) == result_fingerprint(cont_reference)
        assert cache_fingerprint(reopened) == cache_fingerprint(reference)
        reopened.close()
        reference.close()

    def test_sharded_placement_survives(self, tmp_path, database, queries):
        durable = engine_config(tmp_path, SHARDED)
        first = build_engine(database, durable)
        for query in queries[:80]:
            first.query(query)
        placement = (
            dict(first._entry_shard),
            dict(first._replica_targets),
            first._flush_count,
            first._moves_applied,
            first._replicas_created,
        )
        first.close()
        reopened = build_engine(database, durable)
        assert placement == (
            dict(reopened._entry_shard),
            dict(reopened._replica_targets),
            reopened._flush_count,
            reopened._moves_applied,
            reopened._replicas_created,
        )
        reopened.close()

    def test_restart_without_state_is_cold(self, tmp_path, database):
        engine = build_engine(database, engine_config(tmp_path))
        assert engine.persister is not None
        assert not engine.persister.restored
        engine.close()

    def test_close_is_idempotent(self, tmp_path, database, queries):
        engine = build_engine(database, engine_config(tmp_path))
        for query in queries[:WINDOW]:
            engine.query(query)
        engine.close()
        engine.close()
        assert engine.persister.closed

    def test_snapshot_budget_rolls_segments(self, tmp_path, database, queries):
        config = EngineConfig(
            cache=CACHE,
            persist=persist_config(tmp_path, snapshot_interval=8),
        )
        engine = build_engine(database, config)
        for query in queries[:60]:
            engine.query(query)
        stats = engine.persister.stats()
        assert stats["snapshots"] == 1  # old ones pruned
        assert stats["segments"] == 1
        before = cache_fingerprint(engine)
        engine.close()
        reopened = build_engine(database, config)
        assert cache_fingerprint(reopened) == before
        reopened.close()


# ----------------------------------------------------------------------
# Crash recovery (kill -9 semantics) and fault injection
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent

_CRASH_CHILD = """
import sys
from tests.test_persist import crash_child
crash_child(sys.argv[1], int(sys.argv[2]))
"""


def crash_config(tmp_path, shards: int) -> EngineConfig:
    return engine_config(tmp_path, ShardConfig(shards=shards, backend="inline"))


def crash_child(tmp_path: str, shards: int) -> None:
    """The process the SIGKILL test kills: journal the stream, report flushes."""
    database = load_database()
    engine = build_engine(database, crash_config(Path(tmp_path), shards))
    for index, query in enumerate(generate_queries(database), start=1):
        engine.query(query)
        if index % WINDOW == 0:
            print(f"FLUSH {index}", flush=True)


class TestCrashRecovery:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_sigkilled_child_recovers_at_flush_boundary(
        self, tmp_path, database, queries, shards
    ):
        """A real ``kill -9``: no atexit hook, no close, no flush of any kind."""
        durable = crash_config(tmp_path, shards)
        child = subprocess.Popen(
            [sys.executable, "-c", _CRASH_CHILD, str(tmp_path), str(shards)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
            },
        )
        watchdog = threading.Timer(60, child.kill)  # a hung child fails the readline
        watchdog.start()
        try:
            for flushed in (1, 2, 3):
                assert child.stdout.readline() == f"FLUSH {flushed * WINDOW}\n"
            child.send_signal(signal.SIGKILL)
        finally:
            watchdog.cancel()
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL  # killed mid-stream, not finished

        survivor = build_engine(database, durable)
        recovered = survivor.cache.query_counter
        assert 3 * WINDOW <= recovered < len(queries) and recovered % WINDOW == 0
        reference = build_engine(database, crash_config(None, shards))
        for query in queries[:recovered]:
            reference.query(query)
        assert cache_fingerprint(survivor) == cache_fingerprint(reference)
        tail = queries[recovered:]
        assert result_fingerprint(
            [survivor.query(query) for query in tail]
        ) == result_fingerprint([reference.query(query) for query in tail])
        assert cache_fingerprint(survivor) == cache_fingerprint(reference)
        survivor.close()
        reference.close()

    def test_abandoned_engine_recovers_at_flush_boundary(
        self, tmp_path, database, queries
    ):
        durable = engine_config(tmp_path)
        crashed = build_engine(database, durable)
        for query in queries[:77]:  # deliberately not flush-aligned
            crashed.query(query)
        # No close(): simulate the process dying with the WAL mid-window.
        survivor = build_engine(database, durable)
        recovered = survivor.cache.query_counter
        assert recovered == 70  # the last completed window flush
        reference = build_engine(database, engine_config(None))
        for query in queries[:recovered]:
            reference.query(query)
        assert cache_fingerprint(survivor) == cache_fingerprint(reference)
        survivor.close()
        reference.close()
        crashed.persister.close()

    def test_randomized_wal_tears_recover_prefix_consistent(
        self, tmp_path, database, queries
    ):
        """Satellite: fault injection at arbitrary byte offsets.

        Kill the writer, then tear the newest WAL segment at a random
        offset.  Whatever survives, recovery must land on *some* flush
        boundary — never a torn half-window, never corrupted entries.
        """
        durable = engine_config(tmp_path)
        victim = build_engine(database, durable)
        for query in queries[:60]:
            victim.query(query)
        victim.persister.close()
        state_dir = tmp_path / "state"
        segments = wal.list_segments(state_dir)
        assert segments
        newest = segments[-1][1]
        pristine = newest.read_bytes()

        references = {}

        def reference_fingerprint(counter):
            if counter not in references:
                engine = build_engine(database, engine_config(None))
                for query in queries[:counter]:
                    engine.query(query)
                references[counter] = cache_fingerprint(engine)
                engine.close()
            return references[counter]

        rng = random.Random(1234)
        boundaries = {0} | {w for w in range(WINDOW, 61, WINDOW)}
        for _ in range(8):
            cut = rng.randrange(len(wal.MAGIC), len(pristine) + 1)
            newest.write_bytes(pristine[:cut])
            survivor = build_engine(database, durable)
            counter = survivor.cache.query_counter
            assert counter in boundaries, (cut, counter)
            assert cache_fingerprint(survivor) == reference_fingerprint(counter)
            survivor.close()
            # Re-arm: the recovered engine rewrote the directory, so plant
            # the pristine artifacts back for the next injection round.
            for _, path in wal.list_segments(state_dir):
                path.unlink()
            for _, path in snapshot.list_snapshots(state_dir):
                path.unlink()
            newest.write_bytes(pristine)

    def test_deleted_directory_recovers_cold(self, tmp_path, database, queries):
        durable = engine_config(tmp_path)
        engine = build_engine(database, durable)
        for query in queries[:30]:
            engine.query(query)
        engine.close()
        import shutil

        shutil.rmtree(tmp_path / "state")
        reopened = build_engine(database, durable)
        assert not reopened.persister.restored
        assert reopened.cache.query_counter == 0
        reopened.close()


# ----------------------------------------------------------------------
# Recovery internals
# ----------------------------------------------------------------------
class TestRecoverDir:
    def test_empty_dir_recovers_nothing(self, tmp_path):
        assert restore.recover_dir(tmp_path) is None

    def test_uncommitted_tail_is_ignored(self, tmp_path):
        """Delta records after the last ``state`` marker do not apply."""
        log = DeltaLog()
        graph = make_path_graph("AB", name="g1")
        features = FeatureExtractor().extract(graph)
        entry = ShardEntry(entry_id=1, graph=graph, features=features)
        committed = log.append_insert(0, entry)
        writer = wal.WalWriter(tmp_path / wal.segment_name(0))
        writer.append(("delta", committed))
        writer.append(("meta", {1: {"answer": [], "tags": (), "added_at": 1}}))
        writer.append(("state", {"format": 1, "query_counter": 10}))
        orphan = log.append_insert(0, ShardEntry(entry_id=2, graph=graph, features=features))
        writer.append(("delta", orphan))  # no closing state marker
        writer.sync()
        writer.close()
        recovered = restore.recover_dir(tmp_path)
        assert recovered.state["query_counter"] == 10
        assert [entry_id for entry_id in recovered.live] == [1]


# ----------------------------------------------------------------------
# Compaction accounting (ServiceReport surface)
# ----------------------------------------------------------------------
class TestCompactStats:
    def test_delta_log_accumulates(self):
        log = DeltaLog()
        graph = make_path_graph("ABC")
        features = FeatureExtractor().extract(graph)
        for entry_id in range(4):
            log.append_insert(0, ShardEntry(entry_id=entry_id, graph=graph, features=features))
        for entry_id in range(4):
            log.append_evict(0, entry_id)
        log.append_flush()
        folded = log.compact(log.version)
        stats = log.compact_stats()
        assert stats["records_folded"] == folded > 0
        assert stats["bytes_reclaimed"] > 0
        assert stats["floor_version"] == log.version
        # Totals accumulate across compactions instead of resetting.
        log.append_flush()
        log.compact(log.version)
        assert log.compact_stats()["records_folded"] >= stats["records_folded"]

    def test_service_report_surfaces_reclaimed_bytes(self, database, queries):
        config = EngineConfig(
            cache=CACHE,
            shard=ShardConfig(shards=3, backend="inline", compact_threshold=4),
        )
        service = GraphQueryService(
            create_method("ggsx", max_path_length=3), config, database=database
        )
        with service:
            for query in queries[:60]:
                service.query(query)
            report = service.stats().as_dict()
        delta_log = report["delta_log"]
        assert delta_log["records_folded"] > 0
        assert delta_log["bytes_reclaimed"] > 0
        assert delta_log["floor_version"] > 0


# ----------------------------------------------------------------------
# Remote followers
# ----------------------------------------------------------------------
def follower_matches_leader(service, follower, probes):
    engine = service.engine
    assert follower.entry_ids() == sorted(engine.cache.entry_ids())
    for query in probes:
        features = engine.method.extract_query_features(query)
        assert follower.probe(query, features) == replicate.leader_probe_ids(
            engine, query, features
        )


class TestFollower:
    @pytest.mark.parametrize("sharded", [False, True], ids=["mirror", "sharded"])
    def test_probe_ids_match_leader(self, tmp_path, database, queries, sharded):
        kwargs = {"cache": CACHE}
        if sharded:
            kwargs["shard"] = SHARDED
        else:
            kwargs["persist"] = persist_config(tmp_path, fsync="never")
        service = GraphQueryService(
            create_method("ggsx", max_path_length=3), EngineConfig(**kwargs),
            database=database,
        )
        with service, serve(service) as server:
            with CacheFollower(server.host, server.port) as follower:
                for index, query in enumerate(queries[:60]):
                    service.query(query)
                    if index % 20 == 19:
                        follower.poll()
                follower.poll()
                follower_matches_leader(service, follower, queries[60:80])
                assert follower.resets == 0

    def test_truncated_follower_resets_and_replays(self, tmp_path, database, queries):
        service = GraphQueryService(
            create_method("ggsx", max_path_length=3),
            EngineConfig(
                cache=CACHE,
                shard=ShardConfig(
                    shards=3, backend="inline", hot_threshold=2, compact_threshold=4
                ),
            ),
            database=database,
        )
        with service, serve(service) as server:
            with CacheFollower(server.host, server.port) as follower:
                for query in queries[:WINDOW]:
                    service.query(query)
                follower.poll()
                for query in queries[WINDOW:60]:
                    service.query(query)
                # The aggressive compaction budget pushed the floor far
                # past this follower's cursor while it slept.
                assert service.engine.delta_log.floor_version > follower.version > 0
                follower.poll()
                assert follower.resets == 1
                follower_matches_leader(service, follower, queries[60:80])

    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_FORCE_PERSIST_DIR")),
        reason="forced persistence gives every engine a followable mirror log",
    )
    def test_unfollowable_leader_is_a_typed_error(self, database, queries):
        service = GraphQueryService(
            create_method("ggsx", max_path_length=3),
            EngineConfig(cache=CACHE),
            database=database,
        )
        with service, serve(service) as server:
            with CacheFollower(server.host, server.port) as follower:
                with pytest.raises(ProtocolError) as excinfo:
                    follower.poll()
                assert excinfo.value.code == "not_followable"

    def test_from_config_needs_follow_address(self):
        with pytest.raises(ConfigError, match="persist.follow"):
            CacheFollower.from_config(EngineConfig())

    def test_move_records_are_skipped(self):
        graph = make_path_graph("AB")
        data = {"version": 3, "epoch": 1, "op": "move", "shard": 1,
                "entry_id": 7, "src_shard": 0}
        assert replicate.delta_from_wire(data, FeatureExtractor()) is None

    def test_bad_wire_records_are_typed_errors(self):
        extractor = FeatureExtractor()
        with pytest.raises(ProtocolError):
            replicate.delta_from_wire("not-a-dict", extractor)
        with pytest.raises(ProtocolError):
            replicate.delta_from_wire({"op": "insert", "version": 0}, extractor)
        with pytest.raises(ProtocolError):
            replicate.delta_from_wire({"op": "melt", "version": 1}, extractor)


# ----------------------------------------------------------------------
# The inspector CLI
# ----------------------------------------------------------------------
class TestInspect:
    def test_reports_clean_state(self, tmp_path, database, queries, capsys):
        durable = engine_config(tmp_path)
        engine = build_engine(database, durable)
        for query in queries[:30]:
            engine.query(query)
        engine.close()
        status = persist_inspect.main([str(tmp_path / "state"), "--records"])
        out = capsys.readouterr().out
        assert status == 0
        assert "snap-" in out and "wal-" in out

    def test_flags_torn_segments(self, tmp_path, database, queries, capsys):
        durable = engine_config(tmp_path)
        engine = build_engine(database, durable)
        for query in queries[:30]:
            engine.query(query)
        engine.persister.close()
        _, newest = wal.list_segments(tmp_path / "state")[-1]
        newest.write_bytes(newest.read_bytes()[:-3])
        status = persist_inspect.main([str(tmp_path / "state")])
        assert status == 1
        assert "TORN" in capsys.readouterr().out

    def test_missing_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            persist_inspect.main([str(tmp_path / "nope")])
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# Cache restore primitives
# ----------------------------------------------------------------------
class TestCacheRestore:
    def test_restore_entry_preserves_identity(self):
        cache = QueryCache()
        graph = make_path_graph("AB", name="q")
        features = FeatureExtractor().extract(graph)
        cache.restore_entry(7, graph, features, answer=["g1"], added_at=3, hits=2)
        entry = cache.get(7)
        assert (entry.entry_id, entry.hits, entry.added_at) == (7, 2, 3)
        assert cache.next_entry_id == 8
        with pytest.raises(ValueError):
            cache.restore_entry(7, graph, features, answer=[], added_at=3)

    def test_attach_persistence_round_trips_state(self, tmp_path, database, queries):
        """The low-level hook an engine's ``_attach_persistence`` uses."""
        config = engine_config(tmp_path)
        engine = build_engine(database, config)
        for query in queries[:30]:
            engine.query(query)
        state = engine.persist_state()
        engine.close()
        bare = build_engine(database, engine_config(None))
        persister = attach_persistence(bare, config.persist)
        assert persister.restored
        assert bare.persist_state() == state
        persister.close()
