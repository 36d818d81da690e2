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
* **One write path** — each window flush's report reaches the replicas
  and the journal: the flush record names exactly the report's evictions
  and inserts with their homes, every replica holds exactly the live
  entries homed on it, and a replica built fresh over the cache probes
  the same entry ids.
"""

from __future__ import annotations

import base64
import logging
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import warnings
import zlib
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
from repro.core.shard import QueryIndexShard
from repro.datasets import load_dataset
from repro.features.extractor import FeatureExtractor
from repro.graphs.bitset import CandidateBitmap
from repro.isomorphism import Verifier
from repro.methods import create_method
from repro.persist import attach_persistence
from repro.persist import inspect as persist_inspect
from repro.persist import restore, snapshot, wal
from repro.service import GraphQueryService, ServiceClosed
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
    engine = IGQ(create_method("ggsx", max_path_length=3), config)
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
    def test_torn_tail_truncated(self, tmp_path, cut, caplog):
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
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            scan = wal.read_segment(path, repair=True)
        assert not scan.clean
        assert scan.records == [("a", 1)]
        assert path.stat().st_size == frame_one < intact
        # The repair is not silent: path, reason and bytes dropped.
        (record,) = caplog.records
        assert record.name == "repro.persist.wal"
        assert str(path) in record.getMessage()
        assert scan.reason in record.getMessage()
        assert f"dropping {cut} byte(s)" in record.getMessage()
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
            persist=PersistConfig(dir=str(tmp_path), fsync="never", snapshot_interval=64)
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


    def test_format_mismatch_rejected(self, tmp_path, database, queries, monkeypatch):
        """One constant stamps the state and gates the restore: a build
        reads formats 1 up to its own, so a format-3 build (repro 9.0 to
        11.0) refuses a format-4 directory loudly."""
        config = EngineConfig(cache=CACHE, persist=persist_config(tmp_path))
        engine = build_engine(database, config)
        for query in queries[:WINDOW]:
            engine.query(query)
        engine.close()
        recovered = restore.recover_dir(tmp_path / "state")
        assert recovered.state["format"] == restore.FORMAT_VERSION == 4
        monkeypatch.setattr(restore, "FORMAT_VERSION", 3)
        with pytest.raises(ConfigError, match=r"holds format 4 state.*reads formats 1 to 3"):
            build_engine(database, config)

    def test_fsync_always_is_a_deprecated_alias(self, tmp_path):
        with pytest.warns(DeprecationWarning, match='fsync="always" now means "flush"'):
            config = PersistConfig(dir=str(tmp_path), fsync="always")
        assert config.fsync == "always"


# ----------------------------------------------------------------------
# Warm restart
# ----------------------------------------------------------------------
SHARDED = ShardConfig(shards=3, backend="inline")


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

    def test_sharded_placement_survives(self, tmp_path, database, queries, monkeypatch):
        """The recorded homes come back as written: a restart never
        recomputes the routing hash (here it would put everything on 0)."""
        durable = engine_config(tmp_path, SHARDED)
        first = build_engine(database, durable)
        for query in queries[:80]:
            first.query(query)
        placement = dict(first.placement.entry_shard)
        assert len(set(placement.values())) > 1
        first.close()
        monkeypatch.setattr("repro.core.placement.home_shard", lambda features, shards: 0)
        reopened = build_engine(database, durable)
        assert placement == reopened.placement.entry_shard
        held = {
            entry_id: shard.shard_id
            for shard in reopened.shard_runtime.shards
            for entry_id in shard.entry_ids()
        }
        assert held == placement
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
        # a query waits for its flush's record, not for the checkpoint
        # queued behind it: let the journal writer finish the pruning
        engine.persister._last_commit.result()
        stats = engine.persister.stats()
        assert stats["snapshots"] == 1  # old ones pruned
        assert stats["segments"] == 1
        before = cache_fingerprint(engine)
        engine.close()
        reopened = build_engine(database, config)
        assert cache_fingerprint(reopened) == before
        reopened.close()


# ----------------------------------------------------------------------
# One write path: flush report -> replicas + one journal record
# ----------------------------------------------------------------------
def wal_flushes(state_dir):
    """Every ``flush`` record (all of format 4), read back as
    ``(records, meta, state)``."""
    flushes = []
    for _, segment in wal.list_segments(state_dir):
        for kind, payload in wal.read_segment(segment).records:
            assert kind == "flush" and payload[-1]["format"] == 4
            flushes.append(restore.read_flush(payload))
    return flushes


class TestOneWritePath:
    @pytest.mark.parametrize("persisted", [False, True], ids=["memory", "durable"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_every_reader_sees_the_flush_the_log_recorded(
        self, tmp_path, database, queries, shards, persisted
    ):
        config = EngineConfig(
            cache=CACHE,
            shard=ShardConfig(shards=shards, backend="inline"),
            # one segment for the whole stream: no snapshot rotation in between
            persist=persist_config(tmp_path, fsync="never", snapshot_interval=10_000)
            if persisted
            else PersistConfig(),
        )
        engine = build_engine(database, config)
        placement, runtime = engine.placement, engine.shard_runtime
        flushes = version = 0
        for query in queries[:60]:
            homes_before = dict(placement.entry_shard)
            ids_before = engine.cache.entry_ids()
            report = engine.query(query).maintenance
            if report is None:
                assert placement.entry_shard == homes_before  # only a flush moves
                continue
            flushes += 1
            evicted = report.evicted_entry_ids
            inserted = [i for i in engine.cache.entry_ids() if i not in ids_before]
            assert len(inserted) == report.inserted
            homes = placement.entry_shard
            assert sorted(homes) == sorted(engine.cache.entry_ids())
            # every replica holds exactly the live entries homed on it
            for shard in runtime.shards:
                assert shard.entry_ids() == sorted(
                    entry_id for entry_id, home in homes.items() if home == shard.shard_id
                )
            if persisted:
                # one record per flush: the report's evictions and inserts
                # with their homes, the inserts' meta, and the state this
                # flush left behind
                written = wal_flushes(tmp_path / "state")
                assert len(written) == flushes
                records, fresh_meta, state = written[-1]
                assert [(r.op, r.entry_id, r.shard) for r in records] == (
                    [("evict", entry_id, homes_before[entry_id]) for entry_id in evicted]
                    + [("insert", entry_id, homes[entry_id]) for entry_id in inserted]
                    + [("flush", None, -1)]
                )
                assert [r.version for r in records] == list(
                    range(version + 1, version + 1 + len(records))
                )
                assert records[-1].epoch == flushes
                version = records[-1].version
                assert sorted(fresh_meta) == inserted
                assert state["query_counter"] == engine.cache.query_counter
                assert state["entry_shard"] == homes
        assert flushes == 60 // WINDOW

        # A fresh single replica over the whole cache probes what the
        # engine's replicas probe.
        reader = QueryIndexShard(0, verifier=Verifier())
        for entry in engine.cache.entries():
            reader.add(entry)
        assert reader.entry_ids() == sorted(engine.cache.entry_ids())
        for query in queries[60:80]:
            features, _ = engine.prepare(query)
            sub_ids, super_ids = runtime.probe(query, features, True, True)
            assert (
                reader.find_supergraph_ids(query, features),
                reader.find_subgraph_ids(query, features),
            ) == (sorted(sub_ids), sorted(super_ids))
        engine.close()


class TestFlushRecord:
    def stream_until_flush(self, engine, queries):
        """Query until the stream's first window flush has run; returns the
        index of the query that flushed."""
        for index, query in enumerate(queries):
            if engine.query(query).maintenance is not None:
                return index
        raise AssertionError("the stream never flushed")

    def test_a_flush_is_one_record_and_one_fsync(self, tmp_path, database, queries, monkeypatch):
        config = EngineConfig(
            cache=CACHE,
            shard=ShardConfig(shards=4, backend="inline"),
            persist=persist_config(tmp_path, snapshot_interval=10_000),
        )
        engine = build_engine(database, config)
        first = self.stream_until_flush(engine, queries)
        appended, fsyncs = [], []
        real_append, real_fsync = wal.WalWriter.append, os.fsync

        def counting_append(writer, obj):
            appended.append(obj[0])
            return real_append(writer, obj)

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(wal.WalWriter, "append", counting_append)
        monkeypatch.setattr(os, "fsync", counting_fsync)
        second = first + 1 + self.stream_until_flush(engine, queries[first + 1 :])
        assert second - first == WINDOW
        assert appended == ["flush"]
        assert len(fsyncs) == 1
        assert len(wal_flushes(tmp_path / "state")) == 2
        engine.close()

    def test_fsync_always_writes_the_flush_segments_byte_for_byte(
        self, tmp_path, database, queries
    ):
        files = {}
        for fsync in ("flush", "always"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                persist = persist_config(tmp_path / fsync, fsync=fsync, snapshot_interval=10_000)
            engine = build_engine(
                database,
                EngineConfig(
                    cache=CACHE, shard=ShardConfig(shards=4, backend="inline"), persist=persist
                ),
            )
            for query in queries[:75]:
                engine.query(query)
            engine.close()
            files[fsync] = {
                path.name: path.read_bytes() for path in (tmp_path / fsync / "state").iterdir()
            }
        (segment,) = [name for name in files["flush"] if name.startswith("wal-")]
        assert len(wal.read_segment(tmp_path / "flush" / "state" / segment).records) == 7
        assert files["always"] == files["flush"]


#: two persist directories written by the commit before every engine owned
#: its delta log (one single-shard: its WAL came from the persister's
#: private mirror log; one 4-shard with ``hot_threshold=2``: a ``replicate``
#: record is in there), each a mid-stream snapshot plus a WAL tail, with the
#: ``cache_fingerprint`` the writer had at close — pickle + zlib + base64
PARENT_PERSIST_DIRS = """
eNrtXGuMJNdVnu55vzZrx5FMkL2Pmaru6urqme5Zr+1sbClxEmOXmfiByC8z6Z3p3ZrJ7MxsP5wYbMkGZiaEthigA6JRfvAD
IQUnCAEBtCI/+YFtRV3VAcGvbBD8QEhBSAgMSHAf5557bvVjZnbGr7hX6r3n3Lr33HNf55x7q+Z7ZeTr9702JP693EjXxyrr
W9c3Sw1Oj15b3yxVBHnvl4ub3qLx78GlXKV0vfHp3//40NATjz/zhU89tZj/XSbl8t//6O1XRr9+IGUO1UfXSpvVYqN+tlza
KW/nVrfLpVwlKJbXGvWpx4qrQekz4vlvNpxXRVPjL5TKlfXtrYb/ZH20tLO9GjT8yXpye6fB2BfWV6sslfX9ofpEaatafnFl
nTH3scecaSzXJyvl1RVZZrk+Xi2Wr5eqlcZy7epeI8dVfOon/uPC6ajoH0vF+4+u4tXRt58/HRWfOpaK544xiv53nNNR8aeP
peL5o6n48vDQ0B9m3mozFcvDJ1ZxOa7i2PpWpVTupeO80jFI1Kee4wU+K1glOZjmRa6XiztBo3631EZwlRxkzjxVvFraLK09
LlhRb5mrNLJVvFFizd9curxSusT0XimubRRXS1urL3LBPt/FfmLZTy77w8v+yHLNT7zMlFuu+ElIhyEdkWmtPr6yyduqyPr1
4acWFxt+gqf5hp/k6eWGP8zTSw1/hKdLjVp9RtZaWd9aK31F9Onir/H6B8EcTxMHwTxPkweBxdPhg8Dm6chBjem8VbuxUlq7
zqwLEzgLkla3a1ts+urTq9ubm6XVKht4xo0/xrNLZTYGohE/Ecyx3zz7Wexn+4nabuPZRm2vcbU+ca1UrNbKTGz9XjmoKiNX
+kq1XFytbpcb9Vkxpp9TRXG2x0AB0cwuG4LgYjC3J1MbUgvSeZHOiVJz/Pm+oiyk5gVlizI2PrHxiSWeWMjPc75Wn9zcXi3K
zr/Mltfq9hpTkq31nWI1WPlS6cVK46u1q/WPrG7f2GH2eW1FLvtG/eOyx+uV7Rvb5Z1gvXIjp8o06mceA/JnZGnodHBX8LHK
1fosCtvZLG41gufqd6nyz9RK5Ref5rlQpT7OFGHzwYqxqkyTwzZh8WOPPHE6m/Dzx9uE1uGb0DrpJnzwnduEebkJ85fkJsw/
AJtwCTbhpQ/NJrRim3DO2IR6G8lNyKm5fXNr6U04F9uEegv/2G7CT44PDb3h/dN5tgnz4yfehE8fbxPah29C+0SbcPzm0kMr
pXzh8F3ojy77Y8v++LI/sexPLvtTcl+ygsv+NM+s9dqe/iikY5COQzoB1ROs7iTkTUE6zdJE163NlDW2Nve3Yms/JLc23+qj
PGX5Y+B/x3nK8ifANEwGeX+K0w83/OnA7WYKHDAFGTAFrjAF/vRBkAVj4EljEOR4OnoQLPB07CBY5On4QZDn6YQ/eRAUODUV
NxszxzMbDttfGfZz/WSQZanHfjn2W2C/RfbLs/zCO2NKXLatk4EbOMJksDTIs+2eTEsyyFRV9uK+ohaQyiJVQCqHVIZTUlAm
cKuEyaNUD0pnoPmMaF4UZGTgVFW2o7MdUT+pmMUqebJAmSxlCpTJUcYTjeTFQOTFQIhUaZInA5GHgZAFFpDKIlVAKodURo5o
nvQ9D33nBWTf87qTedqvPO1XnvYrT/uVp/3Kk34tCju+KCc4zQnszSJO5iJO5iJO5iJO5qKaTEHJKVsQYheU2AUidgGFLaCw
BRS2gMIWUFhWCMsqYVkiLIsisigiiyKyKKIgRBSUiAIRUcCKBaxYwIo5UTGnKuZIxRwWz2FxRxQXZSQP08eeizSzK8Rk5AwL
MRms7L1vfOjrp+VDv8Ac5/cSQ/czH/rUyX3oM8fzoanDfWjqpD704eP7UO09hTPlPnTmznyoSCelvxT+M6H9pz/T049yf5mA
cykNkfMP4zlV+FHuL8fAzxp+9GHuR7P+FPM+08wTzUjf3M2XZsCXuuBLhQed5IG1B75U+NBp7k0XwJsKLzrF/Wke/KnwohMH
wRJPZ07oTaUnZcaBWVfpSZPgSZm15Xuf/ZbeGW+6KJzIYuDuSWvpogV1lTsUpDLuklmgTI4yecoUKJOlDFh6Ri9hc8qcZ0CV
DJr6DCrF3LJSKsN1rRJmiTLZqqqQx6oFpLCpmG+QTS9ggwu6wQXa4AJtcIE0uIANLmCDC9jgAjaYE8Oeg2HP6cHO0SHN0SHN
0SHN0SHNkSHN4ZDmcEhz0K+c7k2OdiBHOpDDDuSwAznsQA474O52DYOkjkhlkVJh0xKUz+6pECahAgoZBaBWeaJVHqXmUWoe
pQoPJqvuKyoLVEH6OGgvAz6vsAs+l7RXIO0VsJUCtrIk6yzRkV8iI7+ErfLgIMmDAlIyS0pmUeb7x71++7Tc6zeYPz13JTPD
3OtvnPw++Vl0r1Nwn3xts1YJ0Ls++X/sH3Gwy0e7Uf4zptVv/+rcWabkN5WSIzdKTAfukOaFkSxuVb7MLDTzrJUXt5YaIlls
/DojqsXrYqJGbrCJatQnKrWr0jlX6hPFtTU2pkU2z+mab3ELOywl5FnVgDnKYDKYqjA3zx7b8nEw2/EkBU9G40+Y9c/9N9P2
lbOv3GLK/whHuFItVuW7nrFr2+UbXIFEp4L1MTEgFf5w9iafZ+mgWD99NuxbzHmIMCVdn5ZDysVKL30PO28mH/+U/V//mHjp
T95gq/eCP+QPPQ4KDLGMi/GMuXjGfDzDimfY8YxULEOMAFv5la3iTpfXWCy38enptHiP9dzyp57O/09qaGj9p77/v2yw/i1F
Xo7pQdKL7QkSy41srr9Qkh2vjwTbPLTqtnq7hHA03LvnhLFcYfHk9yHiUd9YDu89xgjdLaYjdyJ97kJ4LGdcc16GGG4RYrgH
IIbLQwzHYrcJFgNNwj3JlLxP6Ra7zUPsZkHsZsOVaAoitzTcgjgQt2XkrccYRHvjKtqDWO+ktyDk0jRIsV+aH6vEzUgS4jlx
M/JOxG1p4fPScHHKUnVmF2RgVVU2nNAFSbJT+4qydAFLHiMV42BpF0tnkfKQstELJ3nT4Gkt1bQgg/mqyp7X2fOqQck4lElR
xqVMljIeZWxoZH5P6jKvwqoMGZUMjEpSZstRkaVT+4qydAE5EDLbxQJZpDykbEGpA7clgxqHDyt039Hdd2gnHdpJh3bSoZ10
SCcdOfU8U3fNwZl11MwKykUqi5SHlJy/lFA7pcSmtFjJqNWTQskplJxCySmUnELJ6lo/o/puybGsEiZLGY8ysrtiCanaDq3t
0NoOre2Q2vCCATW2UGMLNbZQYxXdzkO0Oo+R7DxGsqqsugqSZbNYIoslxIsInr8nU/nyQ8R+gYel7PcgFpwN7uoSC/7R0WLB
u3gsuMx0vy8YCybh/mKGcbPBWfBkwUe5E+MXEpdZ7HgEz6Xd1hTc5Pszy/7ssn/mUC+mbiS6ebCuN/tdbib8WUjPwE1FcBG9
W14sanFCH2ZWf4RZ+dGg5Y8x6z8ONxUTQehPsvwpuLGYZh5hhnmCWfY7E0S1IMfHpCWcGHdPKXBjXuzNXkZeSYyAg2PuK5SO
jDmwSF5FnAFnNw2ubcafPagFn/DPBleCR0UrTNMU3Mxb4JO4nwpZGrFfWt7eo28KHgs+B3P4BHUwKXAwqSAS1o1TLlIt5TwY
KWx5UjFWlTxpUcajjE2ZsKrk2lquLWsLOtTZIWQrt9MCk9+Ca05OpZQRb3H1WfERxbiUsaukWFhVcqx9RbWQ8pCytWxbmHGZ
zTUEwSFkR0LDSIykSMVIJgTFR3JEUC0pL8LBQ6ZFGY8yNmW44lKUrUXJwZOthjo7hGxl812hWkoMYkJqsK+oFlIeUjZSQihv
CGraakkIUvsPW68CyXiUkYPO9AIpoZYSUikhlRJSKaFeS5IJq9T1tPbAJ6jJTyrGrpInUAl7bWGvLey1hb1Wb6JS4FNcPY0u
nTmXzpxLZ84lM+fqmXPJzLl65lwycy3RdkttFak9UNDZFu1fi/Svhb1qYa9a2KsW+KmWnNO0XOBYlU9RMi2XN3hXT96MeLQ9
j7TnYSsetmLLOjbZ97be4DapbWOdUN6rhFgnIWea16kF32T+7PXl4FvMPQbfDv5YObi/qlwN/jT4jmT/krPSad1vOK37Tac1
dnNpkX8O0t1nHf4NCLgNcUBwhbEdZsZ3JPDABczH7qDT4ABs820uN+gjyqDPwyVxGg4c9GDRy3jr04HbM27vjHXiEc5x4pce
07Dxc4mhIWMmIEdOxjljMs51TEZ+pfRQ3wBCxw3jcoa6zAwGAd1eX5jOnr+GkC6Tz1yK21Xm7EN/bON3mNb+eODIiRSsdOdj
+u18OnYqjeBUGsKp1JFnUT67EzC7Um5SvAlIw2kyEt5anCgPm2hRfU+T6tijOOH8KA9HO8lGRuEI3iVKVvy3TwqnKBMa968R
nPwirJRGTvxXNbL0CQ94uaUzujMZoh8wWp8M1Sdj6APfBkS70s1miD4RlVM1spQ+yEt9IvWaG9SURjEyRzKKKRdR5SKinCC5
HcP6Qi8ceilPS9vDp0aDJCe1b/K6GRm7Qe4evgvmR0azx47ZY4gK6JCGfTd3vWNz18nmPm9s7vMdm7vQd3PrnT0m8sfl5sbN
3O/dZKJzc4P5ZKd0trEz3O2yjc1CbLbbxoM0mOc0ROg83rZhUzuwqTOwqV3Y1JGM0OlmBnOfIF/JiN3cdxcPM5OcBnOdhhiW
U3h/w6fJrqpsFwvYuoAdpKuEiSijLnMy0IajUi3AoQIcJYA3BmXtPRmfs2Kqjs1FVgnjUMYFATYeHmx59YI2I61viXQHM9jB
jO5ghvYpQ/qktjmEKxFVIyJqRNC4/iQijRcj0ArXQN2q6IruLnx7ozV0sUZ/t3e7Y2fcJjvjgrEzLnTsjKXTiEEc+YHaUoN6
M1jo8F3ZxieS0o31dl5GKMJEiiqmszo0GtFLLtpXlLqHdITAfTqfYMSxUEQLqSmUx1P5YI9eY+mygug7S4vJ+CzJHDlLF41Z
uhi/3li6JO7oj3S9YVzMixuOk31kAVcZaAynTWMnowph73hQU+BWxuFhKNi8tLy5uMxvLmx/kvFTbDKngzAe3YAZnGALZGMH
1koSbCL5+DAt7y1GmT3cuAnFxmEpTUH8My2W0owR9wgNhWAwmp5YWcNCCCyw8HD7qRymIoWVUowQT3hhCoZpVDOMIZA8xeBD
j5bku34MS8qj/zDhQ1JT6M8ri8b5EhQEOnbNScNE+JQMC0iGtDwkx4tVkYdHmgH+3cgKTSlKRQxMIF5w9rpFEepiBjkQJ/XR
5YSjQCV0QGKT6ES0vEf2Mu04cuq2m3RZMXBYdszOaj4kNbGbZnADNxqGvJRZPxWvrzwEI0BI1eRtkxdVq+p2JNynJ2azk56h
h2fq4cX0sOVh2DZF2FpEAh8qEbYhIilO3zEVbRkoigyho6BMMf1jwZUOW7pCbOmcYUvnOmzpA0e/KibfqSmLOiFKittiw66i
fTzpR+BDcFU81PuqWFy28kvWFgSYafkB+EPMbDC7xo6OYGwz/pS0ftMsPpxhVWZZ1TOBDa7ZkjHoLJjNhD9zIG+Ok3g/rF94
bvwArO0oGOMxPGUqy33mAM35FESv0+aNscWvWITi6uibEHLBHjtgpsFiu0dw+BY4fEu/nOTvdEKICi1yuFSvCwXlItVCykMK
41ULlySX9YMkkRXq9kIdn3LGooxdVbGoenMpUv3WUKub0eom8e2mpFykWkh5SOFFsVJXZCt1ZRm8NSbqZlDdpGJscVGYgcNc
hj9WwkNQT9UN1ftbxbiUaVHGo4xNGKEjfahGItSdYqQc0pj/sPTBVQ+iYp19wriUaVHGowx1PJbpePTcq8dy+pGDSde8nPeu
L2pDfFGrzgZqFTq4Ch29Ch2yCh26Ch29Ch268ByigCUWnmhVvxjFkpKBknAGg5tsrgmktkq1DJvKsEFGApSD4qGIkyxYQgnY
G/qtKlklFl0lFl0lVmyVWGSVWLBKRvTxSQ+vi4Pq4qC6elBdMqguHVRXD6pLxrG1CxfVuoUWym1puS0it0XltrTcFpGLF9ta
rqeleUSaR6V5WppHpCmPTaTZtJqtq9lYTblkkUlGW/F4dy5HW1ps6bk5pdtCXm0dYGNX6xk1gWk50XjPbvW/Z994s8Pvv6n9
fo18XXdP59d1+WN8Vndvzb+PHxxeGR4aSuNHeRu/NMw/7NrYZcnGHvuvsrHP/vfP1/z7sfTGq+z/vmXPmZIL/SWf15J/hT/t
L36+5l8wxS81RD1BX2ocXv2i2V7fsnNHL1sjXw8GCbYysEi/zwXnyeeC80f4XPC++Jd998czzsUzzsczjv/JYa1Wy7HVN31t
fet6qbxTXt/iX2Y+30jz7/rcT9Lv787zj+4eScE3d6nzL/3sS4/k8+df+ixLCo826mMpvlJTDb5TdNf+BpbrbqPKen2hnu4q
U9zkSJEPCImXHuWbgEtcTGnRklhSxKUUE2p0KDgj27nYQ3d5FwG6F2K6Lwrdu4mb6yVOhOMgTiqev3y4uPleo3C5cxRig8D6
vtddqNVL6IO9hOZ7Kmj36u9DfYavt7hUL3EPE3FLR5yN0h5br+Ni35XWxJYc7gXbcknCtrz0kyZsy5+Pbv37e4GJcgzYljfO
7Hz0vcBEOQZsy9sXbu++S5goyTuEbfn+337rn09HxeVjqXgM2Ja7f8v7z3cLMSIxgG0ZwLYMYFs6N+E3Vn/h9dPZhIcjRiQH
sC0D2JYBbEsnbMvda/8anQ5sy+F/cj48gG0ZwLYMYFsGsC0D2JYBbMuPEWzL1OfDW6cD2/LsALZlANsygG0ZwLYMYFsGsC0D
2BYJ2/Kl8b/7vdOBbXluANvSAdvSSgwN/cHVK88w5f86caewLSMfVNgW1EzMrNQsIZS5yFLe5DxLLaat7Q/z6rX6R9iy21xf
La6oRcDCkHuWK/UpthivllaCdcjyk5X69E5pa2196/pKsF1tPM+WrGhnRZbc3C6usUz+Ed0wayhRqk+L5SgHka/R2RvbL5Qq
K8Ud1mBJBH9nofHKymqZeeKSeL9wplxim2CtsnJte3NNlOuDRnMJ0Gj+haDR/AOj/6L482+yNfC99CFoNE/2QKMZB80GgDQD
QJoBIM0AkGYASDMApBkA0piANADZ9mFFpQljqDRRH1SaNvy9QXgHqDQRotK0j4hKE/ZApeGINO07QqVpd0GlMWBiCCpNSFFp
QvWdq2Q8ytiUibqj0oRVCowD2ZH6Rh58Twh2P0RUmlCj0nAgi7YCogkpKk1IUWlCAK9J6i/+BRUi5SFlfJefwkrRPgqOILst
NGwDKk0bRjIhKIlK09bII20cPGRCyniUsSkjUHcEbWtR6u8g2gpVSGZHCgcmhkqjUWGUmQ/h76hS0HlJ2UhFHag0oUalCSkq
Da4CyXiUiQCVJgIpkZYSUSkRlRJRKZFeS5KJDFSacA8/myeoNCFFpVGTLz+oD/cV5e3Tj+wlFfVEpTEAZMIqYTzK2JSJuqPS
hIhKE+lsNXPiM3LZAQkbgGBHoepsSPsXkv6F2KsQexVir0JwVqH68zuxwLFqtAffr0edqDQhRaXR7XnYioetEFQaNf223uA2
qW1jnWiXwCpF8Jfm8mFvVJrvmqg039WoNLcGqDTvHirNSsef568YqDS33ueoNG3m7CN/bKNpotI0j4JK06YAFj1QaZqdqDRt
QKY5CipNU6PSNA1UGskJ50d5hUoj2LZRuI2oNJwV/+2TwinKRMb1chuOf22slEZO/Fc1svQxD/gIUGmaGpVG6weM1idD9ckY
+sCnD+1d6WYzRJ82lVM1spQ+yEt92ohK00bN0kplNZLtmHJtqlybKCdIgUrTNFBp1NAD6AxK28OnRoMkJ7Vv8roZ+HtymRtH
pWnGUGlIj9UfbpMhjfpu7tc6NvdrBirNrQ8AKk37DlFp2kdEpWm/+6g07ZOi0rRPD5WmfUqoNO1OVBq1zSFcaVM12kSN9nuA
SvPDjp3xQwOV5tZ7g0rTjqHSXOmNStPugUpzxUSlaR8LlabdBZXmivrrTDWfYMSxUJsWiqPSXOlEpVFlBdF3lvIdf1GZN1Bp
bn1QUWmad4ZKE8WjG4pKc/NoqDTlTlSaqAsqjdZQQdBQVJqyRqU5AqqXcpiKRFSaJkWIUQ8dyiAqTdNEpWlSVJqmgUrTjKHS
AB+RmkJ/gUqjUD4kyIdy7JqDP9TXPKDSkAxApdE5XqwKoNKQDIVKQ7MiU4pSEQMTiBecvW5RBKLSKA7ENTUqTVOj0jQpKo1q
Xkcr5TgqTdNApWmaqDRNikrTNFBpmjFUGtpTYLGbZnCjUGmaBiqNUT8Vr09RaZoxVJpmDJUGqyIqTWSi0jRNVJqmgUpj6OHF
9EBUmqaJStM0UGkMEbYhAlBpTBVtGSiKDPm37eX42jkkFvxihy39ooFKc+vDgEoTCYCXw1FpmhqVJuqJShMhKk3YE5Xm9lFQ
aZqHo9JIxTUqze1OVJrmiVFpIkSSaR6GShMehkqjZd2mqDSRbi+iqDQRRaWJjoZKEyEqTfMwVJrwMFSaCFFpblNUmkij0kT0
vWhEUWkiRKVB+Ff9rjIC9RDolaLSRBSVJtK4E5LxKGMTRuhIH6qRiHSnIkSlMf2HpQ+uehAV6+wTxqVMSBmPMtTxWKbj0XOv
HsvpR06h0iDfB5Um6oJKEx6GSoOV9Cp09Cp06MJziAIalSbSb0cjikoTdaDShD1RaSKNShNRVJoIUWlua1SaCFBpIo1KE1FU
GrJKLLpKLLpKrNgqscgqsWCVxFBpoipFl+mLSoNF9aC6elBdMo7hLsKoZPCi2sI7bpQbErkhlRtquSGRa6DSRN1RaTBbS/O0
NI9IM1BpIkSluU1RaSKNShMhKk2kUGnIaCse784jQKW5jZ77dpLuPeTV1gE2drWeUROYlhON9+xW/3v2jbc6/P5b7ygqzasm
Ks0vS8wVjqUi0FYqG1+lqDSi9MYvSnyW3mXPmZIL/SWf15K/xp/2F69QaV6lqDRfI6g0h1a/aLbXt+zc0ct2oNJgkX5fQ35A
UGm6fw3JleHtn2Nanmc/8nXkO/E15FD3ryEnT/A1JAfbCSZPF2BHoawMsHUG2DqngK1Ty/0/BgKNtg==
"""


#: one single-shard and one 4-shard persist directory the last format-3
#: build wrote (``CacheConfig(size=8, window=4)``, 44 queries of the shared
#: stream, ``snapshot_interval=44``: a snapshot at version 73 and a WAL tail
#: of two ``flush`` records whose feature codes are spelt with that
#: process's label table), with the ``cache_fingerprint`` each had at
#: close — pickle + zlib + base64
PARENT_FORMAT_3_DIRS = """
eNrtW01sJEcVru7pv7HnZz0yUkKyibO72Z1kfzTj8XrXgqCsLbQJFY2ASCwHkPHa4x1Ljr3r8QArbaRIkHAZiUM6R8QhHBFCCgiJ
0x44ARKIRBwjpBw4wAkORBwQ7716VV090zO2d50QhS57qqqrqqvr571X33vd7zXvrc/dFBRejeuDoLe1c2u7E2Pe39za7vQo+9ne
ztrti41UuNK6hKXx8h9nhXjx+ldebl/7cvM+5B//9Z9feM1/65ezVrebu3uvrO3HsjAIv93Z623t7sTyxYHfub273o1lcRD1bne2
t+HZ0LjwUqMRY9ykeJ7iFsULFF+meJHiqxQvYdyku5p0V5PuatJdTbqrSXc16a4m3dWkuxpXKH8l3od0a6MXD/y1vb21u/FgdpUy
q3ud9d2d3v5ef31/dy9+E1eGW3D6ZjxwlmMpVqLZk088OffUqdPQ2VfjQdjZ2d/bgiWsL//HFQLW5J+uWpN6fRDemW+sdmCcsD5S
qCFLR01JumrAsFw0UempRZG+mr4M1PLIUE1eRt0IFpGWQE6pKfepX4yctnTbstCWXlv6bRm0ZdiWUVsW23Kq3ZcONeSqvnRfhZm0
e7LAqcepz80caBNY+ZDrI06LnE6ptC9LsO3e8j2HJh7Bn3ADtQqiBNmwOFWpckWgi1VhxM1EpHNUrG7ICq4bBGEURapFEJQ46ApV
7urCUBcEKlMygZ9BkXoYRCU7wJhMyCw3BdYgXBxHwOMSOsInlISTCu6YEAyHUIdoKBQxTEGAJ1Qq1XhlFXq1n5DOmyc4DxriH8RI
PAPvld2NTgwc3b95a2/tdjfuyUf240vx8g8LxAPfL9g8sAQ8sJjwQJN5YJF5YIF54CrzANT7XZfoH/kjVGys6L8bEO2DqJDTzC8l
5o9yd1pWusXD8ETCEFNtOU2FpbYst2XlQP6gdAxvmDKbPxxIpzktcVrmtKLSvjxB/HPf0TQeTVeqNTENfxC8IuQhhPBHnGJXCl1U
0xWCm0OwG3JhDaicsjX4w3/oflqFarUG166iNLiVLnWtutLPxqBi6BuaU2kxaQhXYUiDwUGHId5TCzESYSpwJzqka4V5NoaaCiKj
LWRVmRo012I07UzkOS8VwqyQZjYV0oOuYNBDjFdu41MU66kILjxPPxC5zzNZbpeKrWvXMQ1dq0a3JpZWTOlkM+UcMuXK+8CR7wrD
kcGdFpxKC6OH0pJiSGSqAjOfN+GgIS4iOh/DL33pIRxYuQg0OSJlh6QiLquWYtXDSx2a4PIfHJI6v3HsOTZXO1fNHAFVqDk203M0
B29LHbwoaAIQPqE6hCcIk0SGhGoxMhbBCARLcFAaasaPkPFX7iMbBoKBgx9q/lVZdWIGnHIlES9V+xBEkoVuMB+4wMnYFCq5xlct
MfjcEoMqdqkM7nBd4YtshrFYxfRHxxNQfePAs8Md3VRv0qb+Sm3qT1ObOp/a1IbaVCRUl1FTgTfZY4LWJwlucNh1x21ospsBlYdq
Q80GTjgJSJIPbejPmdAdDzfN8XDDgiIXYpm6EEVBLAFHfhHlB1RjhMsDjVQhXgYg04UjAq5Ty4nIoKhEY5WLBecpEuP2wdpMghfA
ecB0FwpZ+zUGK+DmFbI378wYkdOyRQ7ulKPA+zh2fGiR44Vl4JYyjqCMQDHAFQ2wJFBLwwsQhuVskfPYhAkubyuwv2aD/dZCCuxr
mWPIc54nmchVBfYbKHNCBXQWEegUAOiECugsKqADcunIYJ+wzaHAjJFJY0C+YYNpTeYK8HsasCAZs2BKcrXhuhoeASewoKaiE6qR
UwgQLVSxLsmJKt+oSyoYgcgBDIE5jHzq3U+CJegQNqsb7TrFLuYS+vdTjFIwwbdlXBqHh8mRD/2fAPF3Td8VwM/JPM0zT/nkOJ9w
iiuK+4eC1n+1oXXrcgpaI4R2+BRzGWqnBCKrl6AbK3i9EOuTTkZMqcWuryhvgSE29FUCiiyDIK10pw5JhYiqSxYtRtSSEHaKIg1l
HYIqM+G1YHgtGF6L8fC65NpkiVA3qo5e+0ERYORMDTVTQ8dYUbPykVJOKeHmQoFqRdyc1gytUwP+wRGrHgK31Qhyp68N4qyS3mpq
4CLJ07VQiW4uXK4Wrk45maFuoQEA8ahaE0N65PB1zQpiXENEDzQeHne6tUinQncr6M4ocpzDKcMGoQwzI4YoK4yg9ErFZlcYLYQa
QfXvDXOja2nJnoP/2aq0fZfrWrX6EPXMtFKpeoDDcJ7ig/h+Px74vf21fbLXdR3g55GWg6DXXdvb6CHzl+/0O3t3V9d3+zv7nb1Y
nhmEO53v7q9ubWA+2tpY7d1eW4fb51rNVmd+aWHjSmNzc/Pq5aXFhdb8zY3LG631Zmvx6uZaPJhG29bdVXx6D559st6d6z41YgKz
yvkwFAeXDxwYz4mV53/3zj3ngw/PXhMPGKjH/WSouA4kDmelkCfh9wT8noTfHPxgLPIU/E5L0e/3L8WDR76ztp1h8ezcipdvPEoG
zxvXQHj+C8DajccuxiB9/65wmxj4m9v9Xjeu/w9NmXX5JVkcFDsQtiBsPpRVM7Wg3Ufr3ce7J7Ecd/rM02fP8ULXM5DdYgrZNYYU
rUU+ghaOD9mRUcQPQTtCi4iLWYfwrmDQy/gWjvdsZFfM5rf6GOh6JTVBNl/h2Zky4bZ4ggvHM0EfdGP4R30BszAjVM1cYcA7yMKj
ass0weX3FXR9NwVdr2baqfUkDT5nGx1O2mdbdMC7bAMJXKRid0oBCQAQ013vyPCV7HIPBF8nAgULvn5DwdeKWgfH1dbqqDhVTcqx
WJdVNJtU0mklVVhlOzXZniu0ecZAnJQbW7SwrNQ65UTFSAk4tiH7dCUJIqNYDFunhZ0oGwx27ZaEM1lVzLZODxnIisYYPcWjANq8
4Q6r/dZ5yLZo93jt0IrG/6Zo/C8pGl9Kq2cMlhtDjIzg2TYJIS0HzAMpGl9CGvfkVDcC+g7IDg3dH0jnCYWnkPLDqGnOeFuzpvVv
OZrKvcAYiL2SecmSZE19aegNjH1NeWymmnrmjUiVLUmqEytr6k2Jfo7vY0b1DgqaQqqAFlOKnZ+NQsVIvdDPMQ2KDHiFUvqiw5C7
NxKG8KdF9EjuZP2NV75+CGI+Kr27B2iHdYUSh17BHgkk1i2QWH84kJggh1kAiAY5WOXuGKQxWv6xgEQLFMoz8Hsafmfhdw5B4n78
RnzpBaDMazu/L4E8ea76SYJ/L8P5+hHDP9zD+jPPntfwb/miEqynbMG6kH7JbSCgtkJAWui6aTu7fsF9Fc2yoYxAgBrLQzNWAnW8
uXYSaCgdj83LBgxDwnTlPZalWiC6XlSt2Ye/TqpJYU21Q2MrNVXMXSXhSWWcqJjf4zm2wdczqi3UssHXTtDwi7niYSy/npdIsCpL
r8sF1kktVZhPaqX0evQyysEY2xQonmALvkBn8c88Ipm3PZtkmqud+UZCMi0mmctDeLNpmUqBPAI4b0MgpQjydPayMcsYqtimXO4W
ZIVxafUg7JmyUqkzOWRK4nfCVettwBSVh6rwEPTFYBQe2ycyc9Jndl3XWaRmyoYMWbKa1PXlLJ3rA9cc6xWKw2J5Rr0s8iADRXa5
IlbCqagsCSqf4bTMtwQiae4xpoUOK9Qrds51Gu6WZ8ozleRyRpRVvkI/iGeop+SFA4ZyGUoVWafKabBYAA/BJlxsUqFuSZpzW+gM
ctxrUsdjJZMMXPPIce4eZnG+3owH9wQik2u8rJD+OqPMYYaDGNtcjPZqTdtJrq25C3UfRJ4nnGMK401t3oQQBNlfpqAIoRUAzD8T
r7ztWRYuJ2UY8wqOW3DIRo5BvRn3rK9SUpbyglIPkmBb01SFk1TxrPRL8YP1h2iSzLqnjO13bGP7wnz6OxZ+h4WyKjnmPG0EULoD
GtpBFoUsi+jVDss7oxuzfCuBvlxmGVhh431VycAjGd21lV0LtSqWHO+ROGRsN/p2hcuqacP7T7Tu4fmg6NKnKubzMHU6en6ga6yK
JKsrDxeMpZeOw6TvILBqhJM809E5XakrOFExRfoH57n9oVbVDik+tUcz0iJdIZJY6B+M6ZB8nPV23s/+ksxSXrSBHD9eiVe2CraK
jhyqX2sFqcdmZEcs3VaieJtZ1PEweyBquKuA5k4KaLYyX7ASagBUYH+0YrT3eeuDjiZr7o1YfUkJ3EfaO3NnqRsentMSBit9RNxl
ae+RY30AOZQrAFdVD8kbIH6BHQJqb3L69ShxIdakE2Q/hUhrY161mvMtXcOJfgZ+iZJ+1zp6/Oi3qCN07DP1Ek5dVoLfGzk2EtpN
HSPO6DePE74+ufDw+vQFS5++cGz6NOjSRhX75OrTlv4sgT3kM/B7Fn7njT4d9wfTm1s7tzp7t/e2dmB1L3wTFGk5Ozj/+ZfWbna2
OxvXcYXndtZe6Tx3jj+hPjd372v3nms25+59EZL5L8D6n+vd3Wmei18H5pfu9WtnP/zAuffOb3mnXicN+elBPbNPMumrLi9Tjwvp
DoUU1/VsuxXV19kx41Omcx7ffOb4sro7N667Jau71lB3jbHd1cd0t9CY3J0Z5hvZ/T4zrl9S4LjfRep3vqH7bY0d5rPjuiNslequ
uXiEYZ4f129rwvTnxwyz8waQaEhk3SHC7haO7CDxox//6b3cQSJ3kMgdJHIHidxBIneQyB0kcgeJ3EEid5DIHSRyB4ncQSJ3kMgd
JHIHidxBIneQyB0kPlYHCS93kDC2+oI8KV35BPyehLxykCjIU9KRp6V7ZAeJ9c/84vlPs4OE6xZA/3ByB4ncQSJ3kMgdJHIHidxB
IneQ+HQ6SHi5g4QFEi1QKM/AT33g4Qw5SJy+8+93P80OEgUgfkRPuYNE7iCRO0jkDhK5g0TuIJE7SOQOErmDRO4gkTtI5A4SuYPE
UfTp/18HiYKtP7ODhMMOEo5xkOgWj9cpQn8mn/tD5P4QD+YP0b/0X2Ebt0s=
"""


class TestParentWrittenDirectories:
    @pytest.mark.parametrize(
        "name, shard",
        [
            ("single", ShardConfig()),
            ("sharded", ShardConfig(shards=4, backend="inline")),
        ],
    )
    def test_warm_start_reaches_the_recorded_fingerprint(self, tmp_path, database, name, shard):
        fixture = pickle.loads(zlib.decompress(base64.b64decode(PARENT_PERSIST_DIRS)))[name]
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        for file_name, data in fixture["files"].items():
            (state_dir / file_name).write_bytes(data)
        config = EngineConfig(
            cache=CacheConfig(size=8, window=4),
            shard=shard,
            persist=persist_config(tmp_path, fsync="never"),
        )
        engine = build_engine(database, config)
        assert engine.persister.restored
        assert cache_fingerprint(engine) == fixture["fingerprint"]
        # Every recovered entry sits in exactly one home partition, the one
        # the recovered state names (the sharded writer's replicated entry
        # included).
        held = {
            entry_id: shard.shard_id
            for shard in engine.shard_runtime.shards
            for entry_id in shard.entry_ids()
        }
        assert sum(map(len, engine.shard_runtime.shards)) == len(held)
        assert held == engine.placement.entry_shard
        assert sorted(held) == sorted(engine.cache.entry_ids())
        engine.close()

    @pytest.mark.parametrize(
        "name, shard",
        [
            ("single", ShardConfig()),
            ("sharded", ShardConfig(shards=4, backend="inline")),
        ],
    )
    def test_format_3_warm_start_codes_features_like_an_extraction(
        self, tmp_path, database, queries, name, shard
    ):
        fixture = pickle.loads(zlib.decompress(base64.b64decode(PARENT_FORMAT_3_DIRS)))[name]
        plant(tmp_path, fixture)
        config = EngineConfig(
            cache=CacheConfig(size=8, window=4),
            shard=shard,
            persist=persist_config(tmp_path, fsync="never"),
        )
        engine = build_engine(database, config)
        assert engine.persister.restored
        assert cache_fingerprint(engine) == fixture["fingerprint"]
        extractor = engine.method.extractor
        for entry in engine.cache.entries():
            assert entry.features.feature_codes() == extractor.extract(entry.graph).feature_codes()
        scan = create_method("scan")
        scan.build_index(database)
        for query in queries[44:84]:
            assert set(engine.query(query).answers) == scan.query(query).answers
        engine.close()


#: a 4-shard persist directory the last format-2 build wrote (a snapshot
#: after query 20 and two ``flush`` records, queries 24 and 28), with the
#: ``cache_fingerprint`` it had at close — pickle + zlib + base64
FORMAT_2_DIR = """
eNrNPGtzI8dxxAIE3zzeUyfJThynbCxIPAgsHgvCjinJtmKvimX5XHH5g8PweJD26DviRAKy5EgVJfGRToKq0JVV5TPu9QtSiWPn
VU6q7A/54g88VqXyheD3PH5BMtPd09u74OPupKhyKmi7Z3t6enp6u3t6Z/lB6sPv/e4I/Hs/sHujb9y81doONHj1+2u38ouRf069
sN16M3jZaoyMfO3V17/90muLpVl7ZOS/vjl95YPRD5M2MlJcbnW3/eC7isvcVuvOVruw3t5qFbb9ta0bQW/ylbV1v/Xl1q3OWvAX
QfYPYbSxt1tb2zfbm4H3+d5o60573Q+80Z7VvhMo9O2b6x11xf5eojfe2uxsvbt6UyHT6rZGgpXudT+FzPwxL+OPe6P+hD/pT3mW
P+3N+DNRAlsQjCiC2ThBNkZwLk4wjwS99M3N7dZWJ1B0SUV3yZ/xrd7kNS3rV0AyM0d9szf65tbaHT/oXUC9ALZdoMbp19aut261
brwKKPRb0cpJba7dbgW9sbfKi6utUlmpcHXtxsbaemtz/V3N2dNr5yVWPGvFS654qRVvdMVLr3hjK974ijex4k2udL0EENKtrme9
Hyhs20vSNUXXUSJLKJq0gMfo/jhdJ+g6iddub2z1lpZ+GwXqJV9Tgqq1Sr626AaepfFq4CU1Xgu8lL4u6iVWV9We1tdS4I3payPw
xn3Xm9B9FM2kvlaCbm8aR1i9uXmj9Q5otPzneqw939HXxJ5f0Vdrz6/qa3LPr+lras+v6+vonu/q67iX3vMbGhrb85f0dWLPb+rr
5F5XqXaze3u1deNN9Rgo65qhMdfb3c3OdtCbWm/futVa7yhTVdjYK7q5taXWCsTxEr6jfhX1q6pfTf3q6ucqG2yo65L6Nb1E927w
zaC7E1zvjb/RWut0t9RQvatoEKah0Hqns7W23mlvBb0ZsIevGlJ+ZtIklB66djfQA/rlHbr67q5Su42g73RMc101J7C5LpqruwZy
QgLHdzsCqTN1g6mXGGoyVAHIVRJZemiQyNX9kTOAfrljmsthc9kMiEhdIlWJNCSyJJGmRCo0iNaKlgW1ArdDrbikFQubUStIrbWC
kBMSoCKwucEESww1GaoAVIelqaMibA3omx1qNNOvy0nW5STrcpJ1Ocm6mGQdl143hlOr88rWzcoC1GBoiaEmQ7h+VRC7athWQ7aI
GOupMucqc64y5ypzrjJnBziDFnDuDuqyI5AliTQlgtMFEzK967J3Xfauy9510RufE4cldlhihyV2WOIGSNygXg2mbTBtg2mXgHaJ
aJeYYokpykCh2nfwWoFrE1qbTFXReLc3cau9vobu5n0VA9fbN5QLWOlN3Fnr+Kvfa727Hfyoe713br19+44K3TdWO2tbb7ZUtHwB
/cnN7fbt9tYd/+b27YKhCXqzrxD4LaQml+K/6P/69vXeDDO7c2ttM/D/vnfe0L/ebW29+w3dSl16Y0oQ5QEVmeravR4JkQsUQ6+o
2JhQ4e+yio1XORheVsP9GoU4/zd0dCup6FYL/N88K6SFwQximze14k2veDMr3uyKd053gfDGoeuYEAfXNF2PC20JCm36OkXXabrO
0HWWrufw2vUXYVBw+9rl1yDclVQ4S6kwMKpcf1pdx1RoGNftKixOqHAxqcLGlKKdVr8ZHf6cQGUjrko4jrr+F8C3Q5TzLG/Km6YY
lvBm9/xDinIQ3VI6qjUpzlUpug0g3lF8VFGujFHOP9LXGe/cXtf/bW/O/5r/Goyj5NRyH0LYsnSogjA2oLCmw9uRZ3H48l/3v0Wr
+W0Tg1IqAtQoBtXCGKRAv6YevZRBtJ/nO0fyjiPvlMHTahg8NEAmVNU45NT8AUOHBLk7KIwaV7WkbQTBdTOivW3SIE2JDCRyqBGU
etcwPdrVSQrIy21lguo7KGqV9NCk64CuhzscH20YAMVihCNdjcRiZCCRQ4peRjcu68Zl3bisG5d144JugI0rh3bl0K4c2pVDu2Jo
1IMFkGOYo1/W93aiGQB6xCOc9xEPnjJItSPuNCUykMgh2MQRDZ4ACMIzQGWOuZaOhcKi6sKi6qS1BEAY5uukNYQGDB0CBOFQR76a
DIM1DuVV1nmVdV5lnTt3OYLVZDhjvTpCrxwZMVLYEHm5W1l2K4tuJoCY0Zs8+gDuDBg/hNDi/0R5/J+u+D9TAcT/O/8fTQj41+3r
/s/9f0H0FxqNufWccOt6y3Ml4tavDLn18mqrvPgEbj2+U7GMZx8HLw/+XXp23XhO930iF08su9rNc2gQuxjDVJM8ice3Qo+vvXYZ
VKztXfsK5QcqSkc15fFryuM3la9wlLev4mZGeXj0+K7amNaUt68rb19Gb7+xmRgZoW3NgLY14PIt7fwhFCS9US+tgsEMbXhS5PjH
yNGPUwCY2NtoE7NJihKzFAPQ818izw9jkqPHwDUKe5gmOX4VBIATbWfKYgtzXAxQ8waOO+A2AQQnzIh2o9q7EgZPkMBhrGgTe2eD
DzqCX1UydyLMnQglcJb3oQGCUawpwr8ZYdlEeoNW5OCDCOUAYl5a4G4Mr3ei9E4UZ01Q9NBRZQC6hHiC8chGELqY2Dkwns7cbMdu
NimwDqCbCdMDUm8nildjuBPFo8xJSTG8YsbjQD4weyoAWXro0o7I1I7JpPGQnvaZxuISBJpQGBqFjl7SKMxNMxrfDy2A+zcls4pE
BhHOA97AyhWWuBPFje7C+IhrJUCzQtCLGzhUiyZnuKk53FQZbjJzbUdm1I7NCHGjeUlSj+FmY92kyN+UcyAszDWaUekJZ80IkkoM
J7np2XDpiQAK8UQYHCO1udmO3WwaXuKJcGNPgBt7AtzhJ8CNPQFu9Alw+QlwwyfAjT4BbuQJcOMWD4CO4Ow+d0MkNGbZgIpiXyro
abUZo6UMcSeKs9pILzsMOgKMcHViXJ04FzZ4W/pkWq1IU3O4aRBlI0eOWmekyQmn0AxH1q5dDqvx0E5CEqHNSjjrgWA0iDEaDDNi
m2NPsSsQRyC8plxKGphSj7Dqesyq6+EIgEQeuro0ZIFH+0dcSF0aMgjBBSUhoUmTZWgXuOBflaFd4vhQVyOOuxp13NW4464OOe6q
dNxV6birEcddjTnm6pBjNrl7bErO8JSc2JSc6JScuNTOkNSOlNqRUjsRqZ1hKY1RONIonJhRONIonOFFd2KL7kQX3ZFLHW5O4lzK
HDZjeCWG46TL0m0xFt4kdZTZWyEYOpE2OUSbnIIcPNJUGW4aMAf2jO2IZwyjpCtZRpZWNjmCpVhNGYBj+CAclXxIO+IgbBl5j2uq
hPs/G3yWVHYzMlObfRrptxlqtRmdE8flKB7pLC20KWaD1Uvbr8RYVmIsK0MsK5LL4LSN6sZ3FGFkr0otse1qXmxX9bvA5yLb1eeG
tqvOs1QhLWjkWmRab1efuAopX7Ix/JTVSK4+ulil8w/VrmFJ16PU5MtqH9rAl2sVermm2ifVb0pt7qbVvRlYAyo4ulhwHKdCYYJK
jRa9LjMv1ia8Sb33LFPREV6pTXvpvY2uhbvOMdqIToUb0ZloyVHvNo90RYLejtWU0LrM2FBpjuYS2XyeuulMUs0vwYW6BBfqEljJ
O4LtmEUI8O+Im1WJNCRl6Nnw5iG9CHOBBw8AGBQzcehGOHRDNC+xbGWGDkPSQyY9oh3fEe/4jsKK6pEsoh7R4AIPZ6CRJYmUJXJI
m64jMxe8g3NxzU0qkWmoYfacCgwJOGGFG4ehlIdEY14HujuydEgVRbkYrlwMVy6GG1sMVyyGG1kMN7oYbrgYrlgMlxdDVi15MVyx
GFjMTLCopsLJBdcjfhV4FEZIl1SRIHF2QpBnT1i4nSPczJlwOW1DYmbeINEaoUobMZU2pEobxJ4ppUobgvFSpHDrmsK11ooZ6DA2
0KEc6FCu3aEYCIrACTZbLuM2GFpiqMwQqvKIVWmzmZrpML4Uw8sxHGd4RCX6I1AhFJgb4ZOUIJyZAVKWCLEJd+xHqCMbDT/C6VCI
CciSRIAt0GMiQ3IaZYY46pNxsatgkkPmZVTKapFIWSJo88ayjKQhvhTDyzFcjEkPBRuyfi6kFcubh5FNgxiZkCWJlCVySFV38+BV
5YNXZdYNfBHQYN0lCBFG3xB+pMG212Dba4Q+oSG9aUN604bwpg2SKsFP165pxpcJSzjhpZggS0KQJR5+iU1fvA44iqbb3K1siONJ
cbhIhD7Bq4CN61Y8w8KWWIZVUBlWWmVYI/7U1/9H/fOnV+C0VEtnJJfgqMra5vb3W1v6LNP2u5ul4MdBL9VZexPeaadut2+0gt74
dvc6noPa7o2v3bjRurG6puS92vUu6xJ1NjkyYm/Mq///ONjIJfVxtY2CumwU1f+2NxbV/zXtFaaFkRaDs7s8F+3iBKdRd2E2b7S3
bq9BLYYpemk4nratzzbNvKVfk+OZITVp72pvbLP1TgcOrF3tTeHpte3OGp7d8ea8hDfy6gj9U8tyPt5wQWVjkYaL8YZL8YbL8YYr
8YbnYg1dlgzO2aFkSSVMUo1vwZCXFHxZCXdFXZ/zrG5vdqu13lazXn2jfUutmMpYu7vBTlD497mRkd/7y5//9wejH/5q7uM4FVjk
U4Hp408FJuWpwLnjTwUukp1O0our8/EzfSVBoLcKF+IEZUGgTwVejBM4SCBPBWpGV087FXj1I50KTL9Vrqy23Kc7FAh7F9henHIO
8LRDEqed9ytpF1fCs36LdNavSmf9GnjWT5/rG8NzfXAYYrF27Pm+RXoRVsIzDxZtNpL0oitFL8DMiYc0bUzG6G3XePw83/jTnedb
VA6ypOZywrm+/4tzfOZs0CKdDVr0SxAxNOTsmrY6QxWGqgzhbqEECXcJOMEVOCUAwtflJeKEUIWhKkM1gMx5rUU6M2XGd3h8h8d3
eHxTq8RedaatM22daaFa4FeItsIUFaYwp9GQosrti9C+aM6c/L85M/X+s56ZqpCHMS/Xn49UK54fqlZUn7BawUelwrLFNJCZY1OR
I8FchXiaM1PiODBUKUae5MxUgd+gV8h9OGDvUAhIqd+o31cK6WP1wtXVi7I3oR7LSTpSPKXgaX2vHngzCp6lt/HwRt3VeupjOWNU
+4d7VNAo4yv1pJfyxr1ze/598hslLGzAy/UH9Ob8IRQ29vxH+Aa967/szfmv+F8F3krOe/BOfNS/D+4i6T9Q14fq90iWLDx/hVbx
dfOcj6qn9d4OPt33zGlGAP0+JXP3+PG/5z9iqI/bawAh/xwzSAnP0yDSl8j9jujzoGNYPSSmfTguVdb88LgUgP49ePms4RIceNLQ
vV1i29fidQTySCIPO4Zjn7ve3zVtDwAqQeGmBFpQcy+JuZdoxgj1d5kAJ2kZpC+R+x1B9oD5PCQ+/R2iNVOzADZ+EadGBDgbRh4y
dR8lp9lg2wOAHoEvemRm80jM5lE4h0dS7EdS7EdC7Ecs9j3gCqyQwT1UKjJAhBggggzuwWwTOBiId49ExrYHBD0Eqv5dOHfQR5sA
Bn2WoG8U1xeq6BNfuE2q6LMqVAvy9R/A9SHuXB7K6T4U070Pk7zPcj3Abck7yr/+YMX/fb0tec//A+Nwe2pP8kf+DxHd1WjMiVaF
E9Vp2gsRJ/pC1ImqBKqmE6gnrPh+pKyJ3B1nFjVycxVyc2VvTGUa436VXFc0AaL0htMg7dDMCaA+JUKOLLyOg7MaN84KR8X8paxG
1/lMPzzjc6qzsigpwVSkvDucnvQjiYrF6YnF6YnF6YkFj36C0hNMSvqR9CTBSUmCk5IEJyVosdq+FsnOTK8+9+pzrz73Gk5lTk5g
Pt6k5ARb3pjBlxihOVNLzKJrMYt+MWLRLw5ZdH21VTnBos+0YrZSh6xUB7WKfpVAVukMpeWV6Ac32upSxuoMlwpa3olWZhJWhxJW
hx2zw8mpE0tJK7SOqGmzYo4pmJ+q+e8Maf7Y10d1pfmxk4obV4eLG07w1DWOT3W953UR4o8TpghR1kWI3QQUIf5EvyH7Uy3axp/p
9yCK+gWm3vhhAsobJ9O+GOW8GGzcPaNLvMbBFKfVOD4lahyfGq5xXFJ2knj1pc//23tbhf5/PlN9wrsab3g+3vBCvOHFs2scsZqG
GsVSjJPAS3U/ucah9gvbm2t3jvlGUrUGL7c/Cx9JXlt56RulVQW/+sE3f/DB6Iff+mz4tWWoY1Hp+Jz4/jF16+bbLZByupfy23q7
f1zp5JiyQuwbyY/01WGpDHuMZ/jqEN+GhjuOMdhuTOu73aeJoce9FOW2Y7YcfM+8HB2uVugqRcLPwJeJesuRpGqE/DJRf7qR9rPq
8V/AKoXabkzQtmOSqhlTvg3bj1JJbz+Kx1UxMrj/UOHbxl3H1J6f5QA+TwF8AQK4Dt05OsSbp682CrQPKeIL1pl4VWPu6aoaas5K
ZkvNy/LnlQ4W1DWnrnn1K6hfUXzi8TFWNubBOc/7mR26+hnMZwH0i5jPIpLviDsLHdPBBt+vodyuaSswVAzZFf0Md8pyp3xIkBcE
C7s88gI1ZyAUZUjWDA+d4aEzPHSGhk4ClGW6PEMLdNfewZYccS3QtbiD94tGIwD6NmoEkVxH3ClIpCiRrOyTl8hCBwfJkhB5cw0H
zctB83LQvBw0T4MmDZKVfcw4CzSphZD/guS/IPkvSP4Lkv+C5L8gJ7XApmHjOx6b7ShlECK22Y4sgG1YOJsWE9sKDBUZysJWz+bF
tGkxU34O9zM5abo5abo5Ybo5tpWcMVOA0FZyxjIBAmP0C8i+INkXJPuCYF9gpgVmWmCmBWZaRDUVmWnCIFnUWZFHSBpEjzCKZgbc
ijxCkUZIonWBVrI4QlbqPit0n6XeCYBQp1nuncdJ57lDEg0KBllA1gti3gt085Mu+M34548p+P3tkxX8zuv8cmVXxwqVznMCP6O4
zpkE/qJK4EsObEkvfwJb0s9hsj8f/Vi/DI+vWpaMMoB5FQbnVRjMYBgsB3jaCGMXVdb2aYv6mLaoGYxwKR3RDsxmVH8I8wX/S9BX
8d9Xy/gYwnDSP5Bbgy/7r5Juvm5iR1J56Pkd9OXqP3L78+Be0gAd7Jq7+ww9Nt5/BzkcUPTZp+vjHePvtbNCbggdMLTP0GOADiCS
HdAdhB4DtA939hl/jBuQv1JW89cr/t/oDchP/J8ZM/qF2n38g/9PiP6zRtE0ZiOmMTtkGhXY211+xr1duNxK5TryK7WoZZ6PLmlS
pyQHtKQ5XFK9fCm5fAfaaT3jsoWLlSPILA2Gx1DJGHBzp6lyI4l7uVCb1IIKPRdR6LmoQlV+SzX0y0914i95zKfHH72G/kzfHdOS
ZiGJU64ZniwVpNSTm1HPho2v2nTtfONLeos3oXK+SUU2RX+NY5rK7zNqVWfV7xxbQ5Z2+nmyhCImsJP0uCfJNlL0uI9Sipveg4Hw
r22MUW47sbexTI1TexsvEThNGfCMNwtfpTW9OWNiWUpKVUIKniIHnkIFbi+B87DUPBLAVF1ewg/UlF2eaY95cgZ5sEeAoDsjywLB
x99GEEIlNheZIBsSZCGBZMSWSE4i+xIpCgRm1kGXljep411MFLOUMGYpg9FQjqF9k2cpEPMEgItMkA8JcL4dgS9HcRCQkaJEFgxr
EBUTo7uYUKGANotlh2LZQiybxbJDseyYWHZMLFuKZUuxbCGWLcQCZvChjAZg1Q1oVtjgJCVjsM58sygpsxHKLCWxIb4fw4tR3Kyv
ZVoWQvemMkDUYC7UW07oLcd6y4V6y8X0lJN6ykk95YSeclJPy0ZPy6GeliN6WY7qZVnqZTmil+WYHpZjelge0sOy1IOJoKiHfZ7w
fjjhfTmnfTGnfWmS+zgPfWUWRkgEQxZSHEBRFkiYVXqb3aFcOVyJYihOUYpTFOIUpThFFEdTsBoBzu5ysxCiyEJk72K+vG/Gy6KE
HWzGSWZDcuAB8Zbz6X3JOS+lysM2Db0pJNgA8RwsQk2HBKThJ0fh+aEoPC+i8FwkCs8NpTW1Tzrj1elLFmILpEAYSEZVyEljeBlT
reMcCg8oFGYpFO5TnjuPUS6p4hzHtxRFzNEwDqaj2S+OnYC4pkIWBTEd7nDss5OqA5PRchA7kHHrgNJWDWUZyjPplwwpJVrQFzMv
So4P6CE8ICM7MKaViDkMHIqRrETyAgnNyDzlRAxQ3kAhmbF9czMrb4J5K0MNm4wZn2ygvxoy0F8JAz0fMdDzQwZa/zjy7sew6OrR
w4qjPh/lZ8jEHpOJma1UHk1s49P0PUWS0qxUNBV/THakjefT+NFE5hQDMtkEbX38x7SNURB0N4hZEVqrx+ROBdG+IYKmuwZAUgKJ
C+yENLbDa3fiKl204qt00QpX6UJklS4MJfMu/Im8s/3IMQdiPo4/HHTMIZiIw8ng2uutNTkczFzTKpcdU8uoHI7Kz22Vn89jfl4P
Yg4og2/dkqF9hG6H0+pRSrrNxnyMHdUk5egqHb9mmXRc29O09E0oZjy5XmCPZUEWfs0601WZnZ3FrioBUAZPkQCItSKATYn3wCTk
lnRsiFyzQoS3+ugjLOSI5V1sxuKXqegeUNnzICxLGgESAJtCrxAgIwXISAEyLEAmFCDDAiBHEoBMX1dJD8KK6wHsEQwSycrzNKzE
r1kRPMzSNYI5gdk4mwLgAdSdE8R8J+7sgWXM75O/x+QAk3udZYeKskP1ILIskWtWiJBvsdmH26SRBGfnlBszd0JjKXrI1pDvSyQv
kYVdGaRsE4sM/+UYv+OCmIxbxO8af5yhIcGP0P1dgeQlIlJbG2Kd0WMk7hGZKIOaJc3zzdPzr5eHHOfLwnFejDjOi0PhrfFJ5185
9CToY5KY92DVQtcbM8od2viX0hzjAnNYnEqRM0voBMs4PyvMtUycTJOrU5nZL8nVxYqQOXgHZhk3h6kXFxl++WTuLUfuLcfuLQfe
BdtshkyhKyfdWQ5GYYRTcxOlzcuiHO/5c7znz4XPXSZkhAjnSWZvnqO9eY735jn52Irutuyeu4svKXK0MRWdcrJTLtIpdDBIQuAJ
CWTIxuCc0v3SJBYakDfOzPV+OvQw/DR8GLq91O1WZw1frQ+f4Vh8isMbc/CW2d4YjX5BMo5fkEzq70Om4AuSaf0FiaKejVKXg41Z
/f2Ihivm7MhGGr9aOZnLOeZyNu1clHbj0qkdLnW982GHM2kvhLQXzqK9GBNET3zj4pOI1O2N6sMkcBjCT6gnlklOO5RySRxKuTR8
KGU6flxkJt4wG284F2+Yizecjzec+fHOMYdSppVvm/EsGF8PGfsQ59hDKd2C5vTGzc03W1t3tm5u6oNF3w1sW8184QvyjMdn9MGO
L2bor0lnPvPe77z3xVLpM+99RV3KvxX00hltg5lAP17hoZ3/oOfgbtBRAl4+iSf8DU/iWUOetShPOXl/GtldOYkd/O24CLvyomG3
mAn57hzP97mT+DpCzEpMTOdEMa/27OPZ6S9wkFsDmLliysz0BBmfP0nG6imqLJ8o4wsnyVg7ScaT5/viSbz0Vhh5VYFX5YnXpLUT
dAv/C8Lj7DE=
"""


def plant(tmp_path, fixture):
    """Write a fixture's files into ``tmp_path / "state"``."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    for file_name, data in fixture["files"].items():
        (state_dir / file_name).write_bytes(data)
    return state_dir


class TestFormat2Directory:
    def test_warm_start_converts_its_answers_at_attach(self, tmp_path, database, capsys):
        fixture = pickle.loads(zlib.decompress(base64.b64decode(FORMAT_2_DIR)))
        state_dir = plant(tmp_path, fixture)
        config = EngineConfig(
            cache=CacheConfig(size=8, window=4),
            shard=ShardConfig(shards=4, backend="inline"),
            persist=persist_config(tmp_path, fsync="never"),
        )
        # the read-only probe reads the format-2 flush records as they are
        assert persist_inspect.main([str(state_dir), "--records"]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        flushes = [line for line in lines if line[0] == "flush"]
        assert [line[-1] for line in flushes] == ["queries=24", "queries=28"]
        engine = IGQ(create_method("ggsx", max_path_length=3), config)
        assert engine.persister.restored
        assert {entry.answers.__class__ for entry in engine.cache.entries()} == {frozenset}
        engine.build_index(database)
        assert {entry.answers.__class__ for entry in engine.cache.entries()} == {CandidateBitmap}
        assert cache_fingerprint(engine) == fixture["fingerprint"]
        held = {
            entry_id: shard.shard_id
            for shard in engine.shard_runtime.shards
            for entry_id in shard.entry_ids()
        }
        assert held == engine.placement.entry_shard
        engine.close()


# ----------------------------------------------------------------------
# Formats 3 and 4: native entries, the answers' dataset, format-3 spelling
# ----------------------------------------------------------------------
class TestFormat3:
    def test_the_state_names_the_answers_id_space(self, tmp_path, database, queries):
        engine = build_engine(database, engine_config(tmp_path))
        for query in queries[:WINDOW]:
            engine.query(query)
        engine.close()
        (_, _, state), = wal_flushes(tmp_path / "state")
        assert state["id_space"] == engine.method.id_space.fingerprint()
        entry = next(engine.cache.entries())
        _, meta = restore.recover_dir(tmp_path / "state").entries()[0]
        assert meta["answer"] == entry.answers.mask

    def test_a_snapshot_copies_what_each_insert_journalled(
        self, tmp_path, database, queries, monkeypatch
    ):
        journalled = {}
        real_append = wal.WalWriter.append

        def recording_append(writer, obj):
            _, (_, deltas, entries, _) = obj
            inserted = [i for op, i in zip(deltas[2].replace("f", ""), deltas[4]) if op == "i"]
            journalled.update(zip(inserted, entries))
            return real_append(writer, obj)

        monkeypatch.setattr(wal.WalWriter, "append", recording_append)
        engine = build_engine(
            database, EngineConfig(cache=CACHE, persist=persist_config(tmp_path, snapshot_interval=30))
        )
        for query in queries[:60]:
            engine.query(query)
        engine.close()
        assert engine.persister.stats()["snapshots"] == 1
        (_, newest), = snapshot.list_snapshots(tmp_path / "state")
        payload = snapshot.load_snapshot(newest)
        assert payload["version"] > len(engine.cache)  # written mid-stream
        snapshotted = dict(zip(payload["ids"], payload["entries"]))
        assert len(snapshotted) == CACHE.size
        assert snapshotted.items() <= journalled.items()

    def test_a_warm_start_on_another_dataset_is_refused(self, tmp_path, database, queries):
        config = engine_config(tmp_path)
        engine = build_engine(database, config)
        for query in queries[:30]:
            engine.query(query)
        engine.close()
        other = load_dataset("synthetic", scale=0.2)
        assert other.ids() != database.ids()
        with pytest.raises(ConfigError, match=r"persist\.dir '.*state' journals answer sets over another dataset"):
            build_engine(other, config)
        attached = build_engine(other, engine_config(None))
        with pytest.raises(ConfigError, match="persist.dir"):
            attach_persistence(attached, config.persist)
        assert len(attached.cache) == 0  # refused before anything was restored
        # the directory itself is intact: its own dataset still warm-starts
        reopened = build_engine(database, config)
        assert cache_fingerprint(reopened) == cache_fingerprint(engine)
        reopened.close()

    @pytest.mark.parametrize("name", ["single", "sharded"])
    def test_recovery_respells_another_label_table(self, tmp_path, database, queries, name):
        """A format-3 directory spelt its codes with the writing process's
        label table, which its records name; recovery reads each code back
        as its key and codes that, so the restarted engine holds the codes
        a fresh extraction gives and answers, probes and accounts exactly
        like an engine that never restarted."""
        fixture = pickle.loads(zlib.decompress(base64.b64decode(PARENT_FORMAT_3_DIRS)))[name]
        state_dir = plant(tmp_path, fixture)
        (_, segment), = wal.list_segments(state_dir)
        spelling, *_ = wal.read_segment(segment).records[0][1]
        assert spelling  # the writer's label table, named in the record
        shard = ShardConfig() if name == "single" else ShardConfig(shards=4, backend="inline")
        cache = CacheConfig(size=8, window=4)
        reader = build_engine(
            database,
            EngineConfig(
                cache=cache, shard=shard, persist=persist_config(tmp_path, fsync="never")
            ),
        )
        reference = build_engine(database, EngineConfig(cache=cache, shard=shard))
        for query in queries[:44]:
            reference.query(query)
        assert cache_fingerprint(reader) == cache_fingerprint(reference) == fixture["fingerprint"]
        codes = {e.entry_id: e.features.feature_codes() for e in reference.cache.entries()}
        assert {e.entry_id: e.features.feature_codes() for e in reader.cache.entries()} == codes
        tail = queries[44:74]
        assert result_fingerprint([reader.query(q) for q in tail]) == result_fingerprint(
            [reference.query(q) for q in tail]
        )
        assert cache_fingerprint(reader) == cache_fingerprint(reference)
        reader.close()
        reference.close()


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
        assert segments and wal_flushes(state_dir)  # format-3 flush records
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
        graph = make_path_graph("AB", name="g1")
        features = FeatureExtractor().extract(graph)
        committed = wal.Delta(1, 0, "insert", 0, 1, wal.Entry(1, graph, features))
        writer = wal.WalWriter(tmp_path / wal.segment_name(0))
        writer.append(("delta", committed))
        writer.append(("meta", {1: {"answer": [], "tags": (), "added_at": 1}}))
        writer.append(("state", {"format": 1, "query_counter": 10}))
        orphan = wal.Delta(2, 0, "insert", 0, 2, wal.Entry(2, graph, features))
        writer.append(("delta", orphan))  # no closing state marker
        writer.sync()
        writer.close()
        recovered = restore.recover_dir(tmp_path)
        assert recovered.state["query_counter"] == 10
        assert [entry_id for entry_id in recovered.live] == [1]


    def test_segments_after_an_unclean_one_are_discarded_loudly(self, tmp_path, caplog):
        """A torn record invalidates every later segment — and says so."""
        graph = make_path_graph("AB", name="g1")
        features = FeatureExtractor().extract(graph)
        first = wal.WalWriter(tmp_path / wal.segment_name(0))
        first.append(("delta", wal.Delta(1, 0, "insert", 0, 1, wal.Entry(1, graph, features))))
        first.append(("meta", {1: {"answer": [], "tags": (), "added_at": 1}}))
        first.append(("state", {"format": 1, "query_counter": 10}))
        first.close()
        later = wal.WalWriter(tmp_path / wal.segment_name(7))
        later.append(("delta", wal.Delta(2, 0, "evict", 0, 1)))
        later.append(("state", {"format": 1, "query_counter": 20}))
        later.close()
        torn = tmp_path / wal.segment_name(0)
        torn.write_bytes(torn.read_bytes() + b"\x07\x00")  # a cut-off header
        with caplog.at_level(logging.WARNING, logger="repro.persist"):
            recovered = restore.recover_dir(tmp_path)
        assert recovered.state["query_counter"] == 10  # the later commit never applied
        assert list(recovered.live) == [1]
        messages = [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.persist.restore"
        ]
        assert len(messages) == 1
        assert wal.segment_name(7) in messages[0] and "torn record header" in messages[0]

    def test_a_format_2_flush_commits_as_one_record(self, tmp_path):
        graph = make_path_graph("AB", name="g1")
        features = FeatureExtractor().extract(graph)
        meta = {1: {"answer": [], "tags": (), "added_at": 1}}
        insert = wal.Delta(1, 0, "insert", 2, 1, wal.Entry(1, graph, features))
        writer = wal.WalWriter(tmp_path / wal.segment_name(0))
        first = ([insert, wal.Delta(2, 1, "flush", -1)], meta, {"format": 2, "query_counter": 10})
        writer.append(("flush", first))
        evict = wal.Delta(3, 1, "evict", 2, 1)
        second = ([evict, wal.Delta(4, 2, "flush", -1)], {}, {"format": 2, "query_counter": 20})
        writer.append(("flush", second))
        writer.close()
        whole = tmp_path / wal.segment_name(0)
        data = whole.read_bytes()
        recovered = restore.recover_dir(tmp_path)
        assert (recovered.state["query_counter"], list(recovered.live)) == (20, [])
        # A torn second record drops exactly that flush.
        whole.write_bytes(data[:-1])
        recovered = restore.recover_dir(tmp_path)
        assert (recovered.state["query_counter"], list(recovered.live)) == (10, [1])
        assert recovered.live[1].shard == 2 and recovered.meta == meta

    @pytest.mark.parametrize(
        "record, message",
        [
            (("bogus", {}), "unknown WAL record kind 'bogus'"),
            (("delta", "too", "long"), "malformed WAL record"),
            ("flush", "malformed WAL record"),
        ],
    )
    def test_an_unreadable_record_is_a_typed_error(self, tmp_path, record, message):
        """A checksum-valid record recovery cannot interpret fails loudly
        instead of being skipped (which would lose what it journaled)."""
        writer = wal.WalWriter(tmp_path / wal.segment_name(0))
        writer.append(("state", {"format": 1, "query_counter": 10}))
        writer.append(record)
        writer.close()
        with pytest.raises(ValueError, match=message) as excinfo:
            restore.recover_dir(tmp_path)
        assert wal.segment_name(0) in str(excinfo.value)

    def test_unknown_op_in_wal_replay_is_a_typed_error(self, tmp_path):
        record = wal.Delta(1, 1, "melt", -1)
        writer = wal.WalWriter(tmp_path / wal.segment_name(0))
        writer.append(("delta", record))
        writer.close()
        with pytest.raises(ValueError, match="unknown delta op 'melt'"):
            restore.recover_dir(tmp_path)


# ----------------------------------------------------------------------
# The 3.x hot-key changes a format-1/2 journal may hold
# ----------------------------------------------------------------------
def legacy_entry(entry_id: int) -> wal.Entry:
    graph = make_path_graph("AB", name=f"g{entry_id}")
    return wal.Entry(entry_id, graph, FeatureExtractor(max_path_length=3).extract(graph))


def legacy_change(version: int, op: str, shard: int, entry: wal.Entry) -> wal.Delta:
    """A ``replicate`` / ``move`` change as a pre-4.0 WAL holds it."""
    return wal.Delta(version, 0, op, shard, entry.entry_id, entry)


class TestLegacyFold:
    """Nothing writes ``replicate`` / ``move`` any more, but the fold WAL
    replay runs must still read them."""

    def inserts(self):
        return [
            wal.Delta(1, 0, "insert", 0, 1, legacy_entry(1)),
            wal.Delta(2, 0, "insert", 1, 2, legacy_entry(2)),
        ]

    def test_move_rewrites_the_live_insert(self):
        moved = legacy_entry(2)
        records = self.inserts() + [wal.Delta(3, 1, "flush", -1)]
        live = restore._fold({}, records + [legacy_change(4, "move", 0, moved)])
        # The live insert takes the move's shard and payload but keeps its
        # version, so the replay order is stable.
        rewritten = live[2]
        assert (rewritten.op, rewritten.shard, rewritten.version) == ("insert", 0, 2)
        assert rewritten.entry is moved
        assert sorted(live) == [1, 2]

    def test_replicate_supersedes_insert(self):
        records = self.inserts() + [
            legacy_change(3, "replicate", -1, legacy_entry(1)),
            wal.Delta(4, 1, "flush", -1),
        ]
        live = restore._fold({}, records)
        assert [(r.op, r.entry_id) for r in sorted(live.values(), key=lambda r: r.version)] == [
            ("insert", 2),
            ("replicate", 1),
        ]

    def test_standalone_replicate_stays_live(self):
        # A born-hot entry's only record was its replicate: it stays live.
        record = legacy_change(1, "replicate", -1, legacy_entry(7))
        assert restore._fold({}, [record]) == {7: record}

    def test_evict_drops_a_replicated_entry(self):
        records = self.inserts()[:1] + [
            legacy_change(2, "replicate", -1, legacy_entry(1)),
            wal.Delta(3, 0, "evict", -1, 1),
        ]
        assert restore._fold({}, records) == {}


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

    def test_prints_one_line_per_flush_record(self, tmp_path, database, queries, capsys):
        config = EngineConfig(
            cache=CACHE, persist=persist_config(tmp_path, snapshot_interval=10_000)
        )
        engine = build_engine(database, config)
        for query in queries[:30]:
            engine.query(query)
        engine.close()
        status = persist_inspect.main([str(tmp_path / "state"), "--records"])
        lines = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("flush ")
        ]
        assert status == 0
        expected = []
        (segment,) = wal.list_segments(tmp_path / "state")
        scan = wal.read_segment(segment[1])
        assert sum(scan.sizes) + len(wal.MAGIC) == scan.total_bytes
        for (_, payload), size in zip(scan.records, scan.sizes):
            records, _, state = restore.read_flush(payload)
            expected.append(
                f"flush v{records[0].version}-{records[-1].version} "
                f"inserted={[r.entry_id for r in records if r.op == 'insert']} "
                f"evicted={[r.entry_id for r in records if r.op == 'evict']} "
                f"bytes={size} queries={state['query_counter']}"
            )
        assert lines == expected
        assert [line.split()[-1] for line in lines] == ["queries=10", "queries=20", "queries=30"]
        assert "evicted=[]" in lines[0] and "evicted=[]" not in lines[-1]

    def test_reads_a_format_1_directory(self, tmp_path, capsys):
        fixture = pickle.loads(zlib.decompress(base64.b64decode(PARENT_PERSIST_DIRS)))["single"]
        state_dir = plant(tmp_path, fixture)
        assert persist_inspect.main([str(state_dir), "--records"]) == 0
        kinds = [line.split()[0] for line in capsys.readouterr().out.splitlines()[4:]]
        assert kinds == ["delta"] * 9 + ["meta", "state"]

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


# ----------------------------------------------------------------------
# The journal writer behind a service
# ----------------------------------------------------------------------
class TestJournalWriter:
    """A flush's WAL append and fsync run on the persister's journal writer
    thread, and the service acknowledges no result computed after a flush
    before that flush is durable."""

    @staticmethod
    def open_service(tmp_path, database) -> GraphQueryService:
        return GraphQueryService(
            create_method("ggsx", max_path_length=3), engine_config(tmp_path), database=database
        ).open()

    def test_acknowledgement_order_is_durability_order(
        self, tmp_path, database, queries, monkeypatch
    ):
        entered, release = threading.Event(), threading.Event()
        real_sync = wal.WalWriter.sync

        def blocked_sync(writer):
            entered.set()
            assert release.wait(60)
            real_sync(writer)

        monkeypatch.setattr(wal.WalWriter, "sync", blocked_sync)
        service = self.open_service(tmp_path, database)
        resolved = []
        try:
            before = [service.submit(query) for query in queries[: WINDOW - 1]]
            assert all(future.done() for future in before)
            flushing = service.submit(queries[WINDOW - 1])
            assert entered.wait(60)
            pending = [flushing] + [service.submit(query) for query in queries[WINDOW : WINDOW + 5]]
            for index, future in enumerate(pending):
                future.add_done_callback(lambda _, index=index: resolved.append(index))
            assert not any(future.done() for future in pending)
        finally:
            release.set()
        results = [future.result(timeout=60) for future in pending]
        service.close()
        assert resolved == list(range(len(pending)))
        assert [result.query_name for result in results] == [
            query.name for query in queries[WINDOW - 1 : WINDOW + 5]
        ]

    def test_a_failed_write_reaches_every_pending_future(
        self, tmp_path, database, queries, monkeypatch
    ):
        release = threading.Event()

        def failing_sync(writer):
            assert release.wait(60)
            raise OSError(5, "simulated I/O error")

        monkeypatch.setattr(wal.WalWriter, "sync", failing_sync)
        service = self.open_service(tmp_path, database)
        try:
            futures = [service.submit(query) for query in queries[: WINDOW + 3]]
        finally:
            release.set()
        assert all(future.result(timeout=60) for future in futures[: WINDOW - 1])
        error = futures[WINDOW - 1].exception(timeout=60)
        assert isinstance(error, OSError) and "simulated" in str(error)
        assert [future.exception(timeout=60) for future in futures[WINDOW:]] == [error] * 3
        with pytest.raises(ServiceClosed, match="failed") as closed:
            service.submit(queries[0])
        assert closed.value.__cause__ is error
        service.close()

    def test_an_acknowledged_flush_is_already_in_the_journal(self, tmp_path, database, queries):
        service = self.open_service(tmp_path, database)
        for query in queries[: WINDOW - 1]:
            service.submit(query).result(timeout=60)
        assert wal_flushes(tmp_path / "state") == []
        service.submit(queries[WINDOW - 1]).result(timeout=60)
        ((_, _, state),) = wal_flushes(tmp_path / "state")
        assert state["query_counter"] == WINDOW
        service.close()
