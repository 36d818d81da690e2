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

import base64
import logging
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
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
from repro.core.shard import DeltaLog, QueryIndexShard, ShardEntry
from repro.datasets import load_dataset
from repro.features.extractor import FeatureExtractor
from repro.isomorphism import Verifier
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


    def test_format_mismatch_rejected(self, tmp_path, database, queries, monkeypatch):
        """One constant stamps the state and gates the restore."""
        config = EngineConfig(cache=CACHE, persist=persist_config(tmp_path))
        engine = build_engine(database, config)
        for query in queries[:WINDOW]:
            engine.query(query)
        engine.close()
        recovered = restore.recover_dir(tmp_path / "state")
        assert recovered.state["format"] == restore.FORMAT_VERSION == 1
        monkeypatch.setattr(restore, "FORMAT_VERSION", 2)
        with pytest.raises(ConfigError, match=r"holds format 1 state.*reads format 2"):
            build_engine(database, config)


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

    def test_sharded_placement_survives(self, tmp_path, database, queries):
        durable = engine_config(tmp_path, SHARDED)
        first = build_engine(database, durable)
        for query in queries[:80]:
            first.query(query)
        placement = dict(first.placement.entry_shard)
        first.close()
        reopened = build_engine(database, durable)
        assert placement == reopened.placement.entry_shard
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
# One write path: flush report -> delta log -> every reader
# ----------------------------------------------------------------------
def record_key(record):
    """A delta record's identity, comparable across a pickle round trip."""
    return (
        record.version, record.epoch, record.op, record.shard, record.entry_id,
        record.entry.graph.name if record.entry is not None else None,
    )


def wal_delta_keys(state_dir):
    return [
        record_key(payload)
        for _, segment in wal.list_segments(state_dir)
        for kind, payload in wal.read_segment(segment).records
        if kind == "delta"
    ]


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
        log = engine.delta_log
        journaled = []
        flushes = 0
        for query in queries[:60]:
            cursor = log.version
            if engine.query(query).maintenance is None:
                assert log.version == cursor  # only a flush writes the log
                continue
            flushes += 1
            tail = log.since(cursor)
            assert tail[-1].op == "flush" and tail[-1].epoch == flushes
            if persisted:
                on_disk = wal_delta_keys(tmp_path / "state")
                assert on_disk[len(journaled):] == [record_key(r) for r in tail]
                journaled = on_disk
        assert flushes == 60 // WINDOW

        # A fresh single-shard reader of the whole log is the whole cache.
        extractor = FeatureExtractor(max_path_length=3)
        reader = QueryIndexShard(0, verifier=Verifier())
        for record in log.since(0):
            reader.apply(replicate.delta_from_wire(replicate.delta_to_wire(record), extractor))
        assert reader.entry_ids() == sorted(engine.cache.entry_ids())
        for query in queries[60:80]:
            features = extractor.extract(query)
            assert (
                reader.find_supergraph_ids(query, features),
                reader.find_subgraph_ids(query, features),
            ) == replicate.leader_probe_ids(engine, query, features)
        engine.close()


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
        assert len(engine.delta_log) == len(engine.cache) + 1  # one bootstrap flush
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


    def test_segments_after_an_unclean_one_are_discarded_loudly(self, tmp_path, caplog):
        """A torn record invalidates every later segment — and says so."""
        log = DeltaLog()
        graph = make_path_graph("AB", name="g1")
        features = FeatureExtractor().extract(graph)
        first = wal.WalWriter(tmp_path / wal.segment_name(0))
        first.append(("delta", log.append_insert(0, ShardEntry(1, graph, features))))
        first.append(("meta", {1: {"answer": [], "tags": (), "added_at": 1}}))
        first.append(("state", {"format": 1, "query_counter": 10}))
        first.close()
        later = wal.WalWriter(tmp_path / wal.segment_name(7))
        later.append(("delta", log.append_evict(0, 1)))
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

    def test_unknown_op_in_wal_replay_is_a_typed_error(self, tmp_path):
        record = DeltaLog().append_flush()
        object.__setattr__(record, "op", "melt")
        writer = wal.WalWriter(tmp_path / wal.segment_name(0))
        writer.append(("delta", record))
        writer.close()
        with pytest.raises(ValueError, match="unknown delta op 'melt'"):
            restore.recover_dir(tmp_path)


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
    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_probe_ids_match_leader(self, database, queries, sharded):
        """Every leader has a log to follow, persisted or not."""
        kwargs = {"cache": CACHE}
        if sharded:
            kwargs["shard"] = SHARDED
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

    def test_truncated_follower_resets_and_replays(self, database, queries, caplog):
        service = GraphQueryService(
            create_method("ggsx", max_path_length=3),
            EngineConfig(
                cache=CACHE,
                shard=ShardConfig(shards=3, backend="inline", compact_threshold=4),
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
                stale = follower.version
                with caplog.at_level(logging.WARNING, logger="repro.persist"):
                    follower.poll()
                assert follower.resets == 1
                (record,) = [
                    r for r in caplog.records if r.name == "repro.persist.replicate"
                ]
                assert f"version {stale}" in record.getMessage()
                assert "resetting" in record.getMessage()
                follower_matches_leader(service, follower, queries[60:80])

    def test_from_config_needs_follow_address(self):
        with pytest.raises(ConfigError, match="persist.follow"):
            CacheFollower.from_config(EngineConfig())

    @pytest.mark.parametrize("op", ["replicate", "move"])
    def test_retired_hot_key_ops_are_invalid_records(self, op):
        """A pre-4.0 leader's hot-key records are not part of the wire any more."""
        data = {"version": 3, "epoch": 1, "op": op, "shard": 1, "entry_id": 7}
        with pytest.raises(ProtocolError, match=r"op='(replicate|move)'") as excinfo:
            replicate.delta_from_wire(data, FeatureExtractor())
        assert excinfo.value.code == "invalid_record"

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
