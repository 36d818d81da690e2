"""Tests for shared-memory worker snapshots (:mod:`repro.core.shm`).

Three contracts:

* **Segment lifecycle** — ``publish`` creates one segment per snapshot,
  handles round-trip the object bit-exactly, ``close`` unlinks exactly once
  (double close is a no-op), and the refcounted method-level API unlinks on
  the last release with :meth:`release_shared_payloads` as the force-unlink
  safety net wired into ``IGQ.close``.
* **Fallback** — when shared memory is unavailable the publishing entry
  points return ``None`` and the pools initialise from the classic pickled
  ``initargs`` payload, with identical answers.
* **Byte-identity** — process pools fed through shared memory (batch
  executor workers and per-shard replicas) produce the same answers,
  accounting and cache state as the inline run.
"""

from __future__ import annotations

import glob
import random

import pytest

from repro.core import IGQ
from repro.core import shm
from repro.core.batch import BatchExecutor
from repro.methods import ScanMethod, create_method

from .conftest import engine_config, make_path_graph, random_labeled_graph
from .test_shard import engine_fingerprint, run_engine

needs_shm = pytest.mark.skipif(
    not shm.shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture
def no_shared_memory(monkeypatch):
    """Force the pickle fallback regardless of platform support."""
    monkeypatch.setattr(shm, "_force_disabled", True)


def leaked_segments() -> list[str]:
    return glob.glob("/dev/shm/psm_*")


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------
@needs_shm
class TestSegmentLifecycle:
    def test_publish_load_roundtrip(self):
        payload = {"graphs": [make_path_graph("ABC")], "answer": 42}
        snapshot = shm.publish(payload)
        assert snapshot is not None
        try:
            loaded = snapshot.handle.load()
            assert loaded["answer"] == 42
            assert repr(loaded["graphs"][0]) == repr(payload["graphs"][0])
        finally:
            snapshot.close()

    def test_handle_is_tiny(self):
        import pickle

        snapshot = shm.publish(list(range(100_000)))
        try:
            assert len(pickle.dumps(snapshot.handle)) < 200
        finally:
            snapshot.close()

    def test_close_unlinks_and_is_idempotent(self):
        snapshot = shm.publish("payload")
        name = snapshot.handle.name
        assert not snapshot.closed
        snapshot.close()
        assert snapshot.closed
        snapshot.close()  # double close: no-op, no exception
        with pytest.raises(FileNotFoundError):
            snapshot.handle.load()
        assert f"/dev/shm/{name}" not in leaked_segments()

    def test_context_manager_closes(self):
        with shm.publish("payload") as snapshot:
            handle = snapshot.handle
            assert handle.load() == "payload"
        assert snapshot.closed

    def test_publish_unavailable_returns_none(self, no_shared_memory):
        assert not shm.shared_memory_available()
        assert shm.publish("anything") is None


@needs_shm
class TestRefcountedPayloads:
    def make_method(self, tiny_database):
        method = ScanMethod()
        method.build_index(tiny_database)
        return method

    def test_acquire_release_refcounting(self, tiny_database):
        method = self.make_method(tiny_database)
        first = method.acquire_shared_payload(mode="subgraph")
        second = method.acquire_shared_payload(mode="subgraph")
        assert first is not None and first == second  # published once
        method.release_shared_payload("subgraph")
        assert first.load() is not None  # one reference still held
        method.release_shared_payload("subgraph")
        with pytest.raises(FileNotFoundError):
            first.load()  # last release unlinked the segment

    def test_modes_publish_separate_segments(self, tiny_database):
        method = self.make_method(tiny_database)
        sub = method.acquire_shared_payload(mode="subgraph")
        sup = method.acquire_shared_payload(mode="supergraph")
        assert sub.name != sup.name
        method.release_shared_payloads()

    def test_release_unpublished_mode_is_noop(self, tiny_database):
        method = self.make_method(tiny_database)
        method.release_shared_payload("subgraph")  # nothing published: no-op

    def test_release_all_force_unlinks(self, tiny_database):
        method = self.make_method(tiny_database)
        handle = method.acquire_shared_payload(mode="subgraph")
        method.acquire_shared_payload(mode="subgraph")  # refcount 2
        method.release_shared_payloads()
        with pytest.raises(FileNotFoundError):
            handle.load()
        assert method._shared_payloads == {}

    def test_acquire_unavailable_returns_none(self, tiny_database, no_shared_memory):
        method = self.make_method(tiny_database)
        assert method.acquire_shared_payload(mode="subgraph") is None

    def test_snapshot_clone_does_not_share_segments(self, tiny_database):
        method = self.make_method(tiny_database)
        method.acquire_shared_payload(mode="subgraph")
        clone = method.verification_snapshot()
        assert clone._shared_payloads == {}
        method.release_shared_payloads()

    def test_loaded_snapshot_verifies(self, tiny_database):
        method = self.make_method(tiny_database)
        handle = method.acquire_shared_payload(mode="subgraph")
        worker_method = handle.load()
        query = make_path_graph("AB")
        assert worker_method.verify(query, worker_method.database.ids()) == method.verify(
            query, tiny_database.ids()
        )
        method.release_shared_payload("subgraph")


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
@pytest.fixture
def small_db():
    from repro.graphs import GraphDatabase

    rng = random.Random(19)
    graphs = [random_labeled_graph(rng, rng.randint(6, 12), 0.3) for _ in range(24)]
    return GraphDatabase.from_graphs(graphs, name="shm_db")


@pytest.fixture
def queries():
    rng = random.Random(23)
    return [random_labeled_graph(rng, rng.randint(3, 5), 0.5) for _ in range(10)]


def run_batch_engine(database, stream, **batch_kwargs):
    method = create_method("ggsx", max_path_length=3)
    engine = IGQ(method, engine_config(8, 3))
    engine.build_index(database)
    with BatchExecutor(engine, **batch_kwargs) as executor:
        results = executor.run_batch(stream)
    fingerprint = engine_fingerprint(engine, results)
    engine.close()
    return fingerprint


@needs_shm
class TestProcessPoolIntegration:
    def test_batch_pool_attaches_and_unlinks(self, small_db, queries):
        baseline = run_batch_engine(small_db, queries)
        before = set(leaked_segments())
        shared = run_batch_engine(small_db, queries, num_workers=2, backend="process")
        assert shared == baseline
        assert set(leaked_segments()) <= before  # every segment unlinked

    def test_batch_pool_pickle_fallback(self, small_db, queries, no_shared_memory):
        baseline = run_batch_engine(small_db, queries)
        fallback = run_batch_engine(small_db, queries, num_workers=2, backend="process")
        assert fallback == baseline

    def test_executor_close_releases_segment(self, small_db, queries):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, engine_config(8, 3))
        engine.build_index(small_db)
        executor = BatchExecutor(engine, num_workers=2, backend="process")
        executor.run_batch(queries[:4])
        assert executor._shared_mode is not None
        assert "subgraph" in method._shared_payloads
        executor.close()
        assert executor._shared_mode is None
        assert method._shared_payloads == {}
        engine.close()

    def test_engine_close_is_a_safety_net(self, small_db):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, engine_config(8, 3))
        engine.build_index(small_db)
        handle = method.acquire_shared_payload(mode="subgraph")
        assert handle is not None
        engine.close()  # force-unlinks what a leaked executor left behind
        assert method._shared_payloads == {}
        with pytest.raises(FileNotFoundError):
            handle.load()

    def test_process_shards_attach_shared_snapshot(self, small_db, queries):
        _, baseline = run_engine(small_db, queries)
        before = set(leaked_segments())
        engine, sharded = run_engine(small_db, queries, shards=2, backend="process")
        assert engine.shard_runtime._acquired_mode == "subgraph"
        engine.close()
        assert sharded == baseline
        assert set(leaked_segments()) <= before
