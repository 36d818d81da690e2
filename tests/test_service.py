"""Tests for the :class:`~repro.service.GraphQueryService` session façade.

Four contracts:

* **Equivalence** — a mixed subgraph+supergraph stream through
  ``submit()``/``stream()`` yields byte-identical answers, hit/miss
  accounting, cache contents and replacement state to the legacy
  sequential ``engine.query()`` loop, across sequential, thread-pool and
  ``shards=4`` configurations.
* **Lifecycle** — ``close()`` verifiably terminates the batch executor's
  verification pool; the service and the standalone engine are context
  managers.
* **Semantics of mixed mode** — subgraph- and supergraph-typed cached
  answers never cross-pollinate (a cached subgraph answer set is not used
  to prune a supergraph query), while both types share one cache.
* **Accounting** — per-session stats partition the totals; ``stats()``
  reports cache occupancy, shard balance and executor counters, and its
  ``as_dict()`` form is JSON-serialisable.
"""

from __future__ import annotations

import gc
import json
import random
import threading
import weakref
from collections import Counter

import pytest

from repro.core import (
    IGQ,
    BatchConfig,
    CacheConfig,
    EngineConfig,
    ShardConfig,
)
from repro.core.config import PersistConfig
from repro.datasets.registry import load_dataset
from repro.graphs import LabeledGraph
from repro.methods import create_method
from repro.service import GraphQueryService, ServiceClosed, ServiceReport
from repro.workloads.generator import QueryGenerator, WorkloadSpec

CACHE = CacheConfig(size=10, window=3)


@pytest.fixture(scope="module")
def database():
    return load_dataset("synthetic", scale=0.12)


@pytest.fixture(scope="module")
def mixed_stream(database):
    """A Zipf-skewed stream of (query, mode) tasks mixing both query types."""
    spec = WorkloadSpec(
        name="zipf", graph_distribution="zipf", node_distribution="zipf",
        alpha=1.2, seed=9,
    )
    pool = QueryGenerator(database, spec).generate(12)
    rng = random.Random(17)
    tasks = []
    for _ in range(36):
        query = pool[min(int(rng.paretovariate(1.2)) - 1, len(pool) - 1)]
        mode = "supergraph" if rng.random() < 0.4 else "subgraph"
        tasks.append((query, mode))
    return tasks


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
            entry.tags.get("mode"),
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


def mixed_config(**overrides):
    return EngineConfig(mode="mixed", cache=CACHE, **overrides)


def sequential_baseline(database, tasks):
    """The legacy path: one engine, a plain per-mode query() loop."""
    method = create_method("ggsx", max_path_length=3)
    engine = IGQ(method, mixed_config())
    engine.build_index(database)
    results = [engine.query(query, mode) for query, mode in tasks]
    return engine_fingerprint(engine, results)


# ----------------------------------------------------------------------
# Equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
class TestMixedStreamEquivalence:
    @pytest.mark.parametrize(
        "batch,shard",
        [
            pytest.param(BatchConfig(), ShardConfig(), id="sequential"),
            pytest.param(
                BatchConfig(num_workers=2),
                ShardConfig(),
                id="threads",
            ),
            pytest.param(
                BatchConfig(),
                ShardConfig(shards=4, backend="inline"),
                id="shards4-inline",
            ),
        ],
    )
    def test_stream_matches_sequential_loop(self, database, mixed_stream, batch, shard):
        baseline = sequential_baseline(database, mixed_stream)
        method = create_method("ggsx", max_path_length=3)
        config = mixed_config(batch=batch, shard=shard)
        with GraphQueryService(method, config, database=database) as service:
            results = list(service.stream(mixed_stream, max_in_flight=5))
            fingerprint = engine_fingerprint(service.engine, results)
        assert fingerprint == baseline

    def test_submit_futures_match_sequential_loop(self, database, mixed_stream):
        baseline = sequential_baseline(database, mixed_stream)
        method = create_method("ggsx", max_path_length=3)
        config = mixed_config(batch=BatchConfig(num_workers=2))
        with GraphQueryService(method, config, database=database, max_in_flight=8) as service:
            futures = [service.submit(query, mode) for query, mode in mixed_stream[:8]]
            futures += [service.submit(query, mode) for query, mode in mixed_stream[8:]]
            results = [future.result() for future in futures]
            fingerprint = engine_fingerprint(service.engine, results)
        assert fingerprint == baseline

    def test_results_arrive_in_submission_order(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        with GraphQueryService(method, mixed_config(), database=database) as service:
            results = list(service.stream(mixed_stream, max_in_flight=3))
        assert [r.query_name for r in results] == [q.name for q, _ in mixed_stream]


# ----------------------------------------------------------------------
# Mixed-mode semantics
# ----------------------------------------------------------------------
class TestMixedModeSemantics:
    def test_cached_answers_never_cross_modes(self, database):
        """The same query graph issued as both types: the second type must
        not see the first type's cached entry as a component hit."""
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(
            method, EngineConfig(mode="mixed", cache=CacheConfig(size=6, window=1))
        )
        engine.build_index(database)
        query = QueryGenerator(database, WorkloadSpec(name="uni", seed=21)).generate(1)[0]
        first = engine.query(query, "subgraph")
        assert not first.exact_hit
        # The subgraph answer is cached (window=1 flushes immediately); the
        # supergraph issue of the *same graph* must not treat it as a repeat.
        second = engine.query(query, "supergraph")
        assert not second.exact_hit
        assert second.num_sub_hits == 0 and second.num_super_hits == 0
        # Same type again: now it is an exact repeat.
        third = engine.query(query, "supergraph")
        assert third.exact_hit and third.verification_skipped
        modes = sorted(entry.tags["mode"] for entry in engine.cache.entries()
                       if entry.graph.name == query.name)
        # Both flavours of the same graph coexist in the one cache (the
        # repeat is re-cached too — every processed query enters the window).
        assert set(modes) == {"subgraph", "supergraph"}

    def test_fixed_mode_engine_rejects_other_mode(self, database):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, EngineConfig(cache=CACHE))
        engine.build_index(database)
        query = QueryGenerator(database, WorkloadSpec(name="uni", seed=5)).generate(1)[0]
        with pytest.raises(ValueError, match=r"serves 'subgraph'.*EngineConfig\(mode='mixed'\)"):
            engine.query(query, "supergraph")

    def test_mixed_engine_requires_explicit_mode(self, database):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, mixed_config())
        engine.build_index(database)
        query = QueryGenerator(database, WorkloadSpec(name="uni", seed=5)).generate(1)[0]
        with pytest.raises(ValueError, match="mixed-mode"):
            engine.query(query)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_terminates_executor_pool(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        config = mixed_config(batch=BatchConfig(num_workers=2))
        service = GraphQueryService(method, config, database=database).open()
        # the label most dataset graphs have, asked first (nothing cached
        # prunes it): enough candidates for the pool
        counts = Counter(
            label
            for _, graph in database.items()
            for label in {graph.label(vertex) for vertex in graph.vertices()}
        )
        label = max(sorted(counts), key=counts.__getitem__)
        service.query(LabeledGraph.from_edges({0: label}, []), "subgraph")
        list(service.stream(mixed_stream[:6]))
        engine = service.engine
        assert engine.parallel_verifications and engine._pool is not None
        service.close()
        assert engine._pool is None

    def test_plain_engine_close_is_noop_and_idempotent(self, database):
        method = create_method("ggsx", max_path_length=3)
        with IGQ(method) as engine:
            engine.close()
        engine.close()

    def test_submit_after_close_raises(self, database):
        method = create_method("ggsx", max_path_length=3)
        service = GraphQueryService(method, EngineConfig(cache=CACHE), database=database)
        service.open()
        service.close()
        query = QueryGenerator(database, WorkloadSpec(name="uni", seed=5)).generate(1)[0]
        with pytest.raises(ServiceClosed):
            service.submit(query)

    def test_submit_before_open_raises(self, database):
        method = create_method("ggsx", max_path_length=3)
        service = GraphQueryService(method, EngineConfig(cache=CACHE), database=database)
        query = QueryGenerator(database, WorkloadSpec(name="uni", seed=5)).generate(1)[0]
        with pytest.raises(ServiceClosed, match="not open"):
            service.submit(query)

    def test_close_drains_submitted_work(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        service = GraphQueryService(
            method, mixed_config(), database=database, max_in_flight=len(mixed_stream)
        ).open()
        futures = [service.submit(query, mode) for query, mode in mixed_stream[:10]]
        service.close()
        assert all(future.done() for future in futures)
        assert [f.result().query_name for f in futures] == [
            q.name for q, _ in mixed_stream[:10]
        ]

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_a_closed_service_is_freed_by_reference_counting(
        self, database, mixed_stream, tmp_path, durable
    ):
        """A closed, dropped service and its engine (the replicas and their
        kernel blocks with it) die at once: the futures a caller keeps, and
        their completed tasks, do not hold them in a reference cycle — nor
        do the journal's commits and their callbacks on a durable engine."""
        method = create_method("ggsx", max_path_length=3)
        persist = PersistConfig(dir=str(tmp_path / "state")) if durable else PersistConfig()
        config = mixed_config(batch=BatchConfig(num_workers=2), persist=persist)
        gc.collect()
        gc.disable()
        try:
            with GraphQueryService(method, config, database=database) as service:
                futures = [
                    service.submit(query, mode, timeout=60 if index % 2 else None)
                    for index, (query, mode) in enumerate(mixed_stream[:10])
                ]
                results = [future.result() for future in futures]
            alive = weakref.ref(service), weakref.ref(service.engine)
            del service
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()
        assert len(results) == len(futures) == 10

    def test_a_submission_to_an_idle_service_is_done_on_return(self, database, mixed_stream):
        """Caller-runs: the submitting thread runs its own query."""
        method = create_method("ggsx", max_path_length=3)
        with GraphQueryService(method, mixed_config(), database=database) as service:
            # (REPRO_FORCE_PERSIST_DIR makes the engine durable: a result
            # may then wait for its flush's commit after it has run)
            durable = service.engine.persister is not None
            for count, (query, mode) in enumerate(mixed_stream[:8], start=1):
                future = service.submit(query, mode)
                assert service.stats().totals.queries == count
                assert future.done() or durable

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_an_embedded_service_starts_no_thread_but_the_journal_writer(
        self, database, mixed_stream, tmp_path, durable
    ):
        method = create_method("ggsx", max_path_length=3)
        persist = PersistConfig(dir=str(tmp_path / "state")) if durable else PersistConfig()
        before = set(threading.enumerate())
        with GraphQueryService(method, mixed_config(persist=persist), database=database) as service:
            list(service.stream(mixed_stream))
            started = {thread.name for thread in set(threading.enumerate()) - before}
            # (REPRO_FORCE_PERSIST_DIR makes the in-memory engine durable too)
            durable = service.engine.persister is not None
        assert started == ({"journal-writer"} if durable else set())

    def test_close_is_idempotent_and_reopen_rejected(self, database):
        method = create_method("ggsx", max_path_length=3)
        service = GraphQueryService(method, EngineConfig(cache=CACHE), database=database)
        service.open()
        service.close()
        service.close()
        with pytest.raises(ServiceClosed, match="reopen"):
            service.open()


# ----------------------------------------------------------------------
# Sessions and introspection
# ----------------------------------------------------------------------
class TestSessionsAndStats:
    def test_sessions_partition_the_totals(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        with GraphQueryService(method, mixed_config(), database=database) as service:
            alice = service.session("alice")
            bob = service.session("bob")
            for query, mode in mixed_stream[:10]:
                alice.query(query, mode)
            for query, mode in mixed_stream[10:16]:
                bob.query(query, mode)
            report = service.stats()
        assert report.sessions["alice"].queries == 10
        assert report.sessions["bob"].queries == 6
        assert report.totals.queries == 16
        for field in ("subgraph_queries", "supergraph_queries", "isomorphism_tests",
                      "sub_hits", "super_hits", "exact_hits"):
            assert getattr(report.totals, field) == (
                getattr(report.sessions["alice"], field)
                + getattr(report.sessions["bob"], field)
            )

    def test_session_names_are_unique(self, database):
        method = create_method("ggsx", max_path_length=3)
        with GraphQueryService(method, EngineConfig(cache=CACHE), database=database) as service:
            service.session("dup")
            with pytest.raises(ValueError, match="already exists"):
                service.session("dup")
            auto = service.session()
            assert auto.name.startswith("session-")

    def test_stats_report_shape(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        config = mixed_config(shard=ShardConfig(shards=3, backend="inline"))
        with GraphQueryService(method, config, database=database) as service:
            list(service.stream(mixed_stream))
            report = service.stats()
        assert isinstance(report, ServiceReport)
        assert report.totals.queries == len(mixed_stream)
        assert report.cache_capacity == CACHE.size
        assert report.cache_size == len(service.engine.cache)
        assert report.shards == 3
        assert sum(report.shard_balance) == report.cache_size
        assert 0.0 < report.totals.hit_rate <= 1.0
        payload = json.dumps(report.as_dict())
        restored = json.loads(payload)
        assert restored["config"]["shard"]["shards"] == 3
        assert restored["cache"]["capacity"] == CACHE.size
        assert restored["totals"]["queries"] == len(mixed_stream)
        assert restored["executor"]["plans_replayed"] == report.plans_replayed
        assert report.plans_replayed == service.engine.plans_replayed > 0

    def test_stats_report_hot_key_and_delta_log_health(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        config = mixed_config(shard=ShardConfig(shards=3, backend="inline"))
        with GraphQueryService(method, config, database=database) as service:
            list(service.stream(mixed_stream))
            report = service.stats()
        # The two hot-key counters left in the report are constant zeros.
        assert report.replicas_live == report.moves_applied == 0
        restored = json.loads(json.dumps(report.as_dict()))
        assert restored["shards"]["balance"] == report.shard_balance
        assert restored["shards"]["replicas_live"] == report.replicas_live
        assert restored["shards"]["moves_applied"] == report.moves_applied

    def test_single_shard_report_has_zeroed_hot_key_fields(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        with GraphQueryService(method, mixed_config(), database=database) as service:
            list(service.stream(mixed_stream[:6]))
            report = service.stats()
        assert report.replicas_live == report.moves_applied == 0
        # The delta log is gone: its field is a constant empty dict, and
        # the report's dict form leaves it out.
        assert report.delta_log == {}
        assert "delta_log" not in report.as_dict()

    def test_service_rejects_wrong_mode(self, database):
        method = create_method("ggsx", max_path_length=3)
        with GraphQueryService(method, EngineConfig(cache=CACHE), database=database) as service:
            query = QueryGenerator(database, WorkloadSpec(name="uni", seed=5)).generate(1)[0]
            with pytest.raises(ValueError, match="mode='mixed'"):
                service.query(query, "supergraph")

    def test_service_from_prebuilt_engine(self, database, mixed_stream):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, mixed_config())
        engine.build_index(database)
        with GraphQueryService(engine=engine) as service:
            results = list(service.stream(mixed_stream[:6]))
        assert len(results) == 6
