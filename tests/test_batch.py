"""Tests for the engine's verification pool and feature memo.

The contract under test: for every worker count — one verifies
in-process, more fan out to the engine's thread pool — a run must be
*indistinguishable* from the one-worker engine: same answers, same
per-query accounting, same cache and replacement state afterwards.
Parallelism is an implementation detail of the verification stage, never
of the semantics.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import IGQ, BatchConfig
from repro.core.batch import FeatureMemo
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism import compiled as compiled_module
from repro.methods import GGSXMethod, GrapesMethod

from .conftest import engine_config, make_cycle_graph, make_path_graph, random_labeled_graph


def build_database(seed=29, count=16) -> GraphDatabase:
    rng = random.Random(seed)
    graphs = [
        random_labeled_graph(rng, rng.randint(5, 10), 0.25, labels="ABC", name=f"g{i}")
        for i in range(count)
    ]
    graphs.append(make_cycle_graph("ABC", name="tri"))
    return GraphDatabase.from_graphs(graphs)


def make_stream(seed=5, distinct=12, total=30):
    """A stream with repeats: the memo and the exact-hit path get exercised."""
    rng = random.Random(seed)
    pool = [
        random_labeled_graph(rng, rng.randint(2, 6), 0.3, labels="ABC", name=f"q{i}")
        for i in range(distinct)
    ]
    return [
        pool[rng.randrange(distinct)].copy(name=f"s{i}") for i in range(total)
    ]


def fresh_engine(database, method_factory=None, **batch_fields) -> IGQ:
    method = method_factory() if method_factory else GGSXMethod(max_path_length=3)
    engine = IGQ(method, engine_config(8, 3, batch=BatchConfig(**batch_fields)))
    engine.build_index(database)
    return engine


def cache_state(engine: IGQ):
    """Everything the replacement policy can see, in comparable form."""
    return sorted(
        (
            entry.entry_id,
            entry.graph.name,
            frozenset(entry.answer),
            entry.hits,
            entry.removed,
            round(entry.alleviated_cost, 9),
            entry.added_at,
        )
        for entry in engine.cache.entries()
    )


class TestConstruction:
    def test_rejects_unknown_backend(self):
        """The pool kind follows from ``num_workers``; there is no backend
        argument to pass (repro 6.0)."""
        with pytest.raises(TypeError, match=r"backend"):
            fresh_engine(build_database(), backend="thread")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            fresh_engine(build_database(), num_workers=0)

    def test_requires_built_index(self):
        engine = IGQ(GGSXMethod(max_path_length=2))
        with pytest.raises(RuntimeError):
            engine.execute(make_path_graph("AB"), False)

    def test_two_workers_verify_on_threads_whatever_the_cpu_count(self, monkeypatch):
        """More than one worker always means the thread pool, however many
        CPUs the machine reports; closing the engine shuts it down."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        with fresh_engine(build_database(count=24), num_workers=2) as engine:
            engine.run_batch(make_stream(total=20))
            assert isinstance(engine._pool, ThreadPoolExecutor)
            assert engine.parallel_verifications > 0
        assert engine._pool is None


class TestSequentialEquivalence:
    def test_empty_batch(self):
        engine = fresh_engine(build_database())
        assert engine.run_batch([]) == []

    @pytest.mark.parametrize("num_workers", [pytest.param(2, id="thread")])
    def test_backends_identical_to_sequential_loop(self, num_workers):
        database = build_database()
        stream = make_stream()
        loop_engine = fresh_engine(database)
        expected = [loop_engine.query(query) for query in stream]

        batch_engine = fresh_engine(database, num_workers=num_workers)
        results = batch_engine.run_batch(stream)

        assert batch_engine.parallel_verifications > 0
        assert len(results) == len(expected)
        for got, want in zip(results, expected):
            assert set(got.answers) == set(want.answers), got.query_name
            assert set(got.candidates) == set(want.candidates)
            assert got.num_isomorphism_tests == want.num_isomorphism_tests
            assert got.exact_hit == want.exact_hit
        assert cache_state(batch_engine) == cache_state(loop_engine)
        assert len(batch_engine.cache) == len(loop_engine.cache)

    @pytest.mark.parametrize(
        "num_workers", [pytest.param(2, id="thread"), pytest.param(3, id="thread3")]
    )
    def test_verifier_stats_invariant_after_parallel_batch(self, num_workers):
        """Worker-side tests fold back into the parent verifier completely:
        the counters stay consistent and equal the sequential run's."""
        database = build_database()
        stream = make_stream(total=20)
        engine = fresh_engine(database, num_workers=num_workers)
        results = engine.run_batch(stream)
        stats = engine.method.verifier.stats
        assert stats.tests == sum(result.num_isomorphism_tests for result in results) > 0
        assert stats.positives + stats.negatives == stats.tests
        assert stats.total_seconds > 0.0
        sequential = fresh_engine(database)
        sequential.run_batch(stream)
        want = sequential.method.verifier.stats
        assert (stats.tests, stats.positives) == (want.tests, want.positives)

    def test_grapes_parallel_verification_matches(self):
        """Grapes verifies through location regions; the per-chunk method
        clones on the thread pool must read them."""
        database = build_database()
        stream = make_stream(total=15)
        loop_engine = fresh_engine(database, lambda: GrapesMethod(max_path_length=3))
        expected = [loop_engine.query(query) for query in stream]
        batch_engine = fresh_engine(
            database, lambda: GrapesMethod(max_path_length=3), num_workers=2
        )
        results = batch_engine.run_batch(stream)
        for got, want in zip(results, expected):
            assert set(got.answers) == set(want.answers), got.query_name
            assert got.num_isomorphism_tests == want.num_isomorphism_tests


class TestPoolCompilesOnce:
    @pytest.mark.parametrize(
        "num_workers", [pytest.param(2, id="engine-2"), pytest.param(5, id="engine-5")]
    )
    def test_one_plan_compile_per_query(self, num_workers, monkeypatch):
        """The chunks of a pool-verified query share the plan the engine
        compiled before submitting them: one ``ck_compile_plan`` per query,
        however many chunks verify it.  A chunk that built the plan's
        kernel form itself — the lazy build is unlocked — would count a
        second compile; five workers and a short switch interval give such
        a race its chances."""
        plan_compiles = Counter()

        def counting_native_form(entry_point, flat, _form=compiled_module._native_form):
            if entry_point == "ck_compile_plan":
                plan_compiles[flat.graph.name] += 1
            return _form(entry_point, flat)

        monkeypatch.setattr(compiled_module, "_native_form", counting_native_form)
        database = build_database(count=24)
        rng = random.Random(11)
        stream = [
            random_labeled_graph(rng, rng.randint(2, 4), 0.4, labels="ABC", name=f"q{i}")
            for i in range(20)
        ]
        # no feature memo: every query keeps its own flattening, which is
        # what the compiles are counted by
        engine = fresh_engine(database, num_workers=num_workers, memoize_features=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with engine:
                engine.run_batch(stream)
                pooled = engine.parallel_verifications
        finally:
            sys.setswitchinterval(interval)
        assert pooled >= 5
        assert len(plan_compiles) >= pooled
        assert set(plan_compiles.values()) == {1}


def features_of(memo: FeatureMemo, query: LabeledGraph):
    """The features half of the memo's prepared query."""
    return memo.prepare(query)[0]


class TestFeatureMemo:
    def test_signature_detects_structural_copies(self):
        a = make_path_graph("ABC", name="one")
        b = make_path_graph("ABC", name="two")
        c = make_path_graph("ACB", name="three")
        assert a.ordered_key() == b.ordered_key()
        assert a.ordered_key() != c.ordered_key()

    def test_a_copy_built_in_another_order_misses_safely(self):
        """The memo key is insertion-ordered: the same graph assembled in
        another order is extracted again, to the same features."""
        forward = LabeledGraph.from_edges({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])
        backward = LabeledGraph.from_edges({2: "C", 1: "B", 0: "A"}, [(1, 2), (0, 1)])
        assert forward == backward and forward.ordered_key() != backward.ordered_key()
        memo = FeatureMemo(GGSXMethod(max_path_length=3).extractor)
        assert features_of(memo, forward) == features_of(memo, backward)
        assert memo.hits == 0 and memo.misses == 2

    def test_memo_hits_on_repeats(self):
        method = GGSXMethod(max_path_length=3)
        memo = FeatureMemo(method.extractor)
        query = make_path_graph("ABCA")
        first = features_of(memo, query)
        second = features_of(memo, query.copy(name="again"))
        assert first is second
        assert memo.hits == 1 and memo.misses == 1

    def test_isomorphic_relabeling_is_reextracted_to_equal_features(self):
        """A relabeled (isomorphic, different vertex ids) repeat misses the
        exact-signature memo and is extracted again — cheaper than
        recognising it — to features equal to the original's."""
        method = GGSXMethod(max_path_length=3)
        memo = FeatureMemo(method.extractor)
        query = make_path_graph("ABCA", name="orig")
        twin = query.relabeled()
        remapped = LabeledGraph(name="shifted")
        for vertex in twin.vertices():
            remapped.add_vertex(vertex + 100, twin.label(vertex))
        for u, v in twin.edges():
            remapped.add_edge(u + 100, v + 100)
        assert query.ordered_key() != remapped.ordered_key()
        first = features_of(memo, query)
        second = features_of(memo, remapped)
        assert first is not second
        assert first.counts == second.counts
        assert list(first.counts) == list(second.counts)
        assert memo.hits == 0 and memo.misses == 2 and len(memo) == 2

    def test_memo_stays_bounded_on_a_stream_of_distinct_queries(self):
        """An engine keeps one memo for its lifetime: the memo must not
        gain one key per distinct query forever."""

        class CountingExtractor:
            calls = 0

            def extract(self, graph, flat=None):
                self.calls += 1
                return self.calls

        extractor = CountingExtractor()
        memo = FeatureMemo(extractor)
        total = 8192 + 500
        for vertex in range(total):
            features_of(memo, LabeledGraph.from_edges({vertex: "A"}, []))
            assert len(memo) <= 8192
        assert memo.misses == total and extractor.calls == total
        # still a memo after the clear: the latest query hits
        assert features_of(memo, LabeledGraph.from_edges({total - 1: "A"}, [])) == total
        assert memo.hits == 1

    def test_canonical_twins_do_not_collide_with_distinct_graphs(self):
        method = GGSXMethod(max_path_length=3)
        memo = FeatureMemo(method.extractor)
        features_of(memo, make_path_graph("ABC"))
        features_of(memo, make_path_graph("ACB"))
        assert memo.misses == 2 and memo.hits == 0

    def test_executor_counts_memo_hits(self):
        """The engine's memo counts the repeats of a stream as hits; with
        ``batch.memoize_features`` off there is no memo."""
        database = build_database()
        stream = make_stream(distinct=4, total=12)
        engine = fresh_engine(database)
        engine.run_batch(stream)
        assert engine.feature_memo.hits >= 8
        assert engine.feature_memo.misses <= 4
        assert fresh_engine(database, memoize_features=False).feature_memo is None
