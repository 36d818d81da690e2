"""Tests for the unified compiled containment layer.

Three contracts:

* **Equivalence** — the two component indexes and Grapes' region-masked
  verification return exactly the answers, hit lists and verifier
  accounting of the oracles (indexes on an ``OracleVerifier`` under the
  ``oracle_probes`` fixture, and ``kernel_oracle.oracle_engine``), at the
  index level and end-to-end through the engine.
* **Compile-on-insertion** — an indexed entry's rows own its compiled
  target / plan from the moment it joins (the blocks its query compiled,
  taken over, or compiled in the kernel), window flushes leave the
  survivors' blocks alone (never recompile), and eviction frees them.
* **Compile once per query** — the plan and target a query is probed and
  verified with are the ones its cache entry keeps: the engine builds at
  most one of each per query, single-shard or sharded.
* **Bounded lifecycle** — a long churny insert/evict stream keeps the number
  of live compiled objects and the dense-slot allocator's footprint at a
  steady state instead of growing without bound.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.core import (
    IGQ,
    IndexMaintenance,
    PendingQuery,
    QueryCache,
    SubgraphQueryIndex,
    SupergraphQueryIndex,
)
from repro.core.config import CacheConfig, EngineConfig, ShardConfig
from repro.datasets.registry import load_dataset
from repro.features import FeatureExtractor
from repro.isomorphism import CompiledQueryPlan, CompiledTarget, Verifier
from repro.isomorphism import compiled as compiled_module
from repro.methods import create_method
from repro.workloads.generator import QueryGenerator, WorkloadSpec
from repro.workloads.zipf import create_sampler

from . import kernel_oracle
from .conftest import (
    apply_report,
    engine_config,
    index_state,
    make_cycle_graph,
    make_path_graph,
    oracle_index,
    random_labeled_graph,
)

EXTRACTOR = FeatureExtractor(max_path_length=3)


@pytest.fixture(scope="module")
def small_synthetic():
    return load_dataset("synthetic", scale=0.15)


def build_indexes(graphs, verifier: Verifier | None = None):
    cache = QueryCache()
    isub = SubgraphQueryIndex(verifier)
    isuper = SupergraphQueryIndex(verifier)
    for graph in graphs:
        entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
        isub.add(entry)
        isuper.add(entry)
    return cache, isub, isuper


def random_query_pool(rng: random.Random, count: int, lo: int = 2, hi: int = 7):
    return [
        random_labeled_graph(rng, rng.randint(lo, hi), 0.4, name=f"c{i}")
        for i in range(count)
    ]


@pytest.mark.usefixtures("oracle_probes")
class TestCompiledDictEquivalence:
    def test_index_answers_and_accounting_match(self):
        rng = random.Random(23)
        cached = random_query_pool(rng, 25)
        fast_verifier = Verifier()
        slow_verifier = kernel_oracle.OracleVerifier()
        _, fast_isub, fast_isuper = build_indexes(cached, fast_verifier)
        _, slow_isub, slow_isuper = build_indexes(cached, slow_verifier)
        for _ in range(40):
            query = random_labeled_graph(rng, rng.randint(2, 8), 0.4)
            features = EXTRACTOR.extract(query)
            fast_sub = fast_isub.find_supergraphs(query, features)
            assert fast_sub == slow_isub.find_supergraphs(query, features)
            fast_super = fast_isuper.find_subgraphs(query, features)
            assert fast_super == slow_isuper.find_subgraphs(query, features)
        # One counted test per surviving pair, on both paths.
        assert fast_verifier.stats.tests == slow_verifier.stats.tests
        assert fast_verifier.stats.positives == slow_verifier.stats.positives
        assert fast_verifier.stats.negatives == slow_verifier.stats.negatives
        assert fast_verifier.stats.tests > 0

    @pytest.mark.parametrize("method_name", ["ggsx", "grapes"])
    def test_engine_state_byte_identical(self, method_name, small_synthetic):
        database = small_synthetic
        spec = WorkloadSpec(
            name="zipf", graph_distribution="zipf", node_distribution="zipf",
            alpha=1.2, seed=5,
        )
        pool = QueryGenerator(database, spec).generate(12)
        rng = random.Random(6)
        sampler = create_sampler("zipf", len(pool), alpha=1.2)
        stream = [pool[sampler.sample(rng)] for _ in range(40)]

        def run(oracle: bool):
            if oracle:
                engine = kernel_oracle.oracle_engine(
                    method_name, engine_config(12, 4), max_path_length=3
                )
            else:
                method = create_method(method_name, max_path_length=3)
                engine = IGQ(method, engine_config(12, 4))
            method = engine.method
            engine.build_index(database)
            results = [engine.query(query) for query in stream]
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
            return (
                answers,
                accounting,
                cache_state,
                (igq_stats.tests, igq_stats.positives, igq_stats.negatives),
                (
                    method.verifier.stats.tests,
                    method.verifier.stats.positives,
                    method.verifier.stats.negatives,
                ),
            )

        assert run(False) == run(True)


def row_form(index, entry_id: int) -> int:
    """The address of the compiled form ``entry_id``'s row owns."""
    row = index._table.row(index._slots._positions[entry_id])
    assert row is not None and row[0] == entry_id
    return row[4]


class TestCompileOnInsertion:
    def test_entries_carry_compiled_state(self):
        """Joining an index hands the entry's forms to its rows (compiled
        in the kernel when the entry brought none): the entry keeps no
        compiled state, every row holds a form of its own."""
        cached = [make_cycle_graph("ABCD"), make_path_graph("AB")]
        cache, isub, isuper = build_indexes(cached)
        addresses = set()
        for entry in cache.entries():
            assert entry.compiled_target is None and entry.compiled_plan is None
            addresses.add(row_form(isub, entry.entry_id))
            addresses.add(row_form(isuper, entry.entry_id))
        assert len(addresses) == 4 and 0 not in addresses

    def test_every_row_points_at_a_compiled_form(self):
        """Whatever verifier an index counts on, its rows carry a compiled
        form (there is no filter-only row): the one the entry's query
        compiled, taken over as it is."""
        graph = make_cycle_graph("ABC")
        cache = QueryCache()
        entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
        entry.compiled_target, entry.compiled_plan = CompiledTarget(graph), CompiledQueryPlan(graph)
        compiled = (entry.compiled_target.native().address, entry.compiled_plan.native())
        verifier = kernel_oracle.OracleVerifier()
        isub, isuper = SubgraphQueryIndex(verifier), SupergraphQueryIndex(verifier)
        isub.add(entry)
        isuper.add(entry)
        assert (row_form(isub, entry.entry_id), row_form(isuper, entry.entry_id)) == compiled

    def test_flush_reuses_survivors_compiled_state(self):
        cache, isub, isuper = build_indexes([make_cycle_graph("ABCD")])
        entry = next(cache.entries())
        forms = row_form(isub, entry.entry_id), row_form(isuper, entry.entry_id)
        maintenance = IndexMaintenance(cache_size=4, window_size=1)
        for labels in ("AB", "BC"):
            graph = make_path_graph(labels)
            maintenance.submit(
                PendingQuery(graph, EXTRACTOR.extract(graph), frozenset())
            )
            apply_report(maintenance.flush(cache), isub, isuper)
        # the same blocks — not recompiled
        assert (row_form(isub, entry.entry_id), row_form(isuper, entry.entry_id)) == forms
        # Re-adding the entry elsewhere (warm restart) compiles that
        # index's own form and leaves this one's rows alone.
        fresh = oracle_index(isub, cache)
        assert row_form(isub, entry.entry_id) == forms[0]
        assert row_form(fresh, entry.entry_id) != forms[0]
        assert index_state(fresh) == index_state(isub)

    def test_cache_eviction_releases_compiled_state(self):
        cache = QueryCache()
        graph = make_cycle_graph("ABC")
        entry = cache.add(
            graph, EXTRACTOR.extract(graph), frozenset(),
            compiled_target=CompiledTarget(graph), compiled_plan=CompiledQueryPlan(graph),
        )
        assert cache.remove(entry.entry_id) is entry
        assert entry.compiled_target is None and entry.compiled_plan is None

    def test_index_remove_releases_its_direction(self):
        cache, isub, isuper = build_indexes([make_cycle_graph("ABC")])
        entry = next(cache.entries())
        isub.remove(entry.entry_id)
        assert isub._table.row(0) is None
        assert row_form(isuper, entry.entry_id)  # Isuper still serves it
        isuper.remove(entry.entry_id)
        assert isuper._table.row(0) is None

    def test_flush_releases_evicted_entries_in_both_directions(self):
        """An evicting flush must not strand payloads on the victims.

        The victim leaves the cache with no compiled state (its forms
        belong to the rows) and each enabled index clears its row, which
        frees the form, when the report is applied to it; the survivor's
        rows keep their forms through the flush.
        """
        for enabled in ((True, True), (True, False), (False, True)):
            cache, isub, isuper = build_indexes(
                [make_cycle_graph("ABCD"), make_path_graph("AB")]
            )
            victim, kept = list(cache.entries())
            kept_forms = {index: row_form(index, kept.entry_id) for index in (isub, isuper)}
            kept.alleviated_cost = 100.0  # the policy evicts ``victim``
            cache.query_counter = 10
            maintenance = IndexMaintenance(cache_size=2, window_size=1)
            graph = make_path_graph("BC")
            maintenance.submit(
                PendingQuery(graph, EXTRACTOR.extract(graph), frozenset())
            )
            report = maintenance.flush(cache)
            indexes = [index for index, on in zip((isub, isuper), enabled) if on]
            apply_report(report, *indexes)
            assert report.evicted_entry_ids == [victim.entry_id]
            assert victim.compiled_target is None
            assert victim.compiled_plan is None
            for index in indexes:
                assert victim.entry_id not in index._slots._positions
                assert row_form(index, kept.entry_id) == kept_forms[index]


class TestCompileOncePerQuery:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("method_name", ["ggsx", "grapes"])
    def test_at_most_one_plan_target_and_native_target(self, shards, method_name, monkeypatch):
        """A query is probed by ``Isub`` (plan) and ``Isuper`` (target),
        verified (plan) and, at the flush, indexed by both (target, plan):
        five uses, at most one compile of each form — a kernel compile is
        what costs something."""
        kernel_compiles = {"ck_compile_plan": [], "ck_compile_target": []}

        def counting_native_form(entry_point, flat, _form=compiled_module._native_form):
            kernel_compiles[entry_point].append(flat.graph.name)
            return _form(entry_point, flat)

        monkeypatch.setattr(compiled_module, "_native_form", counting_native_form)

        database = load_dataset("synthetic", scale=0.03)
        method = create_method(method_name, max_path_length=3)
        config = EngineConfig(
            cache=CacheConfig(size=12, window=4),
            shard=ShardConfig(shards=shards, backend="inline"),
        )
        rng = random.Random(5)
        pool = random_query_pool(rng, 15)
        for index, query in enumerate(pool):
            query.name = f"query{index}"
        stream = [pool[min(int(rng.expovariate(0.3)), len(pool) - 1)] for _ in range(60)]
        with IGQ(method, config) as engine:
            engine.build_index(database)
            database.precompile()
            for query in stream:
                engine.query(query)
            assert len(engine.cache) == 12  # flushes inserted and evicted
        for names in kernel_compiles.values():
            for_queries = [name for name in names if name.startswith("query")]
            assert 0 < len(for_queries) <= len(stream)
        # every dataset graph once, as a target: subgraph mode never
        # compiles one as a plan
        assert sorted(set(kernel_compiles["ck_compile_target"]) - {q.name for q in pool}) == (
            sorted(graph.name for graph in database.graphs())
        )
        assert all(name.startswith("query") for name in kernel_compiles["ck_compile_plan"])


def live_compiled_counts() -> tuple[int, int]:
    """Process-wide live (CompiledTarget, CompiledQueryPlan) counts.

    Other fixtures legitimately hold compiled objects, so the lifecycle
    tests assert on *deltas* of these counts, not absolutes.
    """
    gc.collect()
    targets = plans = 0
    for obj in gc.get_objects():
        if isinstance(obj, CompiledTarget):
            targets += 1
        elif isinstance(obj, CompiledQueryPlan):
            plans += 1
    return targets, plans


class TestLifecycleRegression:
    def test_steady_state_across_1k_insert_evict_cycles(self):
        """Churning 1000 entries through a capacity-8 index pair must not
        accumulate compiled objects or dense-slot positions."""
        capacity = 8
        targets_before, plans_before = live_compiled_counts()
        cache = QueryCache()
        isub = SubgraphQueryIndex()
        isuper = SupergraphQueryIndex()
        rng = random.Random(99)
        live: list[int] = []
        for cycle in range(1000):
            graph = random_labeled_graph(rng, rng.randint(2, 4), 0.5, name=f"q{cycle}")
            entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
            isub.add(entry)
            isuper.add(entry)
            live.append(entry.entry_id)
            if len(live) > capacity:
                victim = live.pop(0)
                isub.remove(victim)
                isuper.remove(victim)
                cache.remove(victim)
        assert len(isub) == len(isuper) == len(cache) == capacity
        # The dense-slot allocators recycle freed positions: their footprint
        # is the live capacity, not the 1000-entry history.
        assert len(isub._slots._order) <= capacity + 1
        assert len(isuper._slots._order) <= capacity + 1
        # Only the live entries still hold compiled objects.
        targets_after, plans_after = live_compiled_counts()
        assert targets_after - targets_before <= capacity
        assert plans_after - plans_before <= capacity

    def test_steady_state_across_1k_shard_handoffs(self):
        """The same 1k churn routed through shard replicas.

        Every insert hands the cache entry itself, compiled forms and all,
        to its home replica, and every eviction releases them on the cache
        and clears the replica's rows, so the number of live compiled
        objects stays bounded by the cache capacity no matter how many
        entries were handed to (and taken back from) the shards.
        """
        from repro.core.placement import home_shard
        from repro.core.shard import QueryIndexShard
        from repro.isomorphism.compiled import compile_query_plan, compile_target

        capacity = 8
        num_shards = 3
        targets_before, plans_before = live_compiled_counts()
        cache = QueryCache()
        shards = [QueryIndexShard(shard_id) for shard_id in range(num_shards)]
        owners: dict[int, int] = {}
        rng = random.Random(41)
        live: list[int] = []
        for cycle in range(1000):
            graph = random_labeled_graph(rng, rng.randint(2, 4), 0.5, name=f"s{cycle}")
            entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
            entry.compiled_target = compile_target(graph)
            entry.compiled_plan = compile_query_plan(graph)
            shard_id = home_shard(entry.features, num_shards)
            owners[entry.entry_id] = shard_id
            shards[shard_id].add(entry)
            live.append(entry.entry_id)
            if len(live) > capacity:
                victim = live.pop(0)
                cache.remove(victim)
                shards[owners.pop(victim)].remove(victim)
        assert sum(len(shard) for shard in shards) == len(cache) == capacity
        assert sorted(
            entry_id for shard in shards for entry_id in shard.entry_ids()
        ) == sorted(cache.entry_ids())
        targets_after, plans_after = live_compiled_counts()
        assert targets_after - targets_before <= capacity
        assert plans_after - plans_before <= capacity

    def test_maintenance_flush_keeps_compiled_state_bounded(self, small_synthetic):
        """The engine's own windowed eviction path must release victims."""
        database = small_synthetic
        spec = WorkloadSpec(name="uniform", seed=3)
        pool = QueryGenerator(database, spec).generate(10)
        rng = random.Random(4)
        targets_before, _ = live_compiled_counts()
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(method, engine_config(6, 2))
        engine.build_index(database)
        for _ in range(60):
            engine.query(rng.choice(pool))
        targets_after, _ = live_compiled_counts()
        # cache entries + dataset graphs (compiled lazily by the base
        # method's verification) are the only legitimate holders
        assert targets_after - targets_before <= len(engine.cache) + len(database)
