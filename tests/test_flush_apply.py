"""A window flush on columns: one ``ProbeTable.apply`` call per probe table.

Three contracts:

* **The table is its model.**  ``ProbeTable.apply(clear_slots, rows)``
  against a dict ``slot -> row``: random schedules of flushes — clears of
  live, empty and never-written slots, rows into fresh slots, into slots a
  clear just freed, over live rows and past the table's end, rows without
  features — read back through ``ProbeTable.row`` after every flush, and
  every probe (``filter``, then ``verify``) answers as
  ``kernel_oracle.probe_hits`` over the model.  A row takes over the block
  of a form that was compiled and compiles the others itself.
* **Shards flush alike.**  ``shards=1`` and ``shards=4`` give the same
  answers, §5.1 statistics, eviction order and containment-test counts
  over a churny stream; each replica's tables hold exactly the live
  entries homed on it, in the slots one-entry-at-a-time updates would
  have given them.
* **A warm start is one apply per table.**  The restored engine's tables
  hold the rows of the engine that wrote the directory, written in one
  kernel call per table (and one for the cache's column block).

The ASan/UBSan CI job runs this file against the sanitised kernel: a row
freeing a block twice, or a block freed while a row points at it, shows
there.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IGQ
from repro.core.config import CacheConfig, EngineConfig, PersistConfig, ShardConfig
from repro.core.probe import ColumnBlock, ProbeTable
from repro.datasets import load_dataset
from repro.features import FeatureExtractor
from repro.graphs import LabeledGraph
from repro.graphs.bitset import DensePositions
from repro.isomorphism import _ckernel_loader
from repro.isomorphism.compiled import CompiledQueryPlan, CompiledTarget
from repro.methods import create_method
from repro.workloads import QueryGenerator, WorkloadSpec

from . import kernel_oracle
from .conftest import index_state, labeled_graphs

EXTRACTOR = FeatureExtractor(max_path_length=3)

#: slots a schedule names: enough to recycle, replace and grow past the end
SLOTS = 10

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=SLOTS - 1),
        st.one_of(labeled_graphs(max_vertices=5, labels="ABC"), st.just(LabeledGraph())),
        st.booleans(),  # compiled before the flush (the query compiled it)
    ),
    max_size=6,
)
flushes = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=SLOTS + 2), max_size=5),
        rows,
        st.lists(labeled_graphs(max_vertices=6, labels="ABCD"), max_size=2),
    ),
    min_size=1,
    max_size=6,
)


def probe(table: ProbeTable, entries_are_targets: bool, query: LabeledGraph):
    """``(hit ids, tests)`` of one native probe: filter, then verify."""
    features = EXTRACTOR.extract(query)
    slots, count = table.filter(features.feature_codes(), query.num_vertices, query.num_edges)
    if not count:
        return [], 0
    if entries_are_targets:
        side = CompiledQueryPlan(query)
        return table.verify(side.native(), slots, count), count
    side = CompiledTarget(query)
    return table.verify(side.native().address, slots, count), count


@pytest.mark.parametrize("entries_are_targets", [True, False], ids=["isub", "isuper"])
@settings(max_examples=40, deadline=None)
@given(schedule=flushes)
def test_apply_is_the_dict_model(entries_are_targets, schedule):
    table = ProbeTable(_ckernel_loader.kernel(), entries_are_targets)
    form_of = CompiledTarget if entries_are_targets else CompiledQueryPlan
    empty_size = table.size_bytes()
    model: dict[int, SimpleNamespace] = {}
    next_id = 0
    for clears, written, queries in schedule:
        batch, entries, taken = [], [], []
        for slot, graph, compiled in written:
            form = form_of(graph)
            if compiled:
                native = form.native()
                taken.append((slot, len(batch), form, getattr(native, "address", native)))
            features = EXTRACTOR.extract(graph)
            batch.append((slot, next_id, features.feature_codes(), form))
            entries.append(SimpleNamespace(entry_id=next_id, graph=graph, features=features))
            next_id += 1
        table.apply(clears, batch)
        for slot in clears:
            model.pop(slot, None)
        for row, entry in zip(batch, entries):
            model[row[0]] = entry
        # a compiled form's block now belongs to its row (or, replaced by a
        # later row of the same flush, is freed already): the form forgot it
        for slot, position, form, address in taken:
            assert form._native is None
            if model[slot] is entries[position]:
                assert table.row(slot)[4] == address
        # the table reads back as the model, slot for slot
        for slot in range(SLOTS + 3):
            row, want = table.row(slot), model.get(slot)
            if want is None:
                assert row is None
                continue
            entry_id, num_vertices, num_edges, codes, compiled = row
            assert (entry_id, num_vertices, num_edges) == (
                want.entry_id, want.graph.num_vertices, want.graph.num_edges
            )
            assert codes == want.features.feature_codes()
            assert compiled
        # Figure 18's bytes: the live rows' pairs plus 48 B a slot
        held = sum(len(entry.features.feature_codes()) for entry in model.values())
        slots, rest = divmod(table.size_bytes() - empty_size - 8 * held, 48)
        assert rest == 0 and slots >= max(model, default=-1) + 1
        # every probe answers as the Python loops over the model
        index = SimpleNamespace(
            entry_is_target=entries_are_targets,
            _entries={entry.entry_id: entry for entry in model.values()},
        )
        for query in queries:
            expected = kernel_oracle.probe_hits(index, query, EXTRACTOR.extract(query))
            assert probe(table, entries_are_targets, query) == expected
    table.close()


def test_a_failed_apply_takes_over_nothing():
    """A negative slot is refused before anything changes: the table keeps
    its rows and every form keeps its block."""
    table = ProbeTable(_ckernel_loader.kernel(), True)
    graph = LabeledGraph()
    graph.add_vertex(0, "A")
    form = CompiledTarget(graph)
    address = form.native().address
    codes = EXTRACTOR.extract(graph).feature_codes()
    table.apply([], [(0, 7, codes, CompiledTarget(graph))])
    before = table.row(0)
    with pytest.raises(ValueError):
        table.apply([0], [(1, 8, codes, form), (-1, 9, codes, CompiledTarget(graph))])
    assert table.row(0) == before and table.row(1) is None
    assert form.native().address == address
    table.close()


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def database():
    return load_dataset("synthetic", scale=0.12)


@pytest.fixture(scope="module")
def stream(database):
    spec = WorkloadSpec(name="uniform", seed=17)
    pool = QueryGenerator(database, spec).generate(40)
    rng = random.Random(3)
    return [pool[rng.randrange(len(pool))] for _ in range(90)]


def engine_for(database, shards: int, persist: PersistConfig | None = None) -> IGQ:
    engine = IGQ(
        create_method("ggsx", max_path_length=3),
        EngineConfig(
            cache=CacheConfig(size=12, window=5),
            shard=ShardConfig(shards=shards, backend="inline"),
            persist=persist or PersistConfig(),
        ),
    )
    engine.build_index(database)
    return engine


def statistics(engine) -> list[tuple]:
    return [
        (entry.entry_id, entry.hits, entry.removed, round(entry.alleviated_cost, 9))
        for entry in engine.cache.entries()
    ]


def replicas_hold_the_cache(engine) -> None:
    """Each replica's tables hold exactly the live entries homed on it."""
    homes = engine.placement.entry_shard
    assert sorted(homes) == sorted(engine.cache.entry_ids())
    for shard in engine.shard_runtime.shards:
        mine = sorted(entry_id for entry_id, home in homes.items() if home == shard.shard_id)
        assert shard.entry_ids() == mine
        for index in (shard.isub, shard.isuper):
            assert sorted(index_state(index)["rows"]) == mine
            for entry_id in mine:
                assert index._table.row(index._slots._positions[entry_id])[4]


def test_shards_flush_alike(database, stream):
    runs = []
    for shards in (1, 4):
        engine = engine_for(database, shards)
        # the slots one entry at a time would take: each victim's freed,
        # then each new entry placed, the most recently freed slot first
        reference = [DensePositions() for _ in range(shards)]
        trace = []
        for query in stream:
            homes = dict(engine.placement.entry_shard)
            result = engine.query(query)
            report = result.maintenance
            if report is not None:
                for entry_id in report.evicted_entry_ids:
                    reference[homes[entry_id]].remove(entry_id)
                for entry_id in engine.cache.entry_ids()[-report.inserted:]:
                    reference[engine.placement.entry_shard[entry_id]].add(entry_id)
                for shard, slots in zip(engine.shard_runtime.shards, reference):
                    for index in (shard.isub, shard.isuper):
                        assert index._slots._order == slots._order
            trace.append(
                (
                    frozenset(result.answers),
                    result.num_isomorphism_tests,
                    result.num_sub_hits,
                    result.num_super_hits,
                    None if report is None else tuple(report.evicted_entry_ids),
                    None if report is None else tuple(statistics(engine)),
                )
            )
            if report is not None:
                replicas_hold_the_cache(engine)
        stats = engine.igq_verifier.stats
        runs.append((trace, (stats.tests, stats.positives, stats.negatives)))
        assert sum(1 for step in trace if step[4]) > 5  # flushes that evicted
        engine.close()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("shards", [1, 4])
def test_a_warm_start_is_one_apply_per_table(tmp_path, database, stream, shards, monkeypatch):
    persist = PersistConfig(dir=str(tmp_path / "state"), fsync="flush")
    writer = engine_for(database, shards, persist)
    for query in stream[:60]:
        writer.query(query)
    written = (
        statistics(writer),
        dict(writer.placement.entry_shard),
        [
            (index_state(shard.isub), index_state(shard.isuper))
            for shard in writer.shard_runtime.shards
        ],
    )
    writer.close()

    calls, adds = [], []
    apply, add = ProbeTable.apply, ColumnBlock.add

    def counting_apply(table, clear_slots, rows):
        rows = list(rows)
        calls.append(len(rows))
        return apply(table, clear_slots, rows)

    def counting_add(block, rows, costs, answers=None):
        adds.append(len(costs))
        return add(block, rows, costs, answers)

    monkeypatch.setattr(ProbeTable, "apply", counting_apply)
    monkeypatch.setattr(ColumnBlock, "add", counting_add)
    restored = engine_for(database, shards, persist)
    assert restored.persister.restored
    # the cache's column block takes the live set in one call too
    assert adds == [len(restored.cache)]
    # one call per table that holds entries, each writing all of its rows
    assert sorted(calls) == sorted(
        len(index_state(index)["rows"])
        for shard in restored.shard_runtime.shards
        for index in (shard.isub, shard.isuper)
        if len(index)
    )
    monkeypatch.undo()
    assert (
        statistics(restored),
        dict(restored.placement.entry_shard),
        [
            (index_state(shard.isub)["rows"], index_state(shard.isuper)["rows"])
            for shard in restored.shard_runtime.shards
        ],
    ) == (
        written[0],
        written[1],
        [(isub["rows"], isuper["rows"]) for isub, isuper in written[2]],
    )
    replicas_hold_the_cache(restored)
    reference = engine_for(database, shards)
    for query in stream[:60]:
        reference.query(query)
    for query in stream[60:]:
        mine, theirs = restored.query(query), reference.query(query)
        assert frozenset(mine.answers) == frozenset(theirs.answers)
        assert mine.num_isomorphism_tests == theirs.num_isomorphism_tests
    assert statistics(restored) == statistics(reference)
    restored.close()
    reference.close()
