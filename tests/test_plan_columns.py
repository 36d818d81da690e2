"""Planning on the cache's column block against the Python credit loop.

The engine combines a query's ``Isub`` / ``Isuper`` hits and applies their
§5.1 credits in one kernel call over the cache's
:class:`~repro.core.probe.ColumnBlock` (``ck_block_plan``; a replayed plan
re-applies its credits with ``ck_block_credit``), and the replacement
policy ranks the block's columns.  The oracle is
``kernel_oracle.oracle_engine``: the same stream planned by Python loops
over the entries (``combine`` / ``hit_credits`` / ``record_hit``), probed
by the Python probe and verified on the bigint kernel.  After every query
the two engines must hold the same live entries with the same H, R and C
(C compared as ``float.hex``), must have evicted the same victims in the
same order, and must have returned the same answers and counts — in every
mode, at one shard and at four, with plan replay.  This file is on the
ASan leg's pytest line: the block's rows are kernel memory.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IGQ, CacheConfig, EngineConfig, ShardConfig
from repro.core.probe import ColumnBlock
from repro.graphs import GraphDatabase
from repro.isomorphism import _ckernel_loader
from repro.methods import create_method

from . import kernel_oracle
from .conftest import labeled_graphs, random_labeled_graph


@pytest.fixture(scope="module")
def database() -> GraphDatabase:
    """Seventy small graphs: answer masks span two words."""
    rng = random.Random(5)
    graphs = [
        random_labeled_graph(rng, rng.randint(3, 6), 0.35, name=f"d{n}") for n in range(70)
    ]
    return GraphDatabase.from_graphs(graphs, name="seventy")


def column_engine(database, config: EngineConfig) -> IGQ:
    engine = IGQ(create_method("ggsx", max_path_length=3), config)
    engine.build_index(database)
    return engine


def engines(database, mode: str, shards: int, policy: str = "utility", window: int = 3):
    """The column engine and the oracle engine on a cache of twice the
    window, both built."""
    config = EngineConfig(
        mode=mode,
        cache=CacheConfig(size=2 * window, window=window, policy=policy),
        shard=ShardConfig(shards=shards),
    )
    oracle = kernel_oracle.oracle_engine("ggsx", config, max_path_length=3)
    oracle.build_index(database)
    return column_engine(database, config), oracle


def statistics(engine) -> list[tuple]:
    return [
        (entry.entry_id, entry.hits, entry.removed, entry.alleviated_cost.hex())
        for entry in engine.cache.entries()
    ]


def outcome(result) -> tuple:
    victims = None if result.maintenance is None else result.maintenance.evicted_entry_ids
    return (
        sorted(result.answers, key=repr),
        result.num_sub_hits,
        result.num_super_hits,
        result.exact_hit,
        result.verification_skipped,
        result.num_isomorphism_tests,
        victims,
    )


def run_both(pair, stream) -> None:
    """Each query on both engines; equal outcomes and statistics after it."""
    for query, mode in stream:
        results = [engine.query(query, mode=mode) for engine in pair]
        assert outcome(results[0]) == outcome(results[1])
        assert statistics(pair[0]) == statistics(pair[1])
    assert pair[0].plans_replayed == pair[1].plans_replayed
    for engine in pair:
        engine.close()


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("mode", ["subgraph", "supergraph", "mixed"])
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    pool=st.lists(labeled_graphs(max_vertices=5), min_size=2, max_size=5),
    picks=st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=4, max_size=24),
    policy=st.sampled_from(["utility", "hit_rate", "fifo"]),
)
def test_column_plans_credit_as_the_python_loop(
    mode, shards, pool, picks, policy, database, oracle_probes
):
    pair = engines(database, mode, shards, policy)
    stream = []
    for index, supergraph in picks:
        query_mode = mode
        if mode == "mixed":
            query_mode = "supergraph" if supergraph else "subgraph"
        stream.append((pool[index % len(pool)], query_mode))
    run_both(pair, stream)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("mode", ["subgraph", "supergraph", "mixed"])
def test_a_repeat_heavy_stream_replays_and_credits_alike(mode, shards, database, oracle_probes):
    """A fixed stream long enough to evict, replay plans and credit every
    kind of hit: the same checks, and the stream did replay and credit."""
    rng = random.Random(17)
    pool = [random_labeled_graph(rng, rng.randint(2, 5), 0.4) for _ in range(6)]
    stream = [
        (
            rng.choice(pool),
            rng.choice(["subgraph", "supergraph"]) if mode == "mixed" else mode,
        )
        for _ in range(60)
    ]
    pair = engines(database, mode, shards, window=5)
    run_both(pair, stream)
    assert pair[0].plans_replayed > 0
    assert any(cost != (0.0).hex() for *_, cost in statistics(pair[0]))


@settings(max_examples=200, deadline=None)
@given(
    answers=st.lists(
        st.tuples(st.integers(0, (1 << 130) - 1), st.integers(1, 4), st.integers(0, 4)),
        min_size=1,
        max_size=8,
    ),
    num_guaranteeing=st.integers(0, 8),
    candidates=st.integers(0, (1 << 130) - 1),
    query_size=st.tuples(st.integers(1, 4), st.integers(0, 4)),
    empty=st.booleans(),
)
def test_one_plan_call_is_the_python_combination(
    answers, num_guaranteeing, candidates, query_size, empty
):
    """``ck_block_plan`` against ``combine`` / ``hit_credits`` over
    three-word masks: the three masks, the §4.3 case-2 flag, the exact
    hit (first of the query's size) and its answer, and the credits."""
    if empty:
        answers[-1] = (0,) + answers[-1][1:]
    num_guaranteeing = min(num_guaranteeing, len(answers))
    block = ColumnBlock(_ckernel_loader.kernel())
    block.set_width(130)
    ids = [3 * position + 1 for position in range(len(answers))]
    sizes = [(vertices, edges) for _, vertices, edges in answers]
    masks = [mask for mask, _, _ in answers]
    rows = array("q", [f for i, size in zip(ids, sizes) for f in (i, *size, 0, 0, 0)])
    block.add(rows, array("d", bytes(8 * len(ids))), block.answer_bytes(masks))
    rng = random.Random(len(answers))
    costs = array("d", [rng.random() * 10 ** rng.randint(-6, 6) for _ in range(130)])
    hit_ids = array("q", ids)
    guaranteed, pruned, remaining, empty_restriction, exact, exact_answer, credits = block.plan(
        hit_ids, num_guaranteeing, candidates, costs, *query_size
    )
    expected = kernel_oracle.combine(
        candidates, masks[:num_guaranteeing], masks[num_guaranteeing:]
    )
    assert (guaranteed, pruned, remaining, empty_restriction) == expected
    position = sizes.index(query_size) if query_size in sizes else -1
    assert (exact, exact_answer) == (position, masks[position] if position >= 0 else 0)
    rows, removed, credited = credits
    freed = kernel_oracle.hit_credits(
        costs, candidates, masks[:num_guaranteeing], masks[num_guaranteeing:]
    )
    assert list(zip(removed, (cost.hex() for cost in credited))) == [
        (count, cost.hex()) for count, cost in freed
    ]
    assert [block.stats(entry_id) for entry_id in ids] == [
        (1, count, cost) for count, cost in freed
    ]


def test_the_block_holds_exactly_the_live_entries(database):
    """After a stream with evictions, the block's rows are the cache's
    entries in id order, with the statistics the entries read."""
    engine = column_engine(database, EngineConfig(cache=CacheConfig(size=6, window=2)))
    rng = random.Random(3)
    for _ in range(30):
        engine.query(random_labeled_graph(rng, rng.randint(2, 4), 0.4))
    ids, added, hits, removed, costs = engine.cache.columns.read()
    entries = list(engine.cache.entries())
    assert ids.tolist() == [entry.entry_id for entry in entries]
    assert added.tolist() == [entry.added_at for entry in entries]
    assert list(zip(hits, removed, costs)) == [
        (entry.hits, entry.removed, entry.alleviated_cost) for entry in entries
    ]
    engine.close()


def test_a_plan_naming_an_unknown_entry_changes_nothing(database):
    """``ck_block_plan`` refuses a hit id with no row before writing or
    crediting anything."""
    engine = column_engine(database, EngineConfig(cache=CacheConfig(size=6, window=2)))
    rng = random.Random(4)
    for _ in range(4):
        engine.query(random_labeled_graph(rng, 3, 0.5))
    columns = engine.cache.columns
    live = columns.read()[0].tolist()
    before = statistics(engine)
    hit_ids = array("q", [live[0], max(live) + 1])
    with pytest.raises(KeyError):
        columns.plan(hit_ids, 1, (1 << 70) - 1, array("d", [1.0] * 70), 3, 2)
    assert statistics(engine) == before
    engine.close()
