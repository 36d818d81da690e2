"""Plan replay within a window (:meth:`IGQ.plan_query`).

Between two window flushes the live cache cannot change, so a query
isomorphic to one planned earlier in the window gets that query's plan
back after one confirming containment test.  The contract: everything but
the containment-test count and the probe time is exactly what planning
afresh computes — answers, candidates, §4 dataset-test accounting, hit
lists and the §5.1 H/R/C credits, bit for bit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IGQ
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism.verifier import Verifier
from repro.methods import GGSXMethod

from .conftest import engine_config, labeled_graphs, make_cycle_graph, make_path_graph

VERIFIERS = [
    pytest.param(lambda: Verifier(), id="kernel"),
    pytest.param(lambda: Verifier(compiled=False), id="uncompiled"),
]


def permuted(graph: LabeledGraph, rng: random.Random, name: str) -> LabeledGraph:
    """An isomorphic copy of ``graph`` under a random vertex renumbering."""
    order = list(graph.vertices())
    rng.shuffle(order)
    new_id = {vertex: index for index, vertex in enumerate(order)}
    copy = LabeledGraph(name=name)
    for vertex in order:
        copy.add_vertex(new_id[vertex], graph.label(vertex))
    for u, v in graph.edges():
        copy.add_edge(new_id[u], new_id[v], graph.edge_label(u, v))
    return copy


def cache_contents(engine: IGQ) -> list:
    """The live set with its exact §5.1 statistics (floats as hex)."""
    return [
        (
            entry.entry_id,
            entry.graph.name,
            sorted(entry.answer),
            entry.hits,
            entry.removed,
            float.hex(entry.alleviated_cost),
            entry.added_at,
        )
        for entry in engine.cache.entries()
    ]


def outcome(result) -> tuple:
    return (
        result.query_name,
        sorted(result.answers),
        sorted(result.candidates),
        result.num_isomorphism_tests,
        result.exact_hit,
        result.verification_skipped,
        result.num_sub_hits,
        result.num_super_hits,
    )


@st.composite
def repeat_streams(draw):
    """A small database, a small query pool and a long stream over it (each
    draw an isomorphic copy under a fresh vertex numbering), a window of
    3-5 and a cache of 6-10, and the query type per stream item."""
    graphs = draw(st.lists(labeled_graphs(max_vertices=6), min_size=3, max_size=7))
    pool = draw(st.lists(labeled_graphs(max_vertices=5), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=6, max_size=24))
    mode = draw(st.sampled_from(["subgraph", "supergraph", "mixed"]))
    if mode == "mixed":
        types = draw(
            st.lists(
                st.sampled_from(["subgraph", "supergraph"]),
                min_size=len(picks),
                max_size=len(picks),
            )
        )
    else:
        types = [mode] * len(picks)
    window = draw(st.integers(3, 5))
    size = draw(st.integers(6, 10))
    seed = draw(st.integers(0, 2**16))
    database = GraphDatabase.from_graphs(
        [graph.relabeled(name=f"g{index}") for index, graph in enumerate(graphs)]
    )
    rng = random.Random(seed)
    stream = [
        (permuted(pool[pick], rng, f"q{pick}.{index}"), kind)
        for index, (pick, kind) in enumerate(zip(picks, types))
    ]
    return database, stream, mode, size, window


def build_engine(database, mode, size, window, verifier) -> IGQ:
    engine = IGQ(
        GGSXMethod(max_path_length=2),
        engine_config(size, window, mode=mode),
        igq_verifier=verifier,
    )
    engine.build_index(database)
    return engine


class TestReplayEqualsFreshPlan:
    @pytest.mark.parametrize("make_verifier", VERIFIERS)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=repeat_streams())
    def test_replay_is_invisible(self, make_verifier, payload):
        database, stream, mode, size, window = payload
        engine = build_engine(database, mode, size, window, make_verifier())
        twin = build_engine(database, mode, size, window, make_verifier())
        for query, kind in stream:
            twin._plans.clear()  # the twin plans every query afresh
            got = engine.query(query, mode=kind)
            want = twin.query(query, mode=kind)
            assert outcome(got) == outcome(want)
            assert cache_contents(engine) == cache_contents(twin)
        assert twin.plans_replayed == 0
        assert twin.igq_verifier.stats.tests >= engine.igq_verifier.stats.tests


class TestConfirmingTest:
    def test_colliding_keys_are_planned_fresh(self):
        """A 6-cycle and two disjoint triangles (one vertex label, one edge
        label) have equal path codes and sizes at L=2, but are not
        isomorphic.  With the 6-cycle cached, its repeat is an exact hit;
        the triangles that follow in the same window must not inherit that
        plan (and its answer): the confirming test fails, so they are
        planned afresh."""
        hexagon = make_cycle_graph("AAAAAA", name="hexagon")
        triangles = make_cycle_graph("AAA", name="triangles")
        for vertex in range(3, 6):
            triangles.add_vertex(vertex, "A")
        for vertex in range(3):
            triangles.add_edge(3 + vertex, 3 + (vertex + 1) % 3)
        database = GraphDatabase.from_graphs(
            [
                make_cycle_graph("AAAAAA", name="g_hexagon"),
                make_cycle_graph("AAA", name="g_triangle"),
                make_path_graph("AAAAAAA", name="g_path"),
            ]
        )
        engine = build_engine(database, "subgraph", 8, 3, Verifier())
        assert engine.prepare(hexagon)[0].feature_codes() == (
            engine.prepare(triangles)[0].feature_codes()
        )
        for query in (hexagon, make_path_graph("AA"), make_path_graph("AAA")):
            engine.query(query)
        assert engine.query(hexagon.copy(name="hexagon again")).exact_hit
        result = engine.query(triangles)
        assert engine.plans_replayed == 0
        assert not result.exact_hit
        assert set(result.answers) == set(engine.method.query(triangles).answers) == set()


class TestFlushEndsReplay:
    def test_repeat_replays_only_until_the_flush(self):
        database = GraphDatabase.from_graphs(
            [make_cycle_graph("ABC", name="g0"), make_path_graph("ABCA", name="g1")]
        )
        engine = build_engine(database, "subgraph", 8, 3, Verifier())
        for labels in ("ABC", "BCA", "CAB"):  # one window: cached by its flush
            engine.query(make_path_graph(labels, name=labels))
        runtime = engine.shard_runtime
        probes = []
        probe = runtime.probe

        def counted(*args, **kwargs):
            probes.append(args[0].name)
            return probe(*args, **kwargs)

        runtime.probe = counted
        rng = random.Random(3)
        query = make_path_graph("AB", name="first")
        assert engine.query(query).num_sub_hits
        repeat = engine.query(permuted(query, rng, "repeat"))
        assert probes == ["first"]
        assert engine.plans_replayed == 1
        assert not repeat.exact_hit  # the first copy is still in the window
        flushed = engine.query(make_path_graph("BC", name="third"))
        assert flushed.maintenance is not None
        after = engine.query(permuted(query, rng, "after"))
        assert probes == ["first", "third", "after"]
        assert engine.plans_replayed == 1
        assert after.exact_hit  # now answered from the cache entry
