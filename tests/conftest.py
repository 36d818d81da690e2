"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from repro.core import CacheConfig, EngineConfig
from repro.graphs import GraphDatabase, LabeledGraph


def engine_config(size: int = 500, window: int = 100, **engine_fields) -> EngineConfig:
    """An ``EngineConfig`` with the cache's ``C``/``W`` (what most tests set)."""
    return EngineConfig(cache=CacheConfig(size=size, window=window), **engine_fields)

# ----------------------------------------------------------------------
# Deterministic example graphs
# ----------------------------------------------------------------------


def make_path_graph(labels: str, name: str | None = None) -> LabeledGraph:
    """A simple path with one vertex per character of ``labels``."""
    graph = LabeledGraph(name=name)
    for index, label in enumerate(labels):
        graph.add_vertex(index, label)
    for index in range(len(labels) - 1):
        graph.add_edge(index, index + 1)
    return graph


def make_cycle_graph(labels: str, name: str | None = None) -> LabeledGraph:
    """A simple cycle with one vertex per character of ``labels``."""
    graph = make_path_graph(labels, name=name)
    if len(labels) > 2:
        graph.add_edge(len(labels) - 1, 0)
    return graph


def make_star_graph(center: str, leaves: str, name: str | None = None) -> LabeledGraph:
    """A star: one centre vertex connected to one leaf per character."""
    graph = LabeledGraph(name=name)
    graph.add_vertex(0, center)
    for index, label in enumerate(leaves, start=1):
        graph.add_vertex(index, label)
        graph.add_edge(0, index)
    return graph


def make_clique(labels: str, name: str | None = None) -> LabeledGraph:
    """A complete graph over one vertex per character of ``labels``."""
    graph = LabeledGraph(name=name)
    for index, label in enumerate(labels):
        graph.add_vertex(index, label)
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            graph.add_edge(i, j)
    return graph


def random_labeled_graph(
    rng: random.Random,
    num_vertices: int,
    edge_probability: float,
    labels: str = "ABC",
    name: str | None = None,
    connected: bool = True,
) -> LabeledGraph:
    """A random labeled graph, optionally forced to be connected."""
    graph = LabeledGraph(name=name)
    for vertex in range(num_vertices):
        graph.add_vertex(vertex, rng.choice(labels))
    if connected:
        for vertex in range(1, num_vertices):
            graph.add_edge(vertex, rng.randrange(vertex))
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if not graph.has_edge(u, v) and rng.random() < edge_probability:
                graph.add_edge(u, v)
    return graph


def index_state(index) -> dict:
    """Observable contents of a component index (order-free, comparable).

    The threshold masks of ``Isub`` are decoded back into ``{key: {entry id:
    occurrences}}`` and the native table's rows are read back by entry id,
    so an index whose slots were recycled compares equal to one built from
    scratch.  On the native table the thresholds must be empty; off it
    there are no rows.
    """
    postings = {}
    thresholds = getattr(index, "_index", None)
    if thresholds is not None:
        for key, levels in thresholds._levels.items():
            assert levels and levels[-1], "trailing empty threshold not trimmed"
            per_entry = postings[key] = {}
            for mask in levels:
                for entry_id in index._slots.keys_of(mask):
                    per_entry[entry_id] = per_entry.get(entry_id, 0) + 1
    rows = {}
    if index._table is not None:
        assert not postings, "thresholds maintained next to the native table"
        for slot, entry_id in enumerate(index._slots._order):
            row = index._table.row(slot)
            if entry_id is None:
                assert row is None, "row of a freed slot not cleared"
                continue
            assert row[0] == entry_id
            rows[entry_id] = (row[1], row[2], row[3].tolist())
    return {
        "postings": postings,
        "rows": rows,
        "entries": sorted(index._entries),
        "live": sorted(index._slots.keys_of(index._live_mask)),
        "slots": len(index._slots),
    }


# ----------------------------------------------------------------------
# Filtering oracles: the posting walks the threshold-bitmap index replaced
# ----------------------------------------------------------------------


def posting_lists(feature_tables) -> dict:
    """``{key: {member: occurrences}}`` of ``{member: GraphFeatures}``."""
    postings: dict = {}
    for member, features in feature_tables.items():
        for key, count in features.counts.items():
            postings.setdefault(key, {})[member] = count
    return postings


def oracle_at_least(postings, members, counts) -> set:
    """Members holding every key of ``counts`` at least as often, by walking
    one posting list per query feature (the former trie filter)."""
    surviving = None
    for key, required in counts.items():
        matching = {
            member for member, count in postings.get(key, {}).items() if count >= required
        }
        surviving = matching if surviving is None else surviving & matching
    return set(members) if surviving is None else surviving


def oracle_tally(postings, feature_tables, counts) -> set:
    """Algorithm 2 of the paper as written: tally a member once per query
    feature it holds no more often, keep those tallied ``NF`` times.  (A
    member without features is vacuously a candidate; no posting names it.)"""
    tally: Counter = Counter()
    for key, available in counts.items():
        for member, occurrences in postings.get(key, {}).items():
            if occurrences <= available:
                tally[member] += 1
    return {
        member
        for member, features in feature_tables.items()
        if tally[member] == features.num_distinct
    }


def oracle_subgraph_candidates(method, features) -> set:
    """Subgraph-query candidates of a path method, by posting walk."""
    return oracle_at_least(
        posting_lists(method._graph_features), method.database.ids(), features.counts
    )


def oracle_supergraph_candidates(method, query, features) -> set:
    """Supergraph-query candidates, by testing every dataset graph."""
    return {
        graph_id
        for graph_id, graph in method.database.items()
        if graph.num_vertices <= query.num_vertices
        and graph.num_edges <= query.num_edges
        and features.covers_counts_of(method.graph_features(graph_id))
    }


def apply_report(report, *indexes):
    """Apply a window flush's report to ``indexes`` the way a replica
    replays the flush's records: the victims leave, then the window arrives."""
    for entry in report.evicted_entries:
        for index in indexes:
            index.remove(entry.entry_id)
    for entry in report.inserted_entries:
        for index in indexes:
            index.add(entry)


def oracle_index(live, cache):
    """A fresh index of ``live``'s kind ``add``-ed from ``cache.entries()``.

    The reference for the incremental window flush: whatever sequence of
    ``add``/``remove`` calls produced ``live``, its :func:`index_state` must
    equal that of an index built from scratch over the current cache.  The
    oracle shares ``live``'s verifier so it never compiles state onto
    entries the engine under test runs uncompiled.
    """
    oracle = type(live)(live.verifier)
    for entry in cache.entries():
        oracle.add(entry)
    return oracle


@pytest.fixture
def triangle() -> LabeledGraph:
    return make_cycle_graph("ABC", name="triangle")


@pytest.fixture
def path4() -> LabeledGraph:
    return make_path_graph("ABCA", name="path4")


@pytest.fixture
def tiny_database() -> GraphDatabase:
    """A small, hand-crafted database with known containment structure."""
    graphs = [
        make_path_graph("AB", name="g_ab"),
        make_path_graph("ABC", name="g_abc"),
        make_cycle_graph("ABC", name="g_tri"),
        make_cycle_graph("ABCD", name="g_square"),
        make_star_graph("A", "BBC", name="g_star"),
        make_clique("ABCD", name="g_k4"),
    ]
    return GraphDatabase.from_graphs(graphs, name="tiny")


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

LABELS = "ABC"


@st.composite
def labeled_graphs(draw, max_vertices: int = 8, labels: str = LABELS, connected: bool = True):
    """Strategy producing small random labeled graphs."""
    num_vertices = draw(st.integers(min_value=1, max_value=max_vertices))
    label_choices = draw(
        st.lists(st.sampled_from(labels), min_size=num_vertices, max_size=num_vertices)
    )
    graph = LabeledGraph()
    for vertex, label in enumerate(label_choices):
        graph.add_vertex(vertex, label)
    if connected and num_vertices > 1:
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_vertices - 1),
                min_size=num_vertices - 1,
                max_size=num_vertices - 1,
            )
        )
        for vertex in range(1, num_vertices):
            parent = parents[vertex - 1] % vertex
            graph.add_edge(vertex, parent)
    possible_edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if not graph.has_edge(u, v)
    ]
    if possible_edges:
        extra = draw(st.lists(st.sampled_from(possible_edges), max_size=len(possible_edges)))
        for u, v in extra:
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


@st.composite
def graph_and_subgraph(draw, max_vertices: int = 8, labels: str = LABELS):
    """Strategy producing ``(graph, subgraph)`` where the second is an actual
    (connected, non-induced) subgraph of the first."""
    graph = draw(labeled_graphs(max_vertices=max_vertices, labels=labels))
    edges = list(graph.edges())
    if not edges:
        return graph, graph.copy()
    # Grow a connected edge subset starting from a random edge.
    start = draw(st.integers(min_value=0, max_value=len(edges) - 1))
    chosen = [edges[start]]
    vertices = set(chosen[0])
    remaining = [e for i, e in enumerate(edges) if i != start]
    grow_steps = draw(st.integers(min_value=0, max_value=len(remaining)))
    for _ in range(grow_steps):
        frontier = [e for e in remaining if e[0] in vertices or e[1] in vertices]
        if not frontier:
            break
        index = draw(st.integers(min_value=0, max_value=len(frontier) - 1))
        edge = frontier[index]
        chosen.append(edge)
        vertices.update(edge)
        remaining.remove(edge)
    subgraph = LabeledGraph()
    for vertex in vertices:
        subgraph.add_vertex(vertex, graph.label(vertex))
    for u, v in chosen:
        if not subgraph.has_edge(u, v):
            subgraph.add_edge(u, v)
    return graph, subgraph
