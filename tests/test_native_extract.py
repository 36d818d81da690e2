"""The native path-feature extractor against its Python oracle.

``ck_path_features`` (``isomorphism/_ckernel.c``, driven by
:func:`repro.features.paths.native_path_features`) must return exactly what
:func:`repro.features.paths.path_features` returns, coded by
:func:`repro.features.paths.path_code` — same ``(code, count)`` pairs, same
location masks, code ascending — because every index, WAL record and
candidate set downstream is built from whichever of the two ran.  The Python
enumeration is the oracle, the same arrangement ``match_pairs`` has with the
bigint loop of ``tests/kernel_oracle.py`` (``tests/test_verify_pairs.py``).
"""

from __future__ import annotations

import random
import sys
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.features import FeatureExtractor, GraphFeatures, path_features
from repro.features import extractor as extractor_module
from repro.features.paths import code_pairs, native_path_features, path_code
from repro.graphs import LabeledGraph
from repro.methods import GGSXMethod, GrapesMethod
from repro.workloads.generator import QueryGenerator, WorkloadSpec

from . import kernel_oracle
from .conftest import make_clique, make_cycle_graph, make_path_graph, make_star_graph

#: labels whose ``str()`` collide (``1`` / ``"1"``, ``2.0`` / ``"2.0"``)
#: next to ordinary ones: the key is the label *string*
_LABELS = (1, "1", "A", "B", 2.0, "2.0", "C", None)


def oracle(graph: LabeledGraph, max_length: int):
    """``(counts, location masks)`` from the Python enumeration, coded,
    code ascending."""
    occurrences = path_features(graph, max_length, locations=True)
    bit = {vertex: 1 << position for position, vertex in enumerate(graph.vertices())}
    features = GraphFeatures.from_keys(
        {key: found.count for key, found in occurrences.items()},
        {key: sum(bit[vertex] for vertex in found.vertices) for key, found in occurrences.items()},
    )
    assert len(features.counts) == len(occurrences)  # no two keys share a code
    return features.counts, features.locations


def assert_native_equals_oracle(graph: LabeledGraph, max_length: int) -> None:
    counts, masks = oracle(graph, max_length)
    with_masks = native_path_features(graph, max_length, locations=True)
    assert with_masks is not None
    assert list(with_masks[0].items()) == list(counts.items())
    assert list(with_masks[1].items()) == list(masks.items())
    without = native_path_features(graph, max_length)
    assert list(without[0].items()) == list(counts.items())
    assert without[1] == {}
    assert with_masks[2] == without[2] == code_pairs(counts.items())


def _vertex_id(rng: random.Random, index: int):
    """Mixed-type vertex ids (ints, strings, tuples), unique per index."""
    kind = rng.randrange(3)
    if kind == 0:
        return index
    if kind == 1:
        return f"v{index}"
    return (index, "t")


def sparse_graph(seed: int, num_vertices: int, labels=_LABELS, mixed_ids: bool = True):
    """A random graph of bounded degree (the Python oracle is exponential
    in the degree): a forest plus a few chords, some vertices isolated, so
    components, cycles and isolated vertices all occur."""
    rng = random.Random(seed)
    ids = [_vertex_id(rng, index) if mixed_ids else index for index in range(num_vertices)]
    order = list(range(num_vertices))
    rng.shuffle(order)  # insertion order != id order
    graph = LabeledGraph(name=f"sparse{seed}")
    for index in order:
        graph.add_vertex(ids[index], rng.choice(labels))
    degree = dict.fromkeys(ids, 0)

    def connect(u, v) -> None:
        if u != v and degree[u] < 3 and degree[v] < 3 and not graph.has_edge(u, v):
            graph.add_edge(u, v)
            degree[u] += 1
            degree[v] += 1

    for index in range(1, num_vertices):
        if rng.random() < 0.85:  # else: start a new component
            connect(ids[index], ids[rng.randrange(index)])
    for _ in range(num_vertices // 4):
        connect(rng.choice(ids), rng.choice(ids))
    return graph


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_vertices=st.one_of(
            st.integers(1, 40), st.sampled_from([63, 64, 65, 128, 129, 200])
        ),
        max_length=st.integers(1, 6),
    )
    def test_random_graphs(self, seed, num_vertices, max_length):
        """Counts and (multi-word) location masks on graphs of 1..200
        vertices, disconnected, with isolated vertices, cycles, colliding
        label strings and mixed-type vertex ids."""
        if num_vertices > 40:
            max_length = min(max_length, 4)  # keep the oracle quick
        assert_native_equals_oracle(sparse_graph(seed, num_vertices), max_length)

    @pytest.mark.parametrize("max_length", range(1, 7))
    def test_structured_graphs(self, max_length):
        graphs = [
            make_path_graph("A"),
            make_path_graph("ABA"),  # palindromic label paths: each counted once
            make_path_graph("ABBA"),
            make_path_graph("AAAAAAA"),
            make_path_graph("ABCDCBA"),
            make_cycle_graph("AAAA"),
            make_cycle_graph("ABAB"),
            make_cycle_graph("ABCABC"),
            make_star_graph("A", "AAAA"),
            make_star_graph("B", "ACAC"),
            make_clique("ABAB"),
            make_clique("AAAAA"),
        ]
        isolated = LabeledGraph.from_edges({0: "A", 1: "A", 2: "B"}, [])
        graphs.append(isolated)
        two_components = make_path_graph("ABA")
        for vertex, label in zip("xyz", "BAB"):
            two_components.add_vertex(vertex, label)
        two_components.add_edge("x", "y")
        two_components.add_edge("y", "z")
        graphs.append(two_components)
        for graph in graphs:
            assert_native_equals_oracle(graph, max_length)

    def test_empty_graph(self):
        assert native_path_features(LabeledGraph(), 4, locations=True) == ({}, {}, array("Q"))

    def test_colliding_label_strings_share_a_key(self):
        graph = LabeledGraph.from_edges({0: 1, 1: "1", 2: "A"}, [(0, 1), (1, 2)])
        features = GraphFeatures(*native_path_features(graph, 2, locations=True))
        counts, masks = features.counts, features.locations
        assert counts[path_code(("1",))] == 2 and counts[path_code(("1", "1"))] == 1
        assert masks[path_code(("1",))] == 0b011
        assert_native_equals_oracle(graph, 2)

    @pytest.mark.parametrize("dataset", ["aids", "pdbs"])
    def test_dataset_graphs(self, dataset):
        for _, graph in list(load_dataset(dataset, scale=0.1).items()):
            assert_native_equals_oracle(graph, 4)


class TestCodeOverflowFallback:
    """The kernel packs a path into one graph-local code at a byte per
    vertex; beyond that the extractor runs the Python enumeration — same
    features either way."""

    def wide_alphabet_graph(self, num_labels: int) -> LabeledGraph:
        graph = LabeledGraph()
        for vertex in range(num_labels):
            graph.add_vertex(vertex, f"L{vertex:03d}")
        for vertex in range(num_labels - 1):
            graph.add_edge(vertex, vertex + 1)
        return graph

    def test_255_labels_fit(self):
        """255 labels fit the kernel's graph-local codes (a byte per vertex
        on ``rank + 1``): the kernel runs."""
        assert_native_equals_oracle(self.wide_alphabet_graph(255), 3)

    def test_256_labels_fall_back(self):
        graph = self.wide_alphabet_graph(256)
        assert native_path_features(graph, 3) is None
        features = FeatureExtractor(max_path_length=3).extract(graph, locations=True)
        counts, masks = oracle(graph, 3)
        assert list(features.counts.items()) == list(counts.items())
        assert list(features.locations.items()) == list(masks.items())

    def test_paths_longer_than_a_code_fall_back(self):
        graph = make_path_graph("ABCABCABCABC")
        assert native_path_features(graph, 8) is None
        assert_native_equals_oracle(graph, 7)
        features = FeatureExtractor(max_path_length=8).extract(graph)
        assert list(features.counts.items()) == list(oracle(graph, 8)[0].items())


def force_python_extractor(monkeypatch) -> None:
    monkeypatch.setattr(extractor_module, "native_path_features", lambda *args: None)


class TestBuildIndexUnderBothExtractors:
    @pytest.mark.parametrize(
        "dataset, factory",
        [("aids", GGSXMethod), ("pdbs", GrapesMethod)],
    )
    def test_identical_index_and_regions(self, dataset, factory, monkeypatch):
        database = load_dataset(dataset, scale=0.15)
        native = factory(max_path_length=4)
        native.build_index(database)
        with monkeypatch.context() as patched:
            force_python_extractor(patched)
            python = factory(max_path_length=4)
            python.build_index(database)
        assert list(native.feature_index._levels.items()) == list(
            python.feature_index._levels.items()
        )
        assert native.index_size_bytes() == python.index_size_bytes()
        for graph_id in database.ids():
            fast, slow = native.graph_features(graph_id), python.graph_features(graph_id)
            assert list(fast.counts.items()) == list(slow.counts.items())
            assert list(fast.locations.items()) == list(slow.locations.items())
        queries = QueryGenerator(
            database, WorkloadSpec(name="stream", seed=11, query_sizes=(4, 8))
        ).generate(12)
        for query in queries:
            query_features = native.extract_query_features(query)
            with monkeypatch.context() as patched:
                force_python_extractor(patched)
                slow_features = python.extract_query_features(query)
            assert list(query_features.counts.items()) == list(slow_features.counts.items())
            candidates = native.filter_candidates(query, features=query_features)
            assert set(candidates) == set(python.filter_candidates(query, features=slow_features))
            if isinstance(native, GrapesMethod):
                for graph_id in candidates:
                    assert kernel_oracle.location_union(
                        native, query_features, graph_id
                    ) == kernel_oracle.location_union(python, slow_features, graph_id)


class TestWhicheverExtractorRuns:
    """The extractor and ``build_index`` end to end against the oracle."""

    def test_extract_equals_oracle(self):
        extractor = FeatureExtractor(max_path_length=4)
        for seed in range(12):
            graph = sparse_graph(seed, 10 + 6 * seed)
            counts, masks = oracle(graph, 4)
            features = extractor.extract(graph, locations=True)
            assert list(features.counts.items()) == list(counts.items())
            assert list(features.locations.items()) == list(masks.items())
            assert extractor.extract(graph).locations == {}

    def test_build_index_tables_equal_oracle(self):
        database = load_dataset("pdbs", scale=0.1)
        method = GrapesMethod(max_path_length=3)
        method.build_index(database)
        for graph_id, graph in database.items():
            counts, masks = oracle(graph, 3)
            stored = method.graph_features(graph_id)
            assert list(stored.counts.items()) == list(counts.items())
            assert list(stored.locations.items()) == list(masks.items())


class TestConcurrentExtraction:
    def test_two_threads_extract_correctly(self):
        """No module-level scratch: calls racing on several threads (the
        kernel releases the interpreter lock) each get their own graph's
        features."""
        extractor = FeatureExtractor(max_path_length=4)
        graphs = [sparse_graph(seed, 30 + seed % 40) for seed in range(24)]
        expected = [oracle(graph, 4) for graph in graphs]
        failures: list = []

        def work(offset: int) -> None:
            try:
                for _ in range(20):
                    for index in range(offset, len(graphs), 2):
                        features = extractor.extract(graphs[index], locations=True)
                        found = (features.counts, features.locations)
                        if found != expected[index]:
                            failures.append(index)
            except Exception as error:  # noqa: BLE001 - reported by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(0,)) for _ in range(2)]
            threads += [threading.Thread(target=work, args=(1,)) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
