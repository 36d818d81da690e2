"""The native path-feature extractor against its Python oracle.

``ck_path_features`` (``isomorphism/_ckernel.c``, driven by
:func:`repro.features.paths.native_path_features`) must return exactly what
the Python enumeration of ``kernel_oracle`` (``path_features``) returns,
coded by :func:`repro.features.paths.path_code` — same ``(code, count)``
pairs, code ascending — at any label count and any path length, because
every index, WAL record and candidate set downstream is built from them.
``ck_path_coverage`` (driven by :func:`repro.features.paths.path_coverage`)
must count what the location table of ``kernel_oracle.tally`` covers.  The Python enumeration is the
oracle, the same arrangement ``match_pairs`` has with the bigint loop of
``tests/kernel_oracle.py`` (``tests/test_verify_pairs.py``).
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
from repro.features import FeatureExtractor, GraphFeatures
from repro.features import extractor as extractor_module
from repro.features.paths import code_pairs, native_path_features, path_code, path_coverage
from repro.graphs import LabeledGraph
from repro.methods import GGSXMethod, GrapesMethod
from repro.methods import grapes as grapes_module
from repro.workloads.generator import QueryGenerator, WorkloadSpec

from . import kernel_oracle
from .conftest import make_clique, make_cycle_graph, make_path_graph, make_star_graph

#: labels whose ``str()`` collide (``1`` / ``"1"``, ``2.0`` / ``"2.0"``)
#: next to ordinary ones: the key is the label *string*
_LABELS = (1, "1", "A", "B", 2.0, "2.0", "C", None)


def oracle(graph: LabeledGraph, max_length: int) -> tuple[dict, int]:
    """``(counts, coverage)`` from one Python enumeration: the counts coded,
    code ascending; the coverage summed over the keys' location masks."""
    keys, located = kernel_oracle.tally(graph, kernel_oracle.path_occurrences(graph, max_length))
    counts = GraphFeatures.from_keys(keys).counts
    assert len(counts) == len(keys)  # no two keys share a code
    return counts, sum(mask.bit_count() for mask in located.values())


def assert_native_equals_oracle(graph: LabeledGraph, max_length: int) -> None:
    counts, covered = oracle(graph, max_length)
    native = native_path_features(graph, max_length)
    assert list(native[0].items()) == list(counts.items())
    assert native[1] == code_pairs(counts.items())
    assert path_coverage(graph, max_length) == covered


def _vertex_id(rng: random.Random, index: int):
    """Mixed-type vertex ids (ints, strings, tuples), unique per index."""
    kind = rng.randrange(3)
    if kind == 0:
        return index
    if kind == 1:
        return f"v{index}"
    return (index, "t")


def sparse_graph(
    seed: int, num_vertices: int, labels=_LABELS, mixed_ids: bool = True, vertex_labels=None
):
    """A random graph of bounded degree (the Python oracle is exponential
    in the degree): a forest plus a few chords, some vertices isolated, so
    components, cycles and isolated vertices all occur.  Vertex ``i``
    carries ``vertex_labels[i]`` when given, else a random one of
    ``labels``."""
    rng = random.Random(seed)
    ids = [_vertex_id(rng, index) if mixed_ids else index for index in range(num_vertices)]
    order = list(range(num_vertices))
    rng.shuffle(order)  # insertion order != id order
    graph = LabeledGraph(name=f"sparse{seed}")
    for index in order:
        label = rng.choice(labels) if vertex_labels is None else vertex_labels[index]
        graph.add_vertex(ids[index], label)
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
        """Counts, and the coverage ``ck_path_coverage`` sums over
        (multi-word) mask rows, on graphs of 1..200 vertices, disconnected,
        with isolated vertices, cycles, colliding label strings and
        mixed-type vertex ids."""
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
        assert native_path_features(LabeledGraph(), 4) == ({}, array("Q"))
        assert path_coverage(LabeledGraph(), 4) == 0

    def test_colliding_label_strings_share_a_key(self):
        graph = LabeledGraph.from_edges({0: 1, 1: "1", 2: "A"}, [(0, 1), (1, 2)])
        counts = GraphFeatures(*native_path_features(graph, 2)).counts
        assert counts[path_code(("1",))] == 2 and counts[path_code(("1", "1"))] == 1
        # ("1",) and ("1", "1") cover 2 vertices each, ("A",) 1, ("1", "A") 2,
        # ("1", "1", "A") 3
        assert path_coverage(graph, 2) == 10
        assert_native_equals_oracle(graph, 2)

    @pytest.mark.parametrize("dataset", ["aids", "pdbs"])
    def test_dataset_graphs(self, dataset):
        for _, graph in list(load_dataset(dataset, scale=0.1).items()):
            assert_native_equals_oracle(graph, 4)


def wide_graph(seed: int, num_labels: int, extra: int = 0) -> LabeledGraph:
    """A sparse graph of ``num_labels + extra`` vertices carrying
    ``num_labels`` distinct label strings (each at least once, ``extra``
    vertices repeating some), in shuffled order."""
    rng = random.Random(seed)
    labels = [f"L{index:03d}" for index in range(num_labels)]
    labels += [rng.choice(labels) for _ in range(extra)]
    rng.shuffle(labels)
    return sparse_graph(seed, len(labels), vertex_labels=labels)


class TestWideAlphabetsAndLongPaths:
    """The kernel sizes its path buffers per call: a graph with any number
    of label strings and paths of any length take the same one call, and
    match the oracle on counts and coverage."""

    def wide_alphabet_graph(self, num_labels: int) -> LabeledGraph:
        graph = LabeledGraph()
        for vertex in range(num_labels):
            graph.add_vertex(vertex, f"L{vertex:03d}")
        for vertex in range(num_labels - 1):
            graph.add_edge(vertex, vertex + 1)
        return graph

    def test_255_labels(self):
        assert_native_equals_oracle(self.wide_alphabet_graph(255), 3)

    @pytest.mark.parametrize("num_labels", [256, 257, 300])
    def test_256_to_300_labels(self, num_labels):
        """A path of distinct labels, through the extractor too."""
        graph = self.wide_alphabet_graph(num_labels)
        assert_native_equals_oracle(graph, 3)
        counts, covered = oracle(graph, 3)
        features = FeatureExtractor(max_path_length=3).extract(graph)
        assert list(features.counts.items()) == list(counts.items())
        # a path of n vertices has n - k paths of k edges, k + 1 vertices each
        assert covered == sum((num_labels - k) * (k + 1) for k in range(4))

    @pytest.mark.parametrize("max_length", [8, 9, 10])
    def test_paths_of_8_to_10_edges(self, max_length):
        graphs = [
            make_path_graph("ABCABCABCABC"),
            make_path_graph("ABCDEDCBA"),  # palindromic label paths
            make_cycle_graph("AAAAAAAAAAA"),
            make_cycle_graph("ABABABABAB"),
            make_star_graph("A", "BCBCB"),
            self.wide_alphabet_graph(300),
        ]
        for graph in graphs:
            assert_native_equals_oracle(graph, max_length)
        graph = make_path_graph("ABCABCABCABC")
        counts, _ = oracle(graph, max_length)
        features = FeatureExtractor(max_path_length=max_length).extract(graph)
        assert list(features.counts.items()) == list(counts.items())

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_vertices=st.integers(1, 14),
        max_length=st.integers(8, 10),
    )
    def test_random_graphs_long_paths(self, seed, num_vertices, max_length):
        """Paths of 8-10 edges on small graphs with cycles, isolated
        vertices, colliding label strings and mixed-type vertex ids."""
        assert_native_equals_oracle(sparse_graph(seed, num_vertices), max_length)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_labels=st.integers(256, 300),
        extra=st.integers(0, 20),
        max_length=st.integers(1, 3),
    )
    def test_random_graphs_wide_alphabets(self, seed, num_labels, extra, max_length):
        """256-300 distinct label strings on sparse graphs, some repeated."""
        assert_native_equals_oracle(wide_graph(seed, num_labels, extra), max_length)


def oracle_path_features(graph: LabeledGraph, max_length: int, flat=None) -> tuple:
    """``native_path_features``' result computed by the Python oracle."""
    features = GraphFeatures.from_keys(kernel_oracle.path_features(graph, max_length))
    return features.counts, features.feature_codes()


def oracle_extractor(monkeypatch) -> None:
    """Extraction and Grapes' coverage run the oracles of ``kernel_oracle``
    instead of the kernel."""
    monkeypatch.setattr(extractor_module, "native_path_features", oracle_path_features)
    monkeypatch.setattr(grapes_module, "path_coverage", kernel_oracle.coverage)


class TestBuildIndexUnderBothExtractors:
    @pytest.mark.parametrize(
        "dataset, factory",
        [("aids", GGSXMethod), ("pdbs", GrapesMethod)],
    )
    def test_identical_index_and_regions(self, dataset, factory, monkeypatch):
        """Tables, index size (for Grapes, its coverage) and query results,
        tests counted in each candidate's region, are the same whether the
        kernel or the Python oracle extracted the features."""
        database = load_dataset(dataset, scale=0.15)
        native = factory(max_path_length=4)
        native.build_index(database)
        with monkeypatch.context() as patched:
            oracle_extractor(patched)
            python = factory(max_path_length=4)
            python.build_index(database)
            python_bytes = python.index_size_bytes()
        assert list(native.feature_index._levels.items()) == list(
            python.feature_index._levels.items()
        )
        assert native.index_size_bytes() == python_bytes
        for graph_id in database.ids():
            fast, slow = native.graph_features(graph_id), python.graph_features(graph_id)
            assert list(fast.counts.items()) == list(slow.counts.items())
        queries = QueryGenerator(
            database, WorkloadSpec(name="stream", seed=11, query_sizes=(4, 8))
        ).generate(12)
        for query in queries:
            query_features = native.extract_query_features(query)
            with monkeypatch.context() as patched:
                oracle_extractor(patched)
                slow_features = python.extract_query_features(query)
            assert list(query_features.counts.items()) == list(slow_features.counts.items())
            candidates = native.filter_candidates(query, features=query_features)
            assert set(candidates) == set(python.filter_candidates(query, features=slow_features))
            fast_result, slow_result = native.query(query), python.query(query)
            assert fast_result.answers == slow_result.answers
            assert fast_result.num_isomorphism_tests == slow_result.num_isomorphism_tests


class TestWhicheverExtractorRuns:
    """The extractor and ``build_index`` end to end against the oracle."""

    def test_extract_equals_oracle(self):
        extractor = FeatureExtractor(max_path_length=4)
        for seed in range(12):
            graph = sparse_graph(seed, 10 + 6 * seed)
            counts, _ = oracle(graph, 4)
            features = extractor.extract(graph)
            assert list(features.counts.items()) == list(counts.items())

    def test_build_index_tables_equal_oracle(self):
        database = load_dataset("pdbs", scale=0.1)
        method = GrapesMethod(max_path_length=3)
        method.build_index(database)
        for graph_id, graph in database.items():
            counts, _ = oracle(graph, 3)
            stored = method.graph_features(graph_id)
            assert list(stored.counts.items()) == list(counts.items())


class TestConcurrentExtraction:
    def test_two_threads_extract_correctly(self):
        """No module-level scratch: calls racing on several threads (the
        kernel releases the interpreter lock) each get their own graph's
        features."""
        extractor = FeatureExtractor(max_path_length=4)
        graphs = [sparse_graph(seed, 30 + seed % 40) for seed in range(24)]
        expected = [oracle(graph, 4)[0] for graph in graphs]
        failures: list = []

        def work(offset: int) -> None:
            try:
                for _ in range(20):
                    for index in range(offset, len(graphs), 2):
                        if extractor.extract(graphs[index]).counts != expected[index]:
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
