"""Feature codes as the one key domain, against the tuple-keyed oracle.

Every feature is keyed by its ``uint64`` code end to end: the extractor
returns codes (:func:`~repro.features.paths.path_code` of the key, for
paths, trees and cycles alike), the dataset index is keyed by them, the
cache-side probe filters on them, pickles and the journal carry them.  Tuple keys are the oracle form — the Python
enumeration, uncoded — and what the threshold index held before.  Every
filter must answer exactly as a :class:`ThresholdBitmapIndex` over tuple
keys does, in both directions, for every method and extractor setting.

The second half checks that a query is prepared once: one flattening
(``LabeledGraph.csr``) shared by extraction and both compiles.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import IGQ, BatchExecutor, CacheConfig, EngineConfig
from repro.features import FeatureExtractor, GraphFeatures, ThresholdBitmapIndex
from repro.features.paths import path_code
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism.compiled import FlatGraph
from repro.methods import CTIndexMethod, GGSXMethod, GrapesMethod, create_method

from . import kernel_oracle
from .conftest import labeled_graphs, random_labeled_graph


def build(factory, graphs, **kwargs):
    database = GraphDatabase()
    for index, graph in enumerate(graphs):
        database.add(f"g{index}", graph)
    method = factory(**kwargs)
    method.build_index(database)
    return method


def assert_filters_match_oracle(method, query: LabeledGraph) -> None:
    """``at_least`` / ``at_most`` over the coded index equal the
    tuple-keyed oracle; for Grapes, the union of a dataset graph's location
    lists over the query's keys is the label region the kernel builds."""
    oracle = ThresholdBitmapIndex()
    for graph_id, graph in method.database.items():
        counts, _ = kernel_oracle.tuple_features(method.extractor, graph)
        oracle.add(method.id_space.bit(graph_id), counts)
    keys, _ = kernel_oracle.tuple_features(method.extractor, query)
    features = method.extract_query_features(query)
    assert features.counts == GraphFeatures.from_keys(keys).counts
    full = method.id_space.full_mask
    index = method.feature_index
    assert index.at_least(features.counts, full) == oracle.at_least(keys, full)
    assert index.at_most(features.counts, full) == oracle.at_most(keys, full)
    if isinstance(method, GrapesMethod):
        plan = kernel_oracle.BigintPlan(query)
        for graph_id, graph in method.database.items():
            region = kernel_oracle.label_region(plan, kernel_oracle.BigintTarget(graph))
            assert kernel_oracle.location_union(method, query, graph_id) == region


dataset_graphs = st.lists(labeled_graphs(max_vertices=6, labels="ABCD"), min_size=1, max_size=6)
#: queries may carry a label ("E") no dataset graph has
query_graphs = st.lists(labeled_graphs(max_vertices=7, labels="ABCDE"), min_size=1, max_size=4)


class TestCodedIndexEqualsTupleOracle:
    @pytest.mark.parametrize("factory", [GGSXMethod, GrapesMethod])
    @settings(max_examples=40, deadline=None)
    @given(graphs=dataset_graphs, queries=query_graphs)
    def test_random_datasets_and_queries(self, factory, graphs, queries):
        method = build(factory, graphs, max_path_length=3)
        for query in queries:
            assert_filters_match_oracle(method, query)

    @pytest.mark.parametrize("factory", [GGSXMethod, GrapesMethod])
    def test_full_label_table_and_an_unseen_label(self, factory):
        """More label texts than the old 254-entry process-wide table held,
        and a query with a label no dataset graph has: nothing dominates
        it, and its other features decide which graphs it may contain."""
        rng = random.Random(7)
        alphabet = [f"L{n:03d}" for n in range(300)]
        graphs = [
            random_labeled_graph(rng, 6, 0.3, labels=alphabet[3 * n : 3 * n + 3])
            for n in range(100)
        ]
        graphs += [LabeledGraph.from_edges({0: label}, []) for label in alphabet[:3]]
        method = build(factory, graphs, max_path_length=3)
        assert len({graph.label(v) for graph in graphs for v in graph.vertices()}) > 254
        for seed in range(8):
            query = random_labeled_graph(random.Random(seed), 6, 0.4, labels=alphabet[:3])
            query.add_vertex("unseen", "Z")
            query.add_edge("unseen", 0)
            features = method.extract_query_features(query)
            assert_filters_match_oracle(method, query)
            assert method.filter_candidates(query, features=features) == set()
            assert method.filter_supergraph_candidates(query, features=features)

    @settings(max_examples=15, deadline=None)
    @given(graphs=dataset_graphs, queries=query_graphs)
    def test_paths_longer_than_a_local_code(self, graphs, queries):
        """Paths of eight edges: the same codes as the oracle."""
        method = build(GGSXMethod, graphs, max_path_length=8)
        for query in queries:
            assert_filters_match_oracle(method, query)

    @settings(max_examples=15, deadline=None)
    @given(graphs=dataset_graphs, queries=query_graphs)
    def test_ctindex_codes_trees_and_cycles(self, graphs, queries):
        method = build(CTIndexMethod, graphs, tree_max_size=3, cycle_max_length=4)
        for query in queries:
            assert_filters_match_oracle(method, query)


class TestPickledFeatures:
    @settings(max_examples=40, deadline=None)
    @given(graph=labeled_graphs(max_vertices=7, labels="ABCD"), shared_flat=st.booleans())
    def test_round_trip_keeps_keys_and_reencodes_codes(self, graph, shared_flat):
        """A copy carries the codes themselves (the feature keys) and
        rebuilds its ``(code, count)`` pairs on demand."""
        flat = FlatGraph(graph) if shared_flat else None
        features = FeatureExtractor(max_path_length=3).extract(graph, flat=flat)
        copy = pickle.loads(pickle.dumps(features))
        assert copy.codes is None
        assert list(copy.counts.items()) == list(features.counts.items())
        assert copy.feature_codes() == features.feature_codes()

    def test_another_process_gives_the_same_codes(self):
        """A code is a pure function of the key: another process, with
        another hash seed and nothing extracted before, computes the same
        pairs."""
        graph = "LabeledGraph.from_edges({0: 'A', 1: 'B', 2: 'C'}, [(0, 1), (1, 2)])"
        script = (
            "from repro.features import FeatureExtractor\n"
            "from repro.graphs import LabeledGraph\n"
            f"graph = {graph}\n"
            "print(FeatureExtractor(max_path_length=3).extract(graph).feature_codes().tolist())\n"
        )
        source = Path(repro.__file__).resolve().parent.parent
        environment = dict(os.environ, PYTHONPATH=str(source), PYTHONHASHSEED="12345")
        done = subprocess.run(
            [sys.executable, "-c", script], env=environment, capture_output=True, text=True,
            check=True,
        )
        features = FeatureExtractor(max_path_length=3).extract(
            LabeledGraph.from_edges({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])
        )
        assert done.stdout.strip() == str(features.feature_codes().tolist())
        assert path_code(("A", "B", "C")) in features.counts

    def test_a_pre_code_pickle_is_coded_on_load(self):
        """A pickle written before features were coded holds tuple keys —
        label paths, or CT-Index's wrapped canonical strings — and, for
        Grapes, a non-empty ``locations`` table: loading one codes its keys
        and drops the table, so it meets a fresh extraction."""
        graph = LabeledGraph.from_edges({0: "A", 1: "B", 2: "A"}, [(0, 1), (1, 2)])
        for extractor in (
            FeatureExtractor(max_path_length=3),
            FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, tree_max_size=3),
        ):
            keys, located = kernel_oracle.tuple_features(extractor, graph)
            assert located and all(located.values())
            old = GraphFeatures.__new__(GraphFeatures)
            old.__setstate__(
                {"counts": keys, "locations": located, "codes": None, "path_keys": True}
            )
            fresh = extractor.extract(graph)
            assert list(old.counts.items()) == list(fresh.counts.items())
            assert old.feature_codes() == fresh.feature_codes()
            assert not hasattr(old, "locations")

    def test_a_parent_layout_pickle_drops_its_locations(self):
        """A code-keyed pickle of the layout that still had a ``locations``
        field (Grapes' rows, non-empty) loads with equal counts and no
        rows."""
        graph = LabeledGraph.from_edges({0: "A", 1: "B", 2: "A"}, [(0, 1), (1, 2)])
        fresh = FeatureExtractor(max_path_length=3).extract(graph)
        _, located = kernel_oracle.tuple_features(FeatureExtractor(max_path_length=3), graph)
        rows = {path_code(key): mask for key, mask in located.items()}
        assert set(rows) == set(fresh.counts) and all(rows.values())
        old = GraphFeatures.__new__(GraphFeatures)
        old.__setstate__({"counts": dict(fresh.counts), "locations": rows, "codes": None})
        assert old == fresh and list(old.counts.items()) == list(fresh.counts.items())
        assert old.feature_codes() == fresh.feature_codes()
        assert not hasattr(old, "locations")


# ----------------------------------------------------------------------
# A query is prepared once
# ----------------------------------------------------------------------
def _engine(method_name: str, database) -> IGQ:
    engine = IGQ(
        create_method(method_name, max_path_length=3),
        EngineConfig(cache=CacheConfig(size=8, window=4)),
    )
    engine.build_index(database)
    database.precompile()
    return engine


class TestPreparedOnce:
    @pytest.fixture
    def flattened(self, monkeypatch):
        flattened: list = []
        csr = LabeledGraph.csr

        def counting_csr(graph):
            flattened.append(graph.name)
            return csr(graph)

        monkeypatch.setattr(LabeledGraph, "csr", counting_csr)
        return flattened

    @staticmethod
    def stream():
        rng = random.Random(4)
        queries = [random_labeled_graph(rng, rng.randint(2, 5), 0.3) for _ in range(12)]
        for index, query in enumerate(queries):
            query.name = f"query{index}"
        return queries

    @pytest.mark.parametrize("method_name", ["ggsx", "grapes"])
    def test_engine_query_flattens_once_and_never_decodes(
        self, method_name, tiny_database, flattened
    ):
        """Extraction, both probes' compiles, verification and the window
        flush that indexes the query all read one flattening; the repeats
        (memoised) read it again and flatten nothing.  (Nothing is decoded:
        a code has no spelling to decode.)"""
        engine = _engine(method_name, tiny_database)
        queries = self.stream()
        del flattened[:]
        for query in queries:
            engine.query(query)
            assert flattened.count(query.name) == 1
        hits = sum(engine.query(query).num_sub_hits for query in queries)
        assert hits  # the repeats were probed against flushed entries
        assert [name for name in flattened if name.startswith("query")] == [
            query.name for query in queries
        ]

    def test_service_repeats_of_equal_copies_reuse_the_preparation(
        self, tiny_database, flattened
    ):
        """The batch executor's memo hands the flattening out with the
        features, so an equal copy built in the same order (what a decoded
        wire repeat is) is not flattened again."""
        engine = _engine("ggsx", tiny_database)
        queries = self.stream()
        del flattened[:]
        with BatchExecutor(engine) as executor:
            executor.run_batch(queries)
            executor.run_batch([pickle.loads(pickle.dumps(query)) for query in queries])
        assert sorted(name for name in flattened if name.startswith("query")) == sorted(
            query.name for query in queries
        )
