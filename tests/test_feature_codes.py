"""Feature codes as the primary key domain, against the tuple-keyed oracle.

Path features are keyed by their process-wide ``uint64`` codes end to end:
the extractor returns them, the dataset index and Grapes' location tables
are keyed by them, the cache-side probe filters on them.  Tuple keys are
the oracle form — what :meth:`GraphFeatures.key_counts` decodes — and what
the threshold index held before.  Every filter must answer exactly as a
:class:`ThresholdBitmapIndex` over tuple keys does, in both directions,
whichever domain a method picked at ``build_index``: codes when every
dataset graph's features are coded, tuple keys otherwise (a full label
table, ``max_path_length`` above 7, CT-Index's trees and cycles).

The second half checks that a query is prepared once: one flattening
(``LabeledGraph.csr``) shared by extraction and both compiles, and no key
decode on the query path.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IGQ, BatchExecutor, CacheConfig, EngineConfig
from repro.features import FeatureExtractor, ThresholdBitmapIndex
from repro.features import extractor as extractor_module
from repro.features import paths as paths_module
from repro.features.paths import encode_path_keys
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism import native_kernel_available
from repro.methods import CTIndexMethod, GGSXMethod, GrapesMethod, create_method

from .conftest import labeled_graphs, random_labeled_graph

needs_native = pytest.mark.skipif(
    not native_kernel_available(),
    reason="native kernel unavailable (no compiler / REPRO_DISABLE_NATIVE)",
)


def build(factory, graphs, **kwargs):
    database = GraphDatabase()
    for index, graph in enumerate(graphs):
        database.add(f"g{index}", graph)
    method = factory(**kwargs)
    method.build_index(database)
    return method


def tuple_index(method) -> ThresholdBitmapIndex:
    """The oracle: the dataset's features by tuple key, as the index was."""
    index = ThresholdBitmapIndex()
    for graph_id in method.database.ids():
        index.add(method.id_space.bit(graph_id), method.graph_features(graph_id).key_counts())
    return index


def assert_filters_match_oracle(method, query: LabeledGraph) -> None:
    """``at_least`` / ``at_most`` through the method's key domain, and
    Grapes' region of every dataset graph, equal the tuple-keyed oracle."""
    oracle = tuple_index(method)
    features = method.extract_query_features(query)
    keys = features.key_counts()
    full = method.id_space.full_mask
    index = method.feature_index
    assert index.at_least(method.index_counts(features), full) == oracle.at_least(keys, full)
    assert index.at_most(method.index_counts(features), full) == oracle.at_most(keys, full)
    if isinstance(method, GrapesMethod):
        for graph_id in method.database.ids():
            located = method.graph_features(graph_id).key_locations()
            region = 0
            for key in keys:
                region |= located.get(key, 0)
            assert method.region_mask(features, graph_id) == region


dataset_graphs = st.lists(labeled_graphs(max_vertices=6, labels="ABCD"), min_size=1, max_size=6)
#: queries may carry a label ("E") no dataset graph has
query_graphs = st.lists(labeled_graphs(max_vertices=7, labels="ABCDE"), min_size=1, max_size=4)


class TestCodedIndexEqualsTupleOracle:
    @pytest.mark.parametrize("factory", [GGSXMethod, GrapesMethod])
    @settings(max_examples=40, deadline=None)
    @given(graphs=dataset_graphs, queries=query_graphs)
    def test_random_datasets_and_queries(self, factory, graphs, queries):
        method = build(factory, graphs, max_path_length=3)
        assert method._coded
        assert all(method.graph_features(g).coded for g in method.database.ids())
        for query in queries:
            assert_filters_match_oracle(method, query)

    @pytest.mark.parametrize("factory", [GGSXMethod, GrapesMethod])
    def test_full_label_table_and_an_unseen_label(self, factory, monkeypatch):
        """The table filled to its 254 entries after the index was built; a
        query with a label it cannot take stays tuple-keyed and still
        filters exactly — nothing dominates it, and its coded keys decide
        which graphs it may contain."""
        monkeypatch.setattr(paths_module, "_LABEL_BYTES", {})
        rng = random.Random(7)
        graphs = [random_labeled_graph(rng, rng.randint(1, 4), 0.3, labels="ABC") for _ in range(12)]
        method = build(factory, graphs, max_path_length=3)
        assert method._coded
        table = paths_module._LABEL_BYTES
        assert paths_module._label_bytes([f"fill{n:03d}" for n in range(254 - len(table))])
        assert len(table) == 254
        for seed in range(8):
            query = random_labeled_graph(random.Random(seed), 6, 0.4, labels="ABC")
            query.add_vertex("unseen", "Z")
            query.add_edge("unseen", 0)
            features = method.extract_query_features(query)
            assert not features.coded and features.feature_codes() is None
            assert_filters_match_oracle(method, query)
            assert method.filter_candidates(query, features=features) == set()
            assert method.filter_supergraph_candidates(query, features=features)
        assert len(table) == 254

    def test_an_uncoded_dataset_graph_puts_the_index_on_tuple_keys(self, monkeypatch):
        """One dataset graph whose labels did not fit: the whole index is
        keyed by tuple, and coded queries are decoded to meet it."""
        monkeypatch.setattr(paths_module, "_LABEL_BYTES", {})
        monkeypatch.setattr(paths_module, "_MAX_LABEL_BYTES", 3)
        rng = random.Random(3)
        graphs = [random_labeled_graph(rng, rng.randint(1, 4), 0.3, labels="ABC") for _ in range(8)]
        graphs.append(random_labeled_graph(rng, 4, 0.3, labels="D"))
        method = build(GrapesMethod, graphs, max_path_length=3)
        assert not method._coded
        assert not any(method.graph_features(g).coded for g in method.database.ids())
        for seed in range(8):
            query = random_labeled_graph(random.Random(seed), 3, 0.4, labels="ABC")
            assert method.extract_query_features(query).coded
            assert_filters_match_oracle(method, query)

    @settings(max_examples=15, deadline=None)
    @given(graphs=dataset_graphs, queries=query_graphs)
    def test_paths_longer_than_a_code_keep_tuple_keys(self, graphs, queries):
        method = build(GGSXMethod, graphs, max_path_length=8)
        assert not method._coded
        for query in queries:
            assert not method.extract_query_features(query).coded
            assert_filters_match_oracle(method, query)

    @settings(max_examples=15, deadline=None)
    @given(graphs=dataset_graphs, queries=query_graphs)
    def test_ctindex_keeps_tuple_keys(self, graphs, queries):
        method = build(CTIndexMethod, graphs, tree_max_size=3, cycle_max_length=4)
        assert not method._coded
        for query in queries:
            assert_filters_match_oracle(method, query)


class TestPickledFeatures:
    @settings(max_examples=40, deadline=None)
    @given(graph=labeled_graphs(max_vertices=7, labels="ABCD"), locations=st.booleans())
    def test_round_trip_keeps_keys_and_reencodes_codes(self, graph, locations):
        features = FeatureExtractor(max_path_length=3).extract(graph, locations=locations)
        copy = pickle.loads(pickle.dumps(features))
        assert copy.coded and copy.codes is None
        assert copy.key_counts() == features.key_counts()
        assert list(copy.key_locations().items()) == list(features.key_locations().items())
        assert list(copy.counts.items()) == list(features.counts.items())
        assert copy.feature_codes() == features.feature_codes() == encode_path_keys(
            features.key_counts()
        )

    def test_another_process_table_gives_other_codes_for_the_same_keys(self):
        """Codes are per process: a copy loaded under a different label
        table spells the same keys with that table's bytes."""
        features = FeatureExtractor(max_path_length=3).extract(
            LabeledGraph.from_edges({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)]), locations=True
        )
        data = pickle.dumps(features)
        keys, located = features.key_counts(), features.key_locations()
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(paths_module, "_LABEL_BYTES", {"C": 1, "B": 2, "A": 3})
            copy = pickle.loads(data)
            assert copy.coded and copy.key_counts() == keys
            assert copy.key_locations() == located
            assert copy.feature_codes() == encode_path_keys(keys)
        assert set(copy.counts) != set(features.counts)

    def test_uncoded_features_stay_uncoded(self):
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, tree_max_size=3)
        features = extractor.extract(LabeledGraph.from_edges({0: "A", 1: "B"}, [(0, 1)]))
        copy = pickle.loads(pickle.dumps(features))
        assert not copy.coded and copy.counts == features.counts and copy == features


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


@needs_native
class TestPreparedOnce:
    @pytest.fixture
    def counters(self, monkeypatch):
        flattened: list = []
        decoded: list = []
        csr = LabeledGraph.csr
        decode = paths_module.decode_path_codes

        def counting_csr(graph):
            flattened.append(graph.name)
            return csr(graph)

        def counting_decode(codes):
            decoded.append(codes)
            return decode(codes)

        monkeypatch.setattr(LabeledGraph, "csr", counting_csr)
        monkeypatch.setattr(paths_module, "decode_path_codes", counting_decode)
        monkeypatch.setattr(extractor_module, "decode_path_codes", counting_decode)
        return flattened, decoded

    @staticmethod
    def stream():
        rng = random.Random(4)
        queries = [random_labeled_graph(rng, rng.randint(2, 5), 0.3) for _ in range(12)]
        for index, query in enumerate(queries):
            query.name = f"query{index}"
        return queries

    @pytest.mark.parametrize("method_name", ["ggsx", "grapes"])
    def test_engine_query_flattens_once_and_never_decodes(
        self, method_name, tiny_database, counters
    ):
        """Extraction, both probes' compiles, verification and the window
        flush that indexes the query all read one flattening; the repeats
        (memoised) read it again and flatten nothing."""
        flattened, decoded = counters
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
        if engine.persister is None:
            # (a forced persistence directory pickles the flushed entries'
            # features, which is where tuple keys are decoded)
            assert decoded == []

    def test_service_repeats_of_equal_copies_reuse_the_preparation(
        self, tiny_database, counters
    ):
        """The batch executor's memo hands the flattening out with the
        features, so an equal copy built in the same order (what a decoded
        wire repeat is) is not flattened again."""
        flattened, decoded = counters
        engine = _engine("ggsx", tiny_database)
        queries = self.stream()
        del flattened[:]
        with BatchExecutor(engine) as executor:
            executor.run_batch(queries)
            executor.run_batch([pickle.loads(pickle.dumps(query)) for query in queries])
        assert sorted(name for name in flattened if name.startswith("query")) == sorted(
            query.name for query in queries
        )
        if engine.persister is None:
            assert decoded == []
