"""The native cache-side probe against the Python loops it replaces.

A :class:`~repro.core.containment.ContainmentIndex` keeps its entries in a
kernel-side table (:class:`~repro.core.probe.ProbeTable`) and answers a
probe with ``ck_probe_filter`` + ``ck_probe_verify``; the engine sums the
§5.1 credits of the hits in ``ck_block_plan``.  Every feature is coded, so
every index — any method, any feature class, any verifier — probes the
table.  The Python forms in ``tests/kernel_oracle.py`` are the oracle:
``isub_candidate_ids`` / ``isuper_candidate_ids`` (the filters),
``probe_hits`` (filter, size pre-checks and a ``VF2Matcher`` test per
survivor) and the ``iter_bits`` loop of ``mask_sums`` — identical hit lists
*in order*, identical test counts, identical doubles.  An index on an
``OracleVerifier`` probes with ``probe_hits`` under the ``oracle_probes``
fixture (the oracle engine's probe): it must answer and account as the
native one does.  The same arrangement ``ck_path_features`` has with
``kernel_oracle.path_features`` (``tests/test_native_extract.py``); this file is on the
ASan leg's pytest line.  ``tests/test_flush_apply.py`` checks the write
path itself — ``ProbeTable.apply`` against a dict model, slot reuse, size
accounting and the rows' ownership of their compiled forms.
"""

from __future__ import annotations

import pickle
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IGQ, QueryCache, SubgraphQueryIndex, SupergraphQueryIndex
from repro.core.probe import ColumnBlock
from repro.features import FeatureExtractor
from repro.features.paths import path_code
from repro.graphs import GraphDatabase, LabeledGraph
from repro.isomorphism import Verifier, _ckernel_loader
from repro.methods import create_method

from . import kernel_oracle
from .conftest import (
    engine_config,
    index_state,
    labeled_graphs,
    make_path_graph,
    random_labeled_graph,
)

EXTRACTOR = FeatureExtractor(max_path_length=3)


class Pair:
    """One direction twice over the same graphs under the same ids: on the
    kernel and on the oracle's probe (needs the ``oracle_probes`` fixture).

    Both indexes hold entries of their own, so releasing compiled state on
    one side never shows on the other.
    """

    def __init__(self, kind, restored: bool = False, extractor=EXTRACTOR) -> None:
        self.native = kind(Verifier())
        self.matcher = kind(kernel_oracle.OracleVerifier())
        self.caches = (QueryCache(), QueryCache())
        self.restored = restored
        self.extractor = extractor
        self.find = "find_supergraphs" if kind is SubgraphQueryIndex else "find_subgraphs"

    def add(self, graph: LabeledGraph) -> int:
        for cache, index in zip(self.caches, (self.native, self.matcher)):
            entry = cache.add(graph, self.extractor.extract(graph), frozenset())
            if self.restored:
                # what a warm restart adds: a copy that crossed a pickle
                # boundary (its pairs are rebuilt on demand)
                entry = pickle.loads(pickle.dumps(entry))
                assert entry.features.codes is None
            index.add(entry)
        return entry.entry_id

    def remove(self, entry_id: int) -> None:
        for cache, index in zip(self.caches, (self.native, self.matcher)):
            index.remove(entry_id)
            cache.remove(entry_id)

    def assert_same_probe(self, query: LabeledGraph) -> list[int]:
        features = self.extractor.extract(query)
        outcomes = []
        for index in (self.native, self.matcher):
            stats = index.verifier.stats
            before = (stats.tests, stats.positives, stats.negatives)
            hits = getattr(index, self.find)(query, features)
            delta = tuple(
                now - then
                for now, then in zip((stats.tests, stats.positives, stats.negatives), before)
            )
            outcomes.append((hits, delta))
        assert outcomes[0] == outcomes[1]
        ids, (tests, positives, _) = outcomes[0]
        assert kernel_oracle.probe_hits(self.native, query, features) == (ids, tests)
        assert positives == len(ids)
        return ids

    def assert_same_candidates(self, query: LabeledGraph) -> None:
        features = self.extractor.extract(query)
        if self.native.entry_is_target:
            expected = kernel_oracle.isub_candidate_ids(self.native, features)
        else:
            expected = kernel_oracle.isuper_candidate_ids(self.native, features)
        # in slot order, and both indexes recycled the same slots
        assert self.native.candidate_ids(features) == self.matcher.candidate_ids(features)
        assert sorted(self.native.candidate_ids(features)) == expected

    def assert_rows_are_the_entries(self) -> None:
        """The table holds exactly the live entries: codes, sizes and id."""
        rows = index_state(self.native)["rows"]
        assert rows == index_state(self.matcher)["rows"]
        assert rows == {
            entry.entry_id: (
                entry.graph.num_vertices,
                entry.graph.num_edges,
                self.extractor.extract(entry.graph).feature_codes().tolist(),
            )
            for entry in self.caches[0].entries()
        }


#: queries may carry a label ("D") no cached graph has: the Isub filter
#: then has nothing to verify, whatever else the query holds
cached_graphs = labeled_graphs(max_vertices=6, labels="ABC")
query_graphs = labeled_graphs(max_vertices=7, labels="ABCD")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), cached_graphs),
        st.tuples(st.just("add"), st.just(LabeledGraph())),  # an entry with no features
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("probe"), query_graphs),
    ),
    max_size=30,
)


@pytest.mark.usefixtures("oracle_probes")
@pytest.mark.parametrize("kind", [SubgraphQueryIndex, SupergraphQueryIndex])
class TestProbeDifferential:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(operations=operations, restored=st.booleans())
    def test_random_caches_and_queries(self, kind, operations, restored):
        """Adds, removes (so slots recycle) and probes in any order, from
        the empty index on."""
        pair = Pair(kind, restored)
        live: list[int] = []
        pair.assert_same_probe(make_path_graph("AB"))
        for operation in operations:
            if operation[0] == "add":
                live.append(pair.add(operation[1]))
            elif operation[0] == "remove":
                if live:
                    pair.remove(live.pop(operation[1] % len(live)))
            else:
                pair.assert_same_probe(operation[1])
                pair.assert_same_candidates(operation[1])
        pair.assert_rows_are_the_entries()

    def test_a_wide_alphabet_stays_on_the_table(self, kind):
        """Entries and queries over 300 label texts — more than the old
        254-entry process-wide label table held, and more than the
        kernel's 255 graph-local ranks for the widest ones, which the
        Python enumeration extracts — are probed on the table."""
        rng = random.Random(5)
        alphabet = [f"L{n:03d}" for n in range(300)]
        pair = Pair(kind)
        wide = LabeledGraph()
        for vertex, label in enumerate(alphabet):
            wide.add_vertex(vertex, label)
            if vertex:
                wide.add_edge(vertex, vertex - 1)
        pair.add(wide)
        for n in range(40):
            labels = alphabet[(7 * n) % 297 : (7 * n) % 297 + 3]
            pair.add(random_labeled_graph(rng, rng.randint(2, 5), 0.4, labels=labels))
        hits = 0
        for n in range(40):
            labels = alphabet[(7 * n) % 297 : (7 * n) % 297 + 3]
            query = random_labeled_graph(rng, rng.randint(1, 4), 0.4, labels=labels)
            hits += len(pair.assert_same_probe(query))
            pair.assert_same_candidates(query)
        pair.assert_same_probe(wide)
        assert hits
        pair.assert_rows_are_the_entries()

    def test_a_tree_and_cycle_entry_stays_on_the_table(self, kind):
        """CT-Index's tree/cycle features are coded like paths: its entries
        and queries probe the table, against the Python oracle."""
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, tree_max_size=3)
        pair = Pair(kind, extractor=extractor)
        rng = random.Random(6)
        for _ in range(12):
            pair.add(random_labeled_graph(rng, rng.randint(2, 5), 0.4))
        hits = 0
        for _ in range(20):
            query = random_labeled_graph(rng, rng.randint(2, 6), 0.4)
            hits += len(pair.assert_same_probe(query))
            pair.assert_same_candidates(query)
        assert hits
        pair.assert_rows_are_the_entries()


# ----------------------------------------------------------------------
# End to end: every engine mode, native probe against the Python probe
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["subgraph", "supergraph", "mixed"])
def test_engine_is_identical_on_both_probes(mode, tiny_database, oracle_probes):
    """Answers, hits, containment-test accounting and the H/R/C the credits
    produce (bit for bit) are the oracle engine's."""
    rng = random.Random(3)
    pool = [random_labeled_graph(rng, rng.randint(2, 6), 0.3, labels="ABC") for _ in range(25)]
    stream = [rng.choice(pool) for _ in range(150)]
    modes = [
        rng.choice(["subgraph", "supergraph"]) if mode == "mixed" else mode for _ in stream
    ]
    engines = [
        IGQ(create_method("ggsx", max_path_length=3), engine_config(12, 4, mode=mode)),
        kernel_oracle.oracle_engine("ggsx", engine_config(12, 4, mode=mode), max_path_length=3),
    ]
    for engine in engines:
        engine.build_index(tiny_database)
    native, python = engines
    for query, query_mode in zip(stream, modes):
        results = [engine.query(query, mode=query_mode) for engine in engines]
        first, second = (
            (
                sorted(result.answers, key=repr),
                result.num_sub_hits,
                result.num_super_hits,
                result.exact_hit,
                result.num_isomorphism_tests,
            )
            for result in results
        )
        assert first == second
    for left, right in zip(native.cache.entries(), python.cache.entries()):
        assert (left.entry_id, left.hits, left.removed) == (right.entry_id, right.hits, right.removed)
        assert left.alleviated_cost.hex() == right.alleviated_cost.hex()
    for name in ("tests", "positives", "negatives"):
        assert getattr(native.igq_verifier.stats, name) == getattr(python.igq_verifier.stats, name)
    assert native.igq_verifier.stats.tests > 0
    assert any(entry.alleviated_cost for entry in native.cache.entries())


def wide_database() -> GraphDatabase:
    """Sixty graphs over 300 label texts (three a graph, neighbours
    overlapping), so that queries drawn from one graph's labels hit."""
    rng = random.Random(12)
    alphabet = [f"L{n:03d}" for n in range(300)]
    graphs = [
        random_labeled_graph(rng, 6, 0.3, labels=alphabet[5 * n : 5 * n + 3], name=f"w{n}")
        for n in range(60)
    ]
    return GraphDatabase.from_graphs(graphs, name="wide")


@pytest.mark.parametrize(
    "method_name, options, wide",
    [("ggsx", {"max_path_length": 8}, False), ("ctindex", {}, False), ("ggsx", {}, True)],
    ids=["ggsx-L8", "ctindex", "ggsx-300-labels"],
)
def test_every_feature_class_stays_on_the_probe_table(
    method_name, options, wide, tiny_database, oracle_probes
):
    """Paths past seven edges and CT-Index's trees and cycles (the Python
    extractor's features), and a 300-label dataset: both containment
    indexes hold every live entry as a table row for the whole stream,
    and answers equal ``ScanMethod``'s — on the kernel engine and on the
    oracle engine, with equal H/R/C (bit for bit) and tests."""
    database = wide_database() if wide else tiny_database
    rng = random.Random(8)
    if wide:
        pool = [
            database.get(graph_id).subgraph(list(database.get(graph_id).vertices())[:size])
            for graph_id, size in zip(rng.sample(database.ids(), 20), [2, 3, 4, 5] * 5)
        ]
    else:
        pool = [random_labeled_graph(rng, rng.randint(2, 6), 0.3, labels="ABC") for _ in range(20)]
    stream = [rng.choice(pool) for _ in range(80)]
    modes = [rng.choice(["subgraph", "supergraph"]) for _ in stream]
    scan = create_method("scan")
    scan.build_index(database)
    expected = [
        sorted(
            (scan.query(query) if mode == "subgraph" else scan.supergraph_query(query)).answers,
            key=repr,
        )
        for query, mode in zip(stream, modes)
    ]
    runs = []
    for oracle in (False, True):
        config = engine_config(10, 3, mode="mixed")
        if oracle:
            engine = kernel_oracle.oracle_engine(method_name, config, **options)
        else:
            engine = IGQ(create_method(method_name, **options), config)
        engine.build_index(database)
        results = []
        for query, mode in zip(stream, modes):
            results.append(engine.query(query, mode=mode))
            live = sorted(engine.cache.entry_ids())
            assert sorted(index_state(engine.isub)["rows"]) == live
            assert sorted(index_state(engine.isuper)["rows"]) == live
        assert [sorted(result.answers, key=repr) for result in results] == expected
        runs.append(
            (
                [result.num_isomorphism_tests for result in results],
                [(result.num_sub_hits, result.num_super_hits) for result in results],
                [
                    (entry.entry_id, entry.hits, entry.removed, entry.alleviated_cost.hex())
                    for entry in engine.cache.entries()
                ],
            )
        )
        engine.close()
    assert runs[0] == runs[1]
    assert any(sub or sup for sub, sup in runs[0][1])


# ----------------------------------------------------------------------
# The credit sums of ck_block_plan
# ----------------------------------------------------------------------
def credited_costs(costs: array, masks: list[int]) -> list[float]:
    """C(g) of one fresh row per mask after one ``ck_block_plan`` call
    that credits each row as a guaranteeing hit of an all-candidates
    query: the sum of ``costs`` over the mask's bits, as the kernel adds
    it (also as the call returns it for a replay)."""
    block = ColumnBlock(_ckernel_loader.kernel())
    block.set_width(len(costs))
    rows = array("q", [field for entry_id in range(len(masks)) for field in (entry_id, 1, 1, 0, 0, 0)])
    block.add(rows, array("d", bytes(8 * len(masks))), block.answer_bytes(masks))
    hit_ids = array("q", range(len(masks)))
    everything = (1 << len(costs)) - 1
    *_, (_, removed, credited) = block.plan(hit_ids, len(masks), everything, costs, 0, 0)
    assert removed.tolist() == [mask.bit_count() for mask in masks]
    totals = [block.stats(entry_id)[2] for entry_id in range(len(masks))]
    assert [total.hex() for total in totals] == [total.hex() for total in credited]
    return totals


class TestMaskSums:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_totals_are_the_python_loops_doubles(self, data):
        """Added in position order from 0.0: equal as ``float.hex``, for
        costs of wildly different magnitudes (where the order matters),
        the empty mask and a last partial word."""
        size = data.draw(st.integers(min_value=1, max_value=200))
        costs = array(
            "d",
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, allow_nan=False, allow_infinity=True, width=64),
                    min_size=size,
                    max_size=size,
                )
            ),
        )
        masks = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << size) - 1), max_size=6)
        )
        masks += [0, (1 << size) - 1, 1 << (size - 1)]
        totals = credited_costs(costs, masks)
        assert [total.hex() for total in totals] == [
            total.hex() for total in kernel_oracle.mask_sums(costs, masks)
        ]

    def test_the_fallback_is_the_same_loop(self):
        """Costs of magnitudes where the summation order shows, over two
        words and a partial third: the oracle loop's doubles exactly."""
        rng = random.Random(2)
        costs = array("d", [rng.random() * 10 ** rng.randint(-8, 12) for _ in range(130)])
        masks = [rng.getrandbits(130) for _ in range(10)] + [0]
        native = credited_costs(costs, masks)
        assert [t.hex() for t in kernel_oracle.mask_sums(costs, masks)] == [t.hex() for t in native]


# ----------------------------------------------------------------------
# Global feature codes
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    left=labeled_graphs(max_vertices=6, labels="BCD"),
    right=labeled_graphs(max_vertices=6, labels="ABD"),
)
def test_global_codes_are_the_keys(left, right):
    """Two graphs share a code iff they share the key — although "B" and
    "D" have different graph-local ranks on the two sides — and each
    graph's pairs are its counts, sorted by code."""
    code_of: dict = {}
    for graph in (left, right):
        features = EXTRACTOR.extract(graph)
        pairs = features.feature_codes()
        assert pairs == features.codes and len(pairs) == 2 * len(features.counts)
        codes = pairs[0::2]
        assert list(codes) == sorted(codes)
        assert list(features.counts.items()) == list(zip(codes, pairs[1::2]))
        by_code = {}
        for key, count in kernel_oracle.path_features(graph, 3).items():
            code = path_code(key)
            assert code_of.setdefault(key, code) == code
            by_code[code] = count
        assert features.counts == by_code
    assert len(set(code_of.values())) == len(code_of)


def test_codes_pickle_as_they_are():
    """A code is the same in every process, so a pickle carries the codes
    and the copy rebuilds only its pairs array."""
    features = EXTRACTOR.extract(make_path_graph("ABCA"))
    assert features.codes is not None
    copy = pickle.loads(pickle.dumps(features))
    assert copy == features and copy.codes is None
    assert list(copy.counts.items()) == list(features.counts.items())
    assert copy.feature_codes() == features.codes
