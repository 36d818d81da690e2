"""The native cache-side probe against the Python loops it replaces.

With the C kernel resolved, a :class:`~repro.core.containment.ContainmentIndex`
keeps its entries in a kernel-side table (:class:`~repro.core.probe.ProbeTable`)
and answers a probe with ``ck_probe_filter`` + ``ck_probe_verify``; the
engine sums the §5.1 credits of the hits with ``ck_mask_sums``.  The Python
forms — ``SupergraphQueryIndex.candidate_mask``, ``ThresholdBitmapIndex.at_least``
and ``ContainmentIndex._verified_hits`` behind a ``Verifier(kernel="bigint")``,
and the ``iter_bits`` loop of ``mask_sums`` — are the oracle: identical hit
lists *in order*, identical verifier accounting, identical doubles.  The same
arrangement ``ck_path_features`` has with ``path_features``
(``tests/test_native_extract.py``); this file is on the ASan leg's pytest
line, where a row outliving its entry's compiled form would be a
use-after-free.
"""

from __future__ import annotations

import gc
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IGQ, QueryCache, SubgraphQueryIndex, SupergraphQueryIndex
from repro.core import probe as probe_module
from repro.core.probe import mask_sums
from repro.features import FeatureExtractor
from repro.features import paths as paths_module
from repro.features.paths import encode_path_keys
from repro.graphs import LabeledGraph
from repro.graphs.bitset import iter_bits
from repro.isomorphism import Verifier, native_kernel_available
from repro.methods import create_method

from .conftest import (
    engine_config,
    index_state,
    labeled_graphs,
    make_path_graph,
    random_labeled_graph,
)

pytestmark = pytest.mark.skipif(
    not native_kernel_available(),
    reason="native kernel unavailable (no compiler / REPRO_DISABLE_NATIVE)",
)

EXTRACTOR = FeatureExtractor(max_path_length=3)


class Pair:
    """One direction twice: on the native table and on the Python filter.

    Both indexes hold entries of their own over the same graphs under the
    same ids, so releasing compiled state on one side never shows on the
    other.
    """

    def __init__(self, kind, restored: bool = False) -> None:
        self.native = kind(Verifier())
        self.oracle = kind(Verifier(kernel="bigint"))
        assert self.native._table is not None and self.oracle._table is None
        self.caches = (QueryCache(), QueryCache())
        self.restored = restored
        self.find = "find_supergraphs" if kind is SubgraphQueryIndex else "find_subgraphs"

    def add(self, graph: LabeledGraph) -> int:
        for cache, index in zip(self.caches, (self.native, self.oracle)):
            entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
            if self.restored:
                # what a warm restart or a process-backend shard delta adds:
                # a copy that crossed a pickle boundary as tuple keys and
                # was re-encoded on arrival (its pairs are rebuilt on demand)
                entry = pickle.loads(pickle.dumps(entry))
                assert entry.features.codes is None and entry.features.coded
            index.add(entry)
        return entry.entry_id

    def remove(self, entry_id: int) -> None:
        for cache, index in zip(self.caches, (self.native, self.oracle)):
            index.remove(entry_id)
            cache.remove(entry_id)

    def assert_same_probe(self, query: LabeledGraph, restrict_ids=None) -> list[int]:
        outcomes = []
        for index in (self.native, self.oracle):
            stats = index.verifier.stats
            before = (stats.tests, stats.positives, stats.negatives)
            hits = getattr(index, self.find)(
                query, EXTRACTOR.extract(query), restrict_ids=restrict_ids
            )
            delta = tuple(
                now - then
                for now, then in zip((stats.tests, stats.positives, stats.negatives), before)
            )
            outcomes.append(([entry.entry_id for entry in hits], delta))
        assert outcomes[0] == outcomes[1]
        ids = outcomes[0][0]
        assert ids == sorted(ids)
        return ids

    def assert_same_candidates(self, query: LabeledGraph) -> None:
        features = EXTRACTOR.extract(query)
        # both in slot order, and both indexes recycled the same slots
        assert self.native.candidate_ids(features) == self.oracle.candidate_ids(features)

    def assert_rows_are_the_entries(self) -> None:
        """The table holds exactly the live entries: codes, sizes and id."""
        rows = index_state(self.native)["rows"]
        assert rows == {
            entry.entry_id: (
                entry.graph.num_vertices,
                entry.graph.num_edges,
                encode_path_keys(entry.features.key_counts()).tolist(),
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
        st.tuples(
            st.just("restrict"),
            query_graphs,
            st.lists(st.integers(min_value=0, max_value=40), max_size=8),
        ),
    ),
    max_size=30,
)


@pytest.mark.parametrize("kind", [SubgraphQueryIndex, SupergraphQueryIndex])
class TestProbeDifferential:
    @settings(max_examples=60, deadline=None)
    @given(operations=operations, restored=st.booleans())
    def test_random_caches_and_queries(self, kind, operations, restored):
        """Adds, removes (so slots recycle) and probes — unrestricted and
        with ``restrict_ids``, ids not indexed included — in any order,
        from the empty index on."""
        pair = Pair(kind, restored)
        live: list[int] = []
        pair.assert_same_probe(make_path_graph("AB"))
        for operation in operations:
            if operation[0] == "add":
                live.append(pair.add(operation[1]))
            elif operation[0] == "remove":
                if live:
                    pair.remove(live.pop(operation[1] % len(live)))
            elif operation[0] == "probe":
                pair.assert_same_probe(operation[1])
                pair.assert_same_candidates(operation[1])
            else:
                # small ints are a mix of live, evicted and never-assigned ids
                pair.assert_same_probe(operation[1], restrict_ids=operation[2])
        pair.assert_rows_are_the_entries()
        assert index_state(pair.native)["live"] == index_state(pair.oracle)["live"]

    def test_a_row_outlives_whoever_releases_the_entry_first(self, kind):
        """The cache may release an evicted entry's compiled state before
        the index hears of it; the row keeps what its address points at."""
        rng = random.Random(11)
        pair = Pair(kind)
        for _ in range(12):
            pair.add(random_labeled_graph(rng, rng.randint(2, 5), 0.4))
        for entry in pair.caches[0].entries():
            entry.release_compiled()
        gc.collect()
        hits = 0
        for _ in range(20):
            hits += len(pair.assert_same_probe(random_labeled_graph(rng, rng.randint(2, 6), 0.4)))
        assert hits

    def test_rows_are_freed_on_remove_and_counted_in_the_size(self, kind):
        pair = Pair(kind)
        empty = pair.native.estimated_size_bytes()
        ids = [pair.add(make_path_graph(labels)) for labels in ("ABC", "BCA", "AAB")]
        full = pair.native.estimated_size_bytes()
        # three rows of 6, 6 and 5 (code, count) pairs
        assert full - empty >= 16 * 17
        # the one filter structure: no threshold bitmaps next to the table
        assert index_state(pair.native)["postings"] == {}
        held = pair.native._table.size_bytes()
        for entry_id in ids:
            pair.remove(entry_id)
        assert held - pair.native._table.size_bytes() == 16 * 17
        assert index_state(pair.native)["rows"] == {}
        pair.add(make_path_graph("CC"))  # into a recycled slot
        pair.assert_rows_are_the_entries()

    def test_label_table_overflow_switches_to_the_python_filter(self, kind, monkeypatch):
        """A label that no longer fits the process-wide table has no code:
        the index leaves the native table for good, live entries and all,
        and keeps answering — by the loop that is otherwise the oracle."""
        monkeypatch.setattr(paths_module, "_LABEL_BYTES", {})
        monkeypatch.setattr(paths_module, "_MAX_LABEL_BYTES", 3)
        rng = random.Random(5)
        pair = Pair(kind)
        for _ in range(10):
            pair.add(random_labeled_graph(rng, rng.randint(2, 5), 0.4, labels="ABC"))
        pair.assert_same_probe(random_labeled_graph(rng, 5, 0.4, labels="ABC"))
        assert pair.native._table is not None
        wide = random_labeled_graph(rng, 5, 0.4, labels="ABCD")
        while "D" not in {wide.label(vertex) for vertex in wide.vertices()}:
            wide = random_labeled_graph(rng, 5, 0.4, labels="ABCD")
        assert EXTRACTOR.extract(wide).feature_codes() is None
        pair.assert_same_probe(wide)
        assert pair.native._table is None
        # the one-time rebuild: the Python filter now holds every live entry
        assert index_state(pair.native) == index_state(pair.oracle)
        pair.add(wide)
        for _ in range(10):
            pair.assert_same_probe(random_labeled_graph(rng, rng.randint(3, 6), 0.4, labels="ABCD"))
        pair.remove(0)
        pair.assert_same_probe(wide)

    def test_an_uncoded_entry_switches_on_add(self, kind):
        """CT-Index's tree/cycle features do not pack: the first such entry
        takes the index off the table."""
        pair = Pair(kind)
        pair.add(make_path_graph("AB"))
        extractor = FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES)
        graph = make_path_graph("ABC")
        features = extractor.extract(graph)
        assert features.feature_codes() is None
        pair.native.add(pair.caches[0].add(graph, features, frozenset()))
        assert pair.native._table is None
        assert len(pair.native) == 2


# ----------------------------------------------------------------------
# End to end: every engine mode, native probe against the Python probe
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["subgraph", "supergraph", "mixed"])
def test_engine_is_identical_on_both_probes(mode, tiny_database):
    """Answers, hits, containment-test accounting and the H/R/C the credits
    produce (bit for bit) do not depend on which probe ran."""
    rng = random.Random(3)
    pool = [random_labeled_graph(rng, rng.randint(2, 6), 0.3, labels="ABC") for _ in range(25)]
    stream = [rng.choice(pool) for _ in range(150)]
    modes = [
        rng.choice(["subgraph", "supergraph"]) if mode == "mixed" else mode for _ in stream
    ]
    engines = []
    for igq_verifier in (None, Verifier(kernel="bigint")):
        method = create_method("ggsx", max_path_length=3)
        engine = IGQ(
            method,
            engine_config(12, 4, mode=mode),
            igq_verifier=igq_verifier,
        )
        engine.build_index(tiny_database)
        engines.append(engine)
    native, python = engines
    assert native.isub._table is not None and python.isub._table is None
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
    assert native.isub._table is not None and native.igq_verifier.stats.tests > 0
    assert any(entry.alleviated_cost for entry in native.cache.entries())


# ----------------------------------------------------------------------
# ck_mask_sums
# ----------------------------------------------------------------------
def python_mask_sum(costs, mask: int) -> float:
    total = 0.0
    for position in iter_bits(mask):
        total += costs[position]
    return total


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
        totals = mask_sums(costs, masks)
        assert [total.hex() for total in totals] == [
            python_mask_sum(costs, mask).hex() for mask in masks
        ]

    def test_the_fallback_is_the_same_loop(self, monkeypatch):
        rng = random.Random(2)
        costs = array("d", [rng.random() * 10 ** rng.randint(-8, 12) for _ in range(130)])
        masks = [rng.getrandbits(130) for _ in range(10)] + [0]
        native = mask_sums(costs, masks)
        monkeypatch.setattr(probe_module._ckernel_loader, "kernel", lambda: None)
        assert [t.hex() for t in mask_sums(costs, masks)] == [t.hex() for t in native]
        assert mask_sums(costs, []) == []


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
        assert sorted(features.counts.items()) == list(zip(codes, pairs[1::2]))
        assert pairs == encode_path_keys(features.key_counts())
        by_code = {}
        for key, count in features.key_counts().items():
            code = encode_path_keys({key: count})[0]
            assert code_of.setdefault(key, code) == code
            by_code[code] = count
        assert dict(zip(codes, pairs[1::2])) == by_code
    assert len(set(code_of.values())) == len(code_of)


def test_codes_are_never_pickled():
    """A pickle carries the tuple keys; the copy re-encodes them."""
    features = EXTRACTOR.extract(make_path_graph("ABCA"))
    assert features.codes is not None and features.coded
    assert features.__getstate__()["counts"] == features.key_counts()
    copy = pickle.loads(pickle.dumps(features))
    assert copy == features and copy.codes is None and copy.coded
    assert copy.counts == features.counts
    assert copy.feature_codes() == features.codes
