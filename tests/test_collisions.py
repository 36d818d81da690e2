"""Feature-code collisions widen filters and never lose an answer.

A feature's code is a 64-bit hash of its key
(:func:`repro.features.paths.path_code`), so two keys may share one.  The
extractors then merge them — counts add up — and every filter compares sums of counts where it compared counts: a
graph that held every feature of a query at least as often still does,
so a collision can only let more candidates through.  Verification
removes those, so answers stay exact.

Here the label hash is squeezed into a handful of buckets, so that most
features of every graph collide (CT-Index's trees and cycles hash through
it too), and each run is compared with ``ScanMethod`` and with the same
run uncollided: equal answers, never fewer dataset tests a query, equal
cache hits.  The native probe table must take merged codes in its sorted
merge the same way.
"""

from __future__ import annotations

import random

import pytest

from repro.core import IGQ, QueryCache, SubgraphQueryIndex, SupergraphQueryIndex
from repro.features import FeatureExtractor, GraphFeatures
from repro.features import paths as paths_module
from repro.features.paths import native_path_features, path_coverage
from repro.graphs import GraphDatabase
from repro.methods import create_method

from . import kernel_oracle
from .conftest import engine_config, random_labeled_graph
from .test_native_extract import sparse_graph, wide_graph
from .test_native_probe import Pair

_REAL_LABEL_HASH = paths_module.label_hash


def squeeze_label_hash(monkeypatch, buckets: int = 3) -> None:
    """Every label text (and canonical tree or cycle string) hashes to one
    of ``buckets`` values, so distinct features share codes."""
    monkeypatch.setattr(
        paths_module, "label_hash", lambda text: _REAL_LABEL_HASH(text) % buckets
    )


def workload():
    rng = random.Random(21)
    database_graphs = [
        random_labeled_graph(rng, rng.randint(3, 8), 0.3, labels="ABCDE", name=f"g{n}")
        for n in range(40)
    ]
    pool = [random_labeled_graph(rng, rng.randint(2, 5), 0.3, labels="ABCDE") for _ in range(15)]
    stream = [rng.choice(pool) for _ in range(60)]
    modes = [rng.choice(["subgraph", "supergraph"]) for _ in stream]
    return database_graphs, stream, modes


def run(method_name: str, collide: bool, monkeypatch) -> list[tuple]:
    """Answers, dataset tests and cache hits per query of the workload on a
    mixed-mode engine whose cache never evicts (so both runs cache the same
    entries in the same order)."""
    database_graphs, stream, modes = workload()
    with monkeypatch.context() as patched:
        if collide:
            squeeze_label_hash(patched)
        method = create_method(method_name)
        engine = IGQ(method, engine_config(100, 5, mode="mixed"))
        engine.build_index(GraphDatabase.from_graphs(database_graphs, name="collide"))
        results = [engine.query(query, mode=mode) for query, mode in zip(stream, modes)]
        engine.close()
        features = sum(len(method.extractor.extract(g).counts) for g in database_graphs)
    if collide:  # the squeeze did merge features
        assert features < sum(len(method.extractor.extract(g).counts) for g in database_graphs)
    return [
        (
            sorted(result.answers, key=repr),
            result.num_isomorphism_tests,
            result.num_sub_hits,
            result.num_super_hits,
        )
        for result in results
    ]


@pytest.mark.parametrize("method_name", ["ggsx", "grapes", "ctindex"])
def test_collided_codes_answer_exactly_and_never_test_less(method_name, monkeypatch):
    database_graphs, stream, modes = workload()
    scan = create_method("scan")
    scan.build_index(GraphDatabase.from_graphs(database_graphs, name="scan"))
    expected = [
        sorted(
            (scan.query(query) if mode == "subgraph" else scan.supergraph_query(query)).answers,
            key=repr,
        )
        for query, mode in zip(stream, modes)
    ]
    plain = run(method_name, False, monkeypatch)
    collided = run(method_name, True, monkeypatch)
    assert [answers for answers, *_ in plain] == expected
    assert [answers for answers, *_ in collided] == expected
    for (_, tests, *hits), (_, collided_tests, *collided_hits) in zip(plain, collided):
        assert collided_tests >= tests
        assert collided_hits == hits
    assert sum(tests for _, tests, *_ in collided) > sum(tests for _, tests, *_ in plain)
    assert any(sub or sup for *_, sub, sup in plain)


@pytest.mark.parametrize("kind", [SubgraphQueryIndex, SupergraphQueryIndex])
@pytest.mark.parametrize(
    "extractor",
    [
        FeatureExtractor(max_path_length=3),
        FeatureExtractor(kind=FeatureExtractor.TREES_CYCLES, tree_max_size=3),
    ],
    ids=["paths", "trees_cycles"],
)
def test_the_probe_table_merges_without_losing_a_hit(kind, extractor, monkeypatch):
    """Rows of merged codes: the kernel's sorted merge agrees with the
    Python oracle on them, keeps every candidate the uncollided table kept,
    and finds exactly the uncollided hits."""
    rng = random.Random(4)
    cached = [random_labeled_graph(rng, rng.randint(2, 5), 0.4, labels="ABCD") for _ in range(15)]
    queries = [random_labeled_graph(rng, rng.randint(2, 6), 0.4, labels="ABCD") for _ in range(20)]

    def probe_all():
        pair = Pair(kind, extractor=extractor)
        for graph in cached:
            pair.add(graph)
        candidates, hits = [], []
        for query in queries:
            hits.append(pair.assert_same_probe(query))
            pair.assert_same_candidates(query)
            candidates.append(set(pair.native.candidate_ids(extractor.extract(query))))
        return candidates, hits

    plain_candidates, plain_hits = probe_all()
    with monkeypatch.context() as patched:
        squeeze_label_hash(patched)
        collided_candidates, collided_hits = probe_all()
    assert collided_hits == plain_hits
    assert all(wide >= narrow for wide, narrow in zip(collided_candidates, plain_candidates))
    assert sum(map(len, collided_candidates)) > sum(map(len, plain_candidates))
    assert any(plain_hits)


def test_cache_entries_are_indexed_with_merged_codes(monkeypatch):
    """A restored or inserted entry's row holds its merged pairs: distinct
    and ascending codes, as the kernel's merge requires."""
    squeeze_label_hash(monkeypatch, buckets=2)
    extractor = FeatureExtractor(max_path_length=3)
    graph = random_labeled_graph(random.Random(9), 6, 0.4, labels="ABCD")
    features = extractor.extract(graph)
    codes = features.feature_codes()[0::2]
    assert list(codes) == sorted(set(codes))
    index = SubgraphQueryIndex()
    entry = QueryCache().add(graph, features, frozenset())
    index.add(entry)
    assert index._table.row(0)[3] == features.feature_codes()


@pytest.mark.parametrize("buckets", [1, 2, 3])
def test_the_kernel_merges_like_the_python_extractor(buckets, monkeypatch):
    """``ck_path_features`` merges equal codes as ``GraphFeatures.from_keys``
    does: counts summed, the pairs distinct and ascending.  Coverage is
    per key (over several mask words): merged codes do not shrink it —
    also past 255 label strings and past seven edges."""
    squeeze_label_hash(monkeypatch, buckets)
    cases = [(sparse_graph(seed, 70 + 10 * seed), 3) for seed in range(6)]
    cases += [(wide_graph(5, 260, extra=10), 3), (sparse_graph(11, 14), 9)]
    for graph, max_length in cases:
        keys, located = kernel_oracle.tally(
            graph, kernel_oracle.path_occurrences(graph, max_length)
        )
        expected = GraphFeatures.from_keys(keys)
        assert len(expected.counts) < len(keys)
        counts, pairs = native_path_features(graph, max_length)
        assert list(counts.items()) == list(expected.counts.items())
        assert pairs == expected.feature_codes()
        assert path_coverage(graph, max_length) == kernel_oracle.coverage(
            graph, max_length
        ) == sum(mask.bit_count() for mask in located.values())
