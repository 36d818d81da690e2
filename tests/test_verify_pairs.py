"""Differential tests for the batch verification entry point.

``Verifier.verify_pairs`` / ``match_pairs`` answer every pair of one query in
one ``ck_verify_many`` call and must agree, pair for pair, with the
per-pair bigint loop of ``tests/kernel_oracle.py`` and with the dict-based
``VF2Matcher`` on the
match flags *and* on how many isomorphism tests were counted (the paper's
Figs. 7–11 metric), including Grapes' component-restricted mode where a pair
may count zero or several tests.  The oracles here share no code with the
fast paths: ``VF2Matcher`` on materialised (region / component) subgraphs,
``connected_components`` for the decomposition order, and the posting-walk
filters of ``conftest``.

The ASan/UBSan CI job runs this file against the sanitised kernel.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import QueryCache, SubgraphQueryIndex, SupergraphQueryIndex
from repro.datasets.registry import load_dataset
from repro.features import FeatureExtractor
from repro.graphs import LabeledGraph
from repro.isomorphism import (
    Verifier,
    compile_query_plan,
    compile_target,
    match_pairs,
)
from repro.methods import create_method
from repro.workloads.generator import QueryGenerator, WorkloadSpec

from . import kernel_oracle
from .kernel_oracle import VF2Matcher, is_connected
from .conftest import (
    make_cycle_graph,
    make_path_graph,
    oracle_at_least,
    oracle_tally,
    posting_lists,
    random_labeled_graph,
)
from .test_compiled import mask_of_vertices

EXTRACTOR = FeatureExtractor(max_path_length=3)

#: target sizes around the uint64 word boundaries, plus ordinary small ones
TARGET_SIZES = (1, 3, 6, 9, 12, 63, 64, 65, 128, 129)


def oracle_pair(pattern, target_graph, region, by_component) -> tuple[bool, int]:
    """(matched, counted tests) of one pair by the dict-based matcher."""
    if not by_component or not is_connected(pattern):
        # a disconnected pattern is tested whole even by_component
        graph = target_graph if region is None else target_graph.subgraph(region)
        return VF2Matcher(pattern, graph).has_match(), 1
    # the label region: the target's vertices carrying a pattern label
    labels = pattern.labels()
    region = [v for v in target_graph.vertices() if target_graph.label(v) in labels]
    return kernel_oracle.match_region_subgraph(pattern, target_graph, region)


def check_batch(patterns, target_graphs, regions, by_component) -> None:
    """native ≡ bigint ≡ VF2Matcher for one batch; exactly one of
    ``patterns`` / ``target_graphs`` may be a single shared graph."""
    shared_plan = isinstance(patterns, LabeledGraph)
    count = len(target_graphs if shared_plan else patterns)
    if shared_plan:
        pairs = [(patterns, graph) for graph in target_graphs]
    else:
        pairs = [(pattern, target_graphs) for pattern in patterns]
    expected = [
        oracle_pair(pattern, graph, None if regions is None else regions[i], by_component)
        for i, (pattern, graph) in enumerate(pairs)
    ]
    if shared_plan:
        query_side = compile_query_plan(patterns)
        candidates = [compile_target(graph) for graph in target_graphs]
        targets = candidates
    else:
        query_side = compile_target(target_graphs)
        candidates = [compile_query_plan(pattern) for pattern in patterns]
        targets = [query_side] * count
    masks = None
    if regions is not None:
        masks = [mask_of_vertices(target, region) for target, region in zip(targets, regions)]
    matched, tests = match_pairs(query_side, candidates, masks, by_component=by_component)
    assert list(zip(matched, tests)) == expected
    bigint = kernel_oracle.match_pairs(query_side, candidates, masks, by_component)
    assert list(zip(*bigint)) == expected
    verifier = Verifier()
    assert verifier.verify_pairs(query_side, candidates, masks, by_component) == matched
    stats = verifier.stats
    assert stats.tests == sum(tests for _, tests in expected)
    assert stats.positives == sum(flag for flag, _ in expected)
    assert stats.negatives == stats.tests - stats.positives


class _Fresh:
    """A label no target has ever carried: interned only when the pattern's
    plan is marshalled, after every target of the batch."""

    def __repr__(self) -> str:
        return "<fresh label>"


@st.composite
def batches(draw):
    rng = draw(st.randoms(use_true_random=False))
    labels = draw(st.sampled_from(["A", "AB", "ABC"]))

    def pattern():
        size = rng.choice((0, 1, 2, 2, 3, 3, 4, 5))
        # "Z" never occurs in a target: a label the target lacks
        graph = random_labeled_graph(
            rng, size, rng.random() * 0.8, labels + rng.choice(("", "Z")), connected=rng.random() < 0.7
        )
        if size and rng.random() < 0.1:
            fresh = LabeledGraph()
            for vertex in graph.vertices():
                fresh.add_vertex(vertex, _Fresh() if vertex == 0 else graph.label(vertex))
            for u, v in graph.edges():
                fresh.add_edge(u, v)
            return fresh
        return graph

    def target():
        size = rng.choice(TARGET_SIZES)
        # sparse enough that the dict-based oracle stays fast on 129 vertices
        # and that a random region falls apart into many equal-sized pieces
        density = rng.random() * min(0.6, 3.0 / size)
        return random_labeled_graph(rng, size, density, labels, connected=rng.random() < 0.5)

    count = draw(st.integers(min_value=0, max_value=5))
    shared_plan = draw(st.booleans())
    if shared_plan:
        patterns, target_graphs = pattern(), [target() for _ in range(count)]
        region_graphs = target_graphs
    else:
        patterns, target_graphs = [pattern() for _ in range(count)], target()
        region_graphs = [target_graphs] * count
    # by_component builds its own (label) regions; explicit ones restrict
    # one test
    by_component = draw(st.booleans())
    regions = None
    if not by_component and draw(st.booleans()):
        keep = draw(st.sampled_from((0.1, 0.5, 0.8, 1.0)))  # 0.1: smaller than the pattern
        regions = [
            [vertex for vertex in graph.vertices() if rng.random() < keep]
            for graph in region_graphs
        ]
    return patterns, target_graphs, regions, by_component


class TestDifferential:
    @settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
    @given(batches())
    def test_native_bigint_and_vf2_agree(self, batch):
        check_batch(*batch)

    def test_empty_candidate_list(self):
        verifier = Verifier()
        assert verifier.verify_pairs(compile_query_plan(make_path_graph("AB")), []) == []
        assert verifier.verify_pairs(compile_target(make_path_graph("AB")), []) == []
        assert verifier.stats.tests == 0
        # by_component computes its own regions: explicit ones are refused
        plan = compile_query_plan(make_path_graph("AB"))
        for run in (match_pairs, kernel_oracle.match_pairs):
            with pytest.raises(ValueError, match="by_component"):
                run(plan, [], [1], by_component=True)

    def test_label_interned_after_the_target_was_marshalled(self):
        target_graph = make_cycle_graph("ABAB")
        target = compile_target(target_graph)
        match_pairs(compile_query_plan(make_path_graph("AB")), [target])
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, _Fresh())
        pattern.add_edge(0, 1)
        # one vertex of the lacking label only: the histogram pre-reject and
        # the search's empty candidate base both have to see "absent"
        for graph in (pattern, pattern.subgraph([1])):
            check_batch(graph, [target_graph], None, False)
            check_batch(graph, [target_graph], None, True)

    @pytest.mark.parametrize("host, tests", [(9, 1), (100, 2), (12, 3), (3, 4)])
    def test_equal_sized_components_are_visited_in_repr_order(self, host, tests):
        """Four 3-vertex paths, one of which hosts the pattern: the number of
        counted tests is the host's place in the (size, smallest vertex
        repr) order — ``'10' < '100' < '12' < '3'`` — not in position order."""
        target_graph = LabeledGraph()
        for start in (9, 12, 100, 3):
            for offset, label in enumerate("ABC" if start == host else "ABA"):
                target_graph.add_vertex(start + offset, label)
            target_graph.add_edge(start, start + 1)
            target_graph.add_edge(start + 1, start + 2)
        pattern = make_path_graph("ABC")
        assert oracle_pair(pattern, target_graph, None, True) == (True, tests)
        check_batch(pattern, [target_graph], None, True)

    def test_plans_and_rows_beyond_the_kernel_stack_buffers(self):
        """``(steps + 1) * W > 2048`` words and ``4 * steps > 256``: the
        search spills its scratch to the heap, and so does the component
        decomposition of a 21-word region.  Vertex 650 carries a label no
        pattern has, so it cuts the label region as the explicit mask
        does."""
        period = "ABCDEFG"
        size = 1300
        labels = (period * (size // len(period) + 1))[:size]
        target_graph = make_path_graph(labels[:650] + "Z" + labels[651:])
        embedded = make_path_graph((period * 15)[:100])
        closed = make_cycle_graph(period * 14)  # 98 vertices, never closes in a path
        assert (embedded.num_vertices + 1) * ((size + 63) // 64) > 2048
        target = compile_target(target_graph)
        plans = [compile_query_plan(embedded), compile_query_plan(closed)]
        region = (1 << size) - 1 & ~(1 << 650)
        for masks, by_component in ((None, False), ([region] * 2, False), (None, True)):
            native = match_pairs(target, plans, masks, by_component=by_component)
            bigint = kernel_oracle.match_pairs(target, plans, masks, by_component)
            assert native == bigint
            assert native[0] == [True, False]
        assert native[1] == [1, 2]  # both halves of the cut path host the long path's tests


class TestGrapesCompiledPath:
    """``GrapesMethod.verify`` (one kernel call per query, regions decomposed
    in the kernel) against the dict-based path it replaced: region
    subgraphs cut from the location table, tested with ``VF2Matcher``
    (``kernel_oracle.grapes_region_verify``)."""

    @pytest.fixture(scope="class")
    def database(self):
        return load_dataset("pdbs", scale=0.3)

    @pytest.fixture(scope="class")
    def queries(self, database):
        spec = WorkloadSpec(
            name="uniform", graph_distribution="uniform", node_distribution="uniform", seed=11
        )
        connected = QueryGenerator(database, spec).generate(24)
        disconnected = []
        for left, right in zip(connected[::2], connected[1::2]):
            union = LabeledGraph()
            for side, graph in enumerate((left, right)):
                for vertex in graph.vertices():
                    union.add_vertex((side, vertex), graph.label(vertex))
                for u, v in graph.edges():
                    union.add_edge((side, u), (side, v))
            disconnected.append(union)
        assert all(map(is_connected, connected)) and not any(map(is_connected, disconnected))
        return connected + disconnected

    @pytest.mark.parametrize("kernel", ["native", "bigint"])
    def test_answers_and_test_counts_equal_the_dict_path(self, database, queries, kernel):
        """The C kernel, and the bigint oracle in its place."""
        verifier = Verifier() if kernel == "native" else kernel_oracle.OracleVerifier()
        fast = create_method("grapes", max_path_length=3, verifier=verifier)
        fast.build_index(database)
        several = answered = 0
        for query in queries:
            got = fast.query(query)
            features = fast.extract_query_features(query)
            candidates = fast.filter_candidates(query, features)
            answers, tests = kernel_oracle.grapes_region_verify(fast, query, candidates)
            assert set(got.answers) == answers
            assert set(got.candidates) == set(candidates)
            assert got.num_isomorphism_tests == tests
            several += got.num_isomorphism_tests != len(got.candidates)
            answered += len(answers)
        assert several  # component accounting (0 or 2+ tests a candidate) was exercised
        assert fast.verifier.stats.positives == answered


class TestProbesAgainstOracles:
    """``Isub`` / ``Isuper`` lookups: hits, hit order and containment-test
    counts against the posting-walk filters plus ``VF2Matcher``."""

    def test_hits_order_and_counts(self):
        rng = random.Random(61)
        cache = QueryCache()
        sub_verifier, super_verifier = Verifier(), Verifier()
        isub, isuper = SubgraphQueryIndex(sub_verifier), SupergraphQueryIndex(super_verifier)

        def insert(count):
            for _ in range(count):
                graph = random_labeled_graph(rng, rng.randint(2, 7), 0.4)
                entry = cache.add(graph, EXTRACTOR.extract(graph), frozenset())
                isub.add(entry)
                isuper.add(entry)

        insert(30)
        for victim in rng.sample(cache.entry_ids(), 12):  # recycle slots:
            isub.remove(victim)  # slot order no longer is id order
            isuper.remove(victim)
            cache.remove(victim)
        insert(12)

        tables = {entry.entry_id: entry.features for entry in cache.entries()}
        graphs = {entry.entry_id: entry.graph for entry in cache.entries()}
        postings = posting_lists(tables)
        sub_tests = super_tests = sub_hits = super_hits = 0
        for _ in range(60):
            query = random_labeled_graph(rng, rng.randint(2, 8), 0.4)
            features = EXTRACTOR.extract(query)
            size = (query.num_vertices, query.num_edges)

            tested = sorted(
                entry_id
                for entry_id in oracle_at_least(postings, tables, features.counts)
                if graphs[entry_id].num_vertices >= size[0] and graphs[entry_id].num_edges >= size[1]
            )
            expected = [i for i in tested if VF2Matcher(query, graphs[i]).has_match()]
            assert isub.find_supergraphs(query, features) == expected
            sub_tests += len(tested)
            sub_hits += len(expected)

            tested = sorted(
                entry_id
                for entry_id in oracle_tally(postings, tables, features.counts)
                if graphs[entry_id].num_vertices <= size[0] and graphs[entry_id].num_edges <= size[1]
            )
            expected = [i for i in tested if VF2Matcher(graphs[i], query).has_match()]
            assert isuper.find_subgraphs(query, features) == expected
            super_tests += len(tested)
            super_hits += len(expected)

        assert (sub_verifier.stats.tests, sub_verifier.stats.positives) == (sub_tests, sub_hits)
        assert (super_verifier.stats.tests, super_verifier.stats.positives) == (super_tests, super_hits)
        assert sub_hits and super_hits and sub_tests > sub_hits and super_tests > super_hits
