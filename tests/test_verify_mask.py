"""The dataset verification stage on masks.

``match_mask`` / ``Verifier.verify_mask`` take a table of compiled forms by
dataset position and the mask of positions to test, and return the answer
mask from one ``ck_verify_many`` call; ``SubgraphQueryMethod.verify`` /
``verify_supergraph`` (and Grapes') are that call over the method's
position tables.  Checked here against the per-pair bigint loop of
``tests/kernel_oracle.py`` in both directions, with and without
``by_component``: masks across the 64- and 128-bit word boundaries, empty,
single-bit and full masks, and positions whose forms were not compiled
before the call.  Then the layers above: a two-thread batch equals the
sequential run on answers, test counts and ``VerifierStats``, and bare
``query`` / ``supergraph_query`` answer as a brute-force scan.

The ASan/UBSan CI job runs this file against the sanitised kernel.
"""

from __future__ import annotations

import importlib.util

import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IGQ, BatchConfig
from repro.core.batch import BatchExecutor, _split_mask
from repro.datasets.registry import load_dataset
from repro.graphs import CandidateBitmap, GraphDatabase, LabeledGraph
from repro.graphs.bitset import iter_bits
from repro.isomorphism import (
    CompiledQueryPlan,
    FormTable,
    Verifier,
    compile_query_plan,
    compile_target,
    match_mask,
)
from repro.methods import create_method
from repro.workloads.generator import QueryGenerator, WorkloadSpec

from . import kernel_oracle
from .conftest import engine_config, random_labeled_graph
from .kernel_oracle import VF2Matcher

#: table sizes on both sides of the 64- and 128-bit word boundaries
TABLE_SIZES = (1, 2, 63, 64, 65, 127, 128, 129, 130)


def lazy_table(graphs, plans: bool) -> tuple[FormTable, list[int]]:
    """A table over ``graphs`` that compiles each form on first use, and
    the positions it compiled (in order)."""
    compiled = []

    def form_at(position):
        compiled.append(position)
        graph = graphs[position]
        return compile_query_plan(graph) if plans else compile_target(graph)

    return FormTable(len(graphs), form_at), compiled


def expected_answer(query_side, table_graphs, mask, by_component, plans) -> tuple[int, list]:
    """The answer mask and per-position tests of the bigint loop."""
    positions = list(iter_bits(mask))
    compile_form = compile_query_plan if plans else compile_target
    forms = [compile_form(table_graphs[position]) for position in positions]
    matched, tests = kernel_oracle.match_pairs(query_side, forms, None, by_component)
    answer = sum(1 << position for position, flag in zip(positions, matched) if flag)
    per_position = [0] * len(table_graphs)
    for position, count in zip(positions, tests):
        per_position[position] = count
    return answer, per_position


@st.composite
def masked_batches(draw):
    # a plain generator: a hypothesis one draws on every call, and a table
    # is up to 130 graphs
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    size = draw(st.sampled_from(TABLE_SIZES))
    labels = draw(st.sampled_from(["A", "AB", "ABC"]))
    plans = draw(st.booleans())  # the table holds plans: supergraph direction

    def small(connected_share):
        vertices = rng.choice((0, 1, 2, 3, 3, 4, 5))
        return random_labeled_graph(
            rng, vertices, rng.random() * 0.6, labels, connected=rng.random() < connected_share
        )

    def large():
        vertices = rng.randint(1, 10)
        return random_labeled_graph(
            rng, vertices, rng.random() * 0.5, labels, connected=rng.random() < 0.5
        )

    if plans:
        table_graphs = [small(0.7) for _ in range(size)]
        query = large()
    else:
        table_graphs = [large() for _ in range(size)]
        query = small(0.7)
    full = (1 << size) - 1
    kind = draw(st.sampled_from(["empty", "single", "full", "boundary", "random"]))
    if kind == "empty":
        mask = 0
    elif kind == "single":
        mask = 1 << draw(st.sampled_from([0, size - 1, min(63, size - 1), min(64, size - 1)]))
    elif kind == "full":
        mask = full
    elif kind == "boundary":  # bits on both sides of every word boundary
        mask = sum(1 << bit for bit in (62, 63, 64, 65, 126, 127, 128, 129) if bit < size) or 1
    else:
        mask = rng.getrandbits(size)
    # some positions compiled before the call, some only by it
    prefilled = rng.getrandbits(size) & draw(st.sampled_from([0, full]))
    by_component = draw(st.booleans())
    return query, table_graphs, plans, mask, prefilled, by_component


class TestMaskDifferential:
    @settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
    @given(masked_batches())
    def test_answer_mask_and_tests_equal_the_bigint_loop(self, batch):
        query, table_graphs, plans, mask, prefilled, by_component = batch
        query_side = compile_target(query) if plans else compile_query_plan(query)
        table, compiled = lazy_table(table_graphs, plans)
        table.fill(prefilled)
        assert table.ready == prefilled
        tests = array("q", bytes(8 * len(table_graphs)))
        answer, tested = match_mask(
            query_side, table, mask, by_component=by_component, tests=tests
        )
        positives = answer.bit_count()
        want, per_position = expected_answer(
            query_side, table_graphs, mask, by_component, plans
        )
        assert answer == want
        assert answer & ~mask == 0
        assert tests.tolist() == per_position
        assert tested == sum(per_position)
        # each form compiled once, only where a mask asked for it
        assert sorted(compiled) == list(iter_bits(prefilled | mask))
        assert table.ready == prefilled | mask

        verifier = Verifier()
        assert verifier.verify_mask(query_side, table, mask, by_component) == want
        stats = verifier.stats
        assert (stats.tests, stats.positives) == (tested, positives)
        assert stats.negatives == tested - positives
        if mask.bit_count() <= 4:  # the oracle engine's verifier, on few pairs
            oracle = kernel_oracle.OracleVerifier()
            assert oracle.verify_mask(query_side, table, mask, by_component) == want
            assert (oracle.stats.tests, oracle.stats.positives) == (tested, positives)

    def test_empty_mask_runs_nothing(self):
        table, compiled = lazy_table([LabeledGraph()], plans=False)
        assert match_mask(compile_query_plan(LabeledGraph()), table, 0) == (0, 0)
        assert compiled == [] and table.ready == 0

    def test_bits_beyond_the_table_are_refused(self):
        table, _ = lazy_table([LabeledGraph()] * 3, plans=False)
        with pytest.raises(ValueError, match="beyond"):
            match_mask(compile_query_plan(LabeledGraph()), table, 0b1000)

    def test_disconnected_pattern_gets_one_whole_graph_test(self):
        """``by_component`` decomposes a connected pattern's label region;
        a disconnected pattern is tested once against the whole target,
        as Grapes tested it when it asked ``is_connected`` itself."""
        two_edges = LabeledGraph.from_edges({0: "A", 1: "B", 2: "A", 3: "B"}, [(0, 1), (2, 3)])
        target = LabeledGraph.from_edges(
            {0: "A", 1: "B", 2: "C", 3: "A", 4: "B"}, [(0, 1), (1, 2), (2, 3), (3, 4)]
        )
        plan = compile_query_plan(two_edges)
        assert not kernel_oracle.CkPlan.from_address(plan.native()).connected
        table = FormTable.of([compile_target(target)])
        # the label region {A, B} splits into two A-B edges, each smaller
        # than the pattern: by components no test would run and nothing
        # would match; against the whole target the pattern embeds
        assert match_mask(plan, table, 1, by_component=True) == (1, 1)


class TestSplitMask:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=(1 << 300) - 1), st.integers(1, 7))
    def test_chunks_partition_the_mask_in_order(self, mask, parts):
        chunks = _split_mask(mask, parts)
        size = -(-mask.bit_count() // parts)
        assert sum(chunks) == mask and len(chunks) <= parts
        assert all(chunk.bit_count() == size for chunk in chunks[:-1])
        for low, high in zip(chunks, chunks[1:]):
            assert low.bit_length() <= (high & -high).bit_length() - 1
        # what the executor cut from the id list before masks
        positions = list(iter_bits(mask))
        if positions:
            want = [positions[start : start + size] for start in range(0, len(positions), size)]
            assert [list(iter_bits(chunk)) for chunk in chunks] == want
        else:
            assert chunks == []


@pytest.fixture(scope="module")
def corpus():
    """AIDS-like molecules plus small fragments cut from them, so that
    subgraph queries have many candidates and a molecule asked as a
    supergraph query contains many dataset graphs; the query pool mixes
    generated fragments and molecules."""
    molecules = load_dataset("aids", scale=0.2)
    generator = QueryGenerator(molecules, WorkloadSpec(name="uniform", seed=5))
    fragments = generator.generate(40)
    database = GraphDatabase.from_graphs(
        [graph for _, graph in molecules.items()] + fragments, name="mixed"
    )
    pool = generator.generate(10) + [graph for _, graph in list(molecules.items())[:6]]
    rng = random.Random(9)
    return database, [rng.choice(pool) for _ in range(40)]


@pytest.fixture(scope="module")
def database(corpus):
    return corpus[0]


@pytest.fixture(scope="module")
def queries(corpus):
    return corpus[1]


def brute_force(database, query, supergraph: bool) -> set:
    """Every dataset graph containing (or, ``supergraph``, contained in)
    ``query``, by the dict-based matcher."""
    return {
        graph_id
        for graph_id, graph in database.items()
        if (
            VF2Matcher(graph, query).has_match()
            if supergraph
            else VF2Matcher(query, graph).has_match()
        )
    }


class TestMethodsOnMasks:
    @pytest.mark.parametrize("name", ["ggsx", "grapes", "scan"])
    def test_bare_queries_answer_as_a_scan(self, database, queries, name):
        method = create_method(name)
        method.build_index(database)
        for query in queries[:10]:
            result = method.query(query)
            assert isinstance(result.answers, CandidateBitmap)
            assert set(result.answers) == brute_force(database, query, False)
            assert result.answers <= result.candidates
            result = method.supergraph_query(query)
            assert isinstance(result.answers, CandidateBitmap)
            assert set(result.answers) == brute_force(database, query, True)

    def test_ids_and_bitmaps_verify_alike(self, database, queries):
        method = create_method("ggsx", max_path_length=3)
        method.build_index(database)
        query = queries[0]
        candidates = method.filter_candidates(query)
        as_bitmap = method.verify(query, candidates)
        as_ids = method.verify(query, list(candidates))
        assert as_bitmap == as_ids and as_bitmap.space is method.id_space
        assert method.verify(query, []) == CandidateBitmap(method.id_space, 0)

    def test_tables_fill_lazily_and_once(self, database, queries):
        """Without a precompiled database each form compiles on its first
        verification; a second query compiles nothing it already has."""
        method = create_method("ggsx", max_path_length=3)
        method.build_index(database)
        table = method.form_table()
        assert table.ready == 0 and method.form_table(True).ready == 0
        first = method.filter_candidates(queries[0])
        method.verify(queries[0], first)
        assert table.ready == first.mask
        addresses = table.addresses.tolist()
        method.verify(queries[0], first)
        assert table.addresses.tolist() == addresses
        second = method.filter_candidates(queries[1])
        method.verify(queries[1], second)
        assert table.ready == first.mask | second.mask
        assert method.form_table(True).ready == 0  # the plans are another table
        method.build_index(database)
        assert method.form_table() is not table

    def test_grapes_runs_no_python_traversal(self, database, queries):
        """Connectivity comes from the compiled plan: the package keeps no
        Python graph traversal for Grapes' verify to walk (the BFS is the
        test tree's ``kernel_oracle.is_connected``), and a query answers
        the same each time it is asked."""
        assert importlib.util.find_spec("repro.graphs.traversal") is None
        method = create_method("grapes", max_path_length=3)
        method.build_index(database)
        expected = [method.query(query) for query in queries[:6]]
        for query, want in zip(queries[:6], expected):
            got = method.query(query)
            assert got.answers == want.answers
            assert got.num_isomorphism_tests == want.num_isomorphism_tests


def stats_of(verifier) -> tuple:
    stats = verifier.stats
    return stats.tests, stats.positives, stats.negatives


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("name", ["ggsx", "grapes"])
    def test_engine_stream(self, database, queries, name):
        """Two verification threads against one: answers, per-query test
        counts and the method's ``VerifierStats``, in both query modes."""
        stream = [
            (query, "supergraph" if index % 3 == 0 else "subgraph")
            for index, query in enumerate(queries)
        ]
        runs = []
        for workers in (1, 2):
            method = create_method(name, max_path_length=3)
            config = engine_config(12, 4, mode="mixed", batch=BatchConfig(num_workers=workers))
            engine = IGQ(method, config)
            engine.build_index(database)
            with BatchExecutor(engine, config=config.batch) as executor:
                results = executor.run_batch(stream)
                parallel = executor.stats.parallel_verifications
            runs.append((results, stats_of(method.verifier), parallel))
        (sequential, want_stats, _), (threaded, got_stats, parallel) = runs
        assert parallel > 0  # the pool really verified
        for got, want in zip(threaded, sequential):
            assert got.answers == want.answers
            assert got.num_isomorphism_tests == want.num_isomorphism_tests
        assert got_stats == want_stats

    def test_bare_method(self, database, queries):
        runs = []
        for workers in (1, 2):
            method = create_method("ggsx", max_path_length=3)
            method.build_index(database)
            with BatchExecutor(method, num_workers=workers) as executor:
                results = executor.run_batch(
                    [
                        (query, "supergraph" if index % 2 else "subgraph")
                        for index, query in enumerate(queries)
                    ]
                )
            runs.append((results, stats_of(method.verifier)))
        (sequential, want_stats), (threaded, got_stats) = runs
        assert want_stats[0] > len(queries)  # enough candidates to split
        for got, want in zip(threaded, sequential):
            assert set(got.answers) == set(want.answers)
            assert got.num_isomorphism_tests == want.num_isomorphism_tests
        assert got_stats == want_stats


def test_plans_record_connectivity():
    rng = random.Random(3)
    for _ in range(60):
        graph = random_labeled_graph(rng, rng.randint(0, 9), 0.2, connected=rng.random() < 0.5)
        plan = CompiledQueryPlan(graph)
        struct = kernel_oracle.CkPlan.from_address(plan.native())
        assert struct.connected == kernel_oracle.BigintPlan(graph).connected
