"""Tests for the compiled (bitset VF2) verification fast path.

The contract: :func:`compiled_has_embedding` is observationally identical to
``VF2Matcher.has_match`` — cross-validated property-style against the
dict-based matcher and against ``networkx`` in both the subgraph (query as
pattern) and supergraph (dataset graph as pattern) directions — and the
early-fail signature pre-check never rejects a pair that actually matches.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import LabeledGraph
from repro.isomorphism import (
    CompiledQuery,
    CompiledTarget,
    VF2Matcher,
    Verifier,
    compile_query_plan,
    compile_target,
)
from repro.methods import ScanMethod

from . import kernel_oracle
from .kernel_oracle import (
    OracleVerifier,
    compiled_has_embedding,
    connected_components,
    signature_prereject,
)
from .conftest import (
    make_clique,
    make_cycle_graph,
    make_path_graph,
    make_star_graph,
    random_labeled_graph,
)


def compiled_is_subgraph(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    return compiled_has_embedding(compile_query_plan(pattern), compile_target(target))


def to_networkx(graph: LabeledGraph) -> nx.Graph:
    result = nx.Graph()
    for vertex in graph.vertices():
        result.add_node(vertex, label=graph.label(vertex))
    result.add_edges_from(graph.edges())
    return result


def networkx_is_subgraph(pattern: LabeledGraph, target: LabeledGraph) -> bool:
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_networkx(target),
        to_networkx(pattern),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return matcher.subgraph_is_monomorphic()


def random_pair(rng: random.Random) -> tuple[LabeledGraph, LabeledGraph]:
    """A random (pattern, target) pair, sometimes disconnected."""
    target = random_labeled_graph(
        rng, rng.randint(1, 10), rng.random() * 0.6, connected=rng.random() < 0.7
    )
    pattern = random_labeled_graph(
        rng, rng.randint(1, 6), rng.random() * 0.8, connected=rng.random() < 0.7
    )
    return pattern, target


class TestKnownCases:
    def test_path_in_cycle(self):
        assert compiled_is_subgraph(make_path_graph("ABC"), make_cycle_graph("ABC"))

    def test_cycle_not_in_path(self):
        assert not compiled_is_subgraph(make_cycle_graph("ABC"), make_path_graph("ABC"))

    def test_label_mismatch(self):
        assert not compiled_is_subgraph(make_path_graph("AZ"), make_cycle_graph("ABC"))

    def test_triangle_in_clique(self):
        assert compiled_is_subgraph(make_cycle_graph("AAA"), make_clique("AAAA"))

    def test_empty_pattern_matches_anything(self):
        assert compiled_is_subgraph(LabeledGraph(), make_path_graph("AB"))
        assert compiled_is_subgraph(LabeledGraph(), LabeledGraph())

    def test_pattern_larger_than_target(self):
        assert not compiled_is_subgraph(make_clique("AAAA"), make_cycle_graph("AAA"))

    def test_star_needs_degree(self):
        assert not compiled_is_subgraph(make_star_graph("A", "BBB"), make_path_graph("BAB"))
        assert compiled_is_subgraph(make_star_graph("A", "BB"), make_path_graph("BAB"))

    def test_disconnected_pattern(self):
        pattern = LabeledGraph()
        pattern.add_vertex(0, "A")
        pattern.add_vertex(1, "B")
        target = make_path_graph("ACB")
        assert compiled_is_subgraph(pattern, target)
        assert not compiled_is_subgraph(pattern, make_path_graph("AC"))

    def test_monomorphism_not_induced(self):
        # A path maps into a cycle of the same labels: extra target edges are
        # allowed (non-induced semantics).
        assert compiled_is_subgraph(make_path_graph("AAA"), make_cycle_graph("AAA"))


class TestCrossValidation:
    def test_matches_vf2_and_networkx_subgraph_direction(self):
        rng = random.Random(171)
        for _ in range(600):
            pattern, target = random_pair(rng)
            expected = VF2Matcher(pattern, target).has_match()
            assert compiled_is_subgraph(pattern, target) == expected
            assert networkx_is_subgraph(pattern, target) == expected

    def test_matches_vf2_supergraph_direction(self):
        """Supergraph queries run dataset graphs as patterns against one
        compiled query target; validate that orientation explicitly."""
        rng = random.Random(733)
        for _ in range(200):
            query = random_labeled_graph(rng, rng.randint(3, 10), 0.4)
            compiled_query = compile_target(query)
            dataset_graph = random_labeled_graph(rng, rng.randint(1, 6), 0.5)
            plan = compile_query_plan(dataset_graph)
            expected = VF2Matcher(dataset_graph, query).has_match()
            assert compiled_has_embedding(plan, compiled_query) == expected

    def test_plan_reuse_across_targets(self):
        """One plan, many targets — reuse must not leak state between runs."""
        rng = random.Random(909)
        pattern = make_path_graph("ABA")
        plan = compile_query_plan(pattern)
        for _ in range(100):
            target = random_labeled_graph(rng, rng.randint(1, 8), 0.4)
            expected = VF2Matcher(pattern, target).has_match()
            assert compiled_has_embedding(plan, compile_target(target)) == expected

    def test_precheck_is_sound(self):
        """A signature pre-reject must imply that no embedding exists."""
        rng = random.Random(555)
        rejected = 0
        for _ in range(500):
            pattern, target = random_pair(rng)
            if signature_prereject(pattern, target):
                rejected += 1
                assert not VF2Matcher(pattern, target).has_match()
        assert rejected > 0  # the check actually fires on this workload


class TestCompiledRepresentations:
    """The oracle's bigint state, which the kernel's structs are compared
    against field by field (``tests/test_native_compile.py``)."""

    def test_target_structure(self):
        graph = make_cycle_graph("ABA")
        assert isinstance(compile_target(graph), CompiledTarget)
        target = kernel_oracle.BigintTarget(graph)
        assert target.num_vertices == 3 and target.num_edges == 3
        # Label masks partition the vertex set.
        combined = 0
        for mask in target.label_masks.values():
            assert combined & mask == 0
            combined |= mask
        assert combined == (1 << target.num_vertices) - 1
        # Adjacency is symmetric and degree-consistent.
        for index in range(target.num_vertices):
            assert target.adjacency_masks[index].bit_count() == target.degrees[index]
            for other in range(target.num_vertices):
                assert bool(target.adjacency_masks[index] >> other & 1) == bool(
                    target.adjacency_masks[other] >> index & 1
                )

    def test_plan_covers_every_vertex_once(self):
        pattern = make_clique("ABCD")
        plan = kernel_oracle.BigintPlan(pattern)
        assert len(plan.steps) == pattern.num_vertices
        # Each step after the first (connected pattern) has anchors, and the
        # anchor/lookahead counts add up to the vertex degree.
        for index, (label, degree, anchors, lookahead) in enumerate(plan.steps):
            if index:
                assert anchors
            assert len(anchors) + lookahead == degree


class TestDatabaseCaching:
    def test_compiled_target_is_cached(self, tiny_database):
        first = tiny_database.compiled_target("g_tri")
        assert tiny_database.compiled_target("g_tri") is first

    def test_compiled_plan_is_cached(self, tiny_database):
        first = tiny_database.compiled_plan("g_tri")
        assert tiny_database.compiled_plan("g_tri") is first

    def test_precompile_builds_all(self, tiny_database):
        tiny_database.precompile()
        assert all(
            tiny_database.compiled_target(graph_id) is not None
            for graph_id in tiny_database.ids()
        )


class TestVerifierDispatch:
    def test_compiled_forms_follow_in_place_growth(self):
        """The compile memos are per graph object and size: a repeat reuses
        its forms, a graph grown in place is compiled again."""
        verifier = Verifier()
        query = make_path_graph("ABC")
        plan, target = verifier.compile_pattern(query), verifier.compile_target(query)
        assert verifier.compile_pattern(query) is plan
        assert verifier.compile_target(query) is target
        query.add_edge(2, 0)
        assert verifier.compile_pattern(query) is not plan
        assert verifier.compile_pattern(query).num_edges == 3
        assert verifier.compile_target(query).num_edges == 3

    def test_unknown_kernel_rejected(self):
        """The C kernel is the only one: there is no ``kernel=`` to pick
        another, on the verifier or on the entry points."""
        for kernel in ("bigint", "native", "auto"):
            with pytest.raises(TypeError, match="kernel"):
                compiled_has_embedding(
                    compile_query_plan(make_path_graph("AB")),
                    compile_target(make_path_graph("AB")),
                    kernel=kernel,
                )
            with pytest.raises(TypeError, match="kernel"):
                Verifier(kernel=kernel)
        for removed in ("algorithm", "induced", "compiled", "precheck"):
            with pytest.raises(TypeError, match=removed):
                Verifier(**{removed: None})

    def test_compiled_and_plain_paths_count_identically(self, tiny_database):
        """Pair by pair, the kernel and the bigint oracle count alike."""
        query = make_path_graph("ABC")
        fast, slow = Verifier(), OracleVerifier()
        plan = fast.compile_pattern(query)
        for graph_id in tiny_database.ids():
            target = compile_target(tiny_database.get(graph_id))
            assert fast.is_subgraph_compiled(plan, target) == slow.is_subgraph_compiled(
                plan, target
            )
        assert fast.stats.tests == slow.stats.tests == len(tiny_database)
        assert fast.stats.positives == slow.stats.positives
        assert fast.stats.negatives == slow.stats.negatives
        assert fast.stats.total_seconds > 0.0

    def test_precheck_does_not_change_answers(self):
        """The kernel's pre-reject answers as ``VF2Matcher`` does, and a
        pre-rejected pair is still one counted test."""
        rng = random.Random(404)
        verifier = Verifier()
        rejected = 0
        for _ in range(300):
            pattern, target = random_pair(rng)
            rejected += signature_prereject(pattern, target)
            assert verifier.verify_pairs(
                compile_query_plan(pattern), [compile_target(target)]
            ) == [VF2Matcher(pattern, target).has_match()]
        assert verifier.stats.tests == 300
        assert rejected > 0

    @pytest.mark.parametrize("compiled", [True, False])
    def test_method_verify_equivalent(self, tiny_database, compiled):
        """The kernel against the bigint oracle, with the query's forms
        shared by the caller (``compiled``) or compiled by the verifier."""
        method = ScanMethod()
        method.build_index(tiny_database)
        reference = ScanMethod(verifier=OracleVerifier())
        reference.build_index(tiny_database)
        for query in (make_path_graph("AB"), make_cycle_graph("ABC"), make_clique("ABCD")):
            shared = CompiledQuery(query) if compiled else None
            assert method.verify(query, tiny_database.ids(), compiled=shared) == (
                reference.verify(query, tiny_database.ids())
            )
            assert method.verify_supergraph(query, tiny_database.ids(), compiled=shared) == (
                reference.verify_supergraph(query, tiny_database.ids())
            )
        assert method.verifier.stats.tests == reference.verifier.stats.tests


def mask_of_vertices(target, vertices) -> int:
    position = kernel_oracle.positions(target.graph)
    mask = 0
    for vertex in vertices:
        mask |= 1 << position[vertex]
    return mask


def vertices_of_mask(target, mask: int) -> set:
    return {
        vertex
        for position, vertex in enumerate(target.graph.vertices())
        if (mask >> position) & 1
    }


class TestRegionMaskedKernel:
    """The ``vertex_mask`` mode answers "does the pattern embed with its
    image inside the mask?" — cross-validated against matching into the
    materialised vertex-induced subgraph of the masked vertices."""

    def test_masks_of_size_zero_one_all(self):
        target_graph = make_cycle_graph("ABCA")
        target = compile_target(target_graph)
        pattern = make_path_graph("AB")
        plan = compile_query_plan(pattern)
        full = (1 << target.num_vertices) - 1
        # Empty mask: nothing to map into.
        assert not compiled_has_embedding(plan, target, 0)
        # Single-vertex masks: too small for a 2-vertex pattern...
        for position in range(target.num_vertices):
            assert not compiled_has_embedding(plan, target, 1 << position)
        # ...but large enough for a 1-vertex pattern of the right label.
        single = compile_query_plan(make_path_graph("B"))
        for position in range(target.num_vertices):
            expected = target_graph.label(list(target_graph.vertices())[position]) == "B"
            assert compiled_has_embedding(single, target, 1 << position) == expected
        # Full mask is the unmasked semantics.
        assert compiled_has_embedding(plan, target, full)
        assert compiled_has_embedding(plan, target, full) == compiled_has_embedding(plan, target)

    def test_cross_validates_against_materialised_subgraphs(self):
        rng = random.Random(4242)
        positives = negatives = 0
        for _ in range(400):
            target_graph = random_labeled_graph(
                rng, rng.randint(2, 10), rng.random() * 0.6, connected=rng.random() < 0.6
            )
            pattern = random_labeled_graph(
                rng, rng.randint(1, 4), rng.random() * 0.8, connected=rng.random() < 0.8
            )
            target = compile_target(target_graph)
            vertices = [
                vertex for vertex in target_graph.vertices() if rng.random() < 0.6
            ]
            expected = VF2Matcher(pattern, target_graph.subgraph(vertices)).has_match()
            actual = compiled_has_embedding(
                compile_query_plan(pattern), target, mask_of_vertices(target, vertices)
            )
            assert actual == expected
            positives += expected
            negatives += not expected
        assert positives > 20 and negatives > 20  # both outcomes exercised

    def test_mask_excludes_out_of_region_embeddings(self):
        # The only A-B-A path uses vertex 1; masking it out must fail even
        # though the whole graph matches.
        target_graph = make_path_graph("ABAC")
        target = compile_target(target_graph)
        plan = compile_query_plan(make_path_graph("ABA"))
        assert compiled_has_embedding(plan, target)
        assert not compiled_has_embedding(
            plan, target, mask_of_vertices(target, [0, 2, 3])
        )

    def test_masked_components_match_materialised_decomposition(self):
        rng = random.Random(77)
        for _ in range(200):
            graph = random_labeled_graph(
                rng, rng.randint(1, 12), rng.random() * 0.4, connected=False
            )
            target = kernel_oracle.BigintTarget(graph)
            vertices = [vertex for vertex in graph.vertices() if rng.random() < 0.7]
            mask = mask_of_vertices(target, vertices)
            expected = connected_components(graph.subgraph(vertices))
            actual = [
                vertices_of_mask(target, component)
                for component in kernel_oracle.masked_components(target, mask)
            ]
            # Same components in the same (size-then-repr) order — Grapes
            # relies on the order for byte-identical test accounting.
            assert actual == expected

    def test_masked_edge_count_matches_subgraph(self):
        rng = random.Random(88)
        for _ in range(200):
            graph = random_labeled_graph(rng, rng.randint(1, 12), rng.random() * 0.6)
            target = kernel_oracle.BigintTarget(graph)
            vertices = [vertex for vertex in graph.vertices() if rng.random() < 0.7]
            mask = mask_of_vertices(target, vertices)
            edges = kernel_oracle.masked_edge_count(target, mask)
            assert edges == graph.subgraph(vertices).num_edges

    def test_masked_run_counts_as_one_test(self):
        verifier = Verifier()
        target = compile_target(make_cycle_graph("ABC"))
        plan = verifier.compile_pattern(make_path_graph("AB"))
        assert verifier.is_subgraph_compiled(plan, target, vertex_mask=0b111)
        assert not verifier.is_subgraph_compiled(plan, target, vertex_mask=0b001)
        assert verifier.stats.tests == 2
        assert verifier.stats.positives == 1 and verifier.stats.negatives == 1
