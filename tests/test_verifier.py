"""Tests for the instrumented verification engine."""

from __future__ import annotations

import pytest

from repro.isomorphism import Verifier, compile_query_plan, compile_target

from .conftest import make_cycle_graph, make_path_graph
from .kernel_oracle import ullmann_is_subgraph_isomorphic


class TestVerifier:
    def test_counts_tests_and_outcomes(self):
        verifier = Verifier()
        path, cycle = make_path_graph("ABC"), make_cycle_graph("ABC")
        assert verifier.is_subgraph_compiled(compile_query_plan(path), compile_target(cycle))
        assert not verifier.is_subgraph_compiled(compile_query_plan(cycle), compile_target(path))
        stats = verifier.stats
        assert stats.tests == 2
        assert stats.positives == 1
        assert stats.negatives == 1
        assert stats.total_seconds > 0.0

    def test_is_supergraph_swaps_arguments(self):
        """With the query's target on the shared side, the candidates play
        the pattern: the supergraph direction of one batch."""
        verifier = Verifier()
        cycle = compile_target(make_cycle_graph("ABC"))
        patterns = [compile_query_plan(make_path_graph(labels)) for labels in ("ABC", "ABCA")]
        assert verifier.verify_pairs(cycle, patterns) == [True, False]
        assert verifier.stats.tests == 2

    def test_reset(self):
        verifier = Verifier()
        path = make_path_graph("AB")
        verifier.is_subgraph_compiled(compile_query_plan(path), compile_target(path))
        verifier.reset()
        assert verifier.stats.tests == 0
        assert verifier.stats.total_seconds == 0.0

    def test_unknown_algorithm(self):
        """VF2 is the only algorithm: there is no switch to pick another."""
        with pytest.raises(TypeError, match="algorithm"):
            Verifier(algorithm="ullmann")

    def test_backends_agree(self):
        """The verifier's kernel against Ullmann's matcher, the oracle."""
        cases = [
            (make_path_graph("ABC"), make_cycle_graph("ABC")),
            (make_cycle_graph("ABC"), make_path_graph("ABC")),
            (make_path_graph("AAB"), make_cycle_graph("ABAB")),
        ]
        verifier = Verifier()
        for pattern, target in cases:
            assert verifier.is_subgraph_compiled(
                compile_query_plan(pattern), compile_target(target)
            ) == ullmann_is_subgraph_isomorphic(pattern, target)

    def test_fresh_clone_is_a_zeroed_verifier_of_the_same_class(self):
        class Counting(Verifier):
            pass

        verifier = Counting()
        path = make_path_graph("AB")
        verifier.is_subgraph_compiled(compile_query_plan(path), compile_target(path))
        clone = verifier.fresh_clone()
        assert type(clone) is Counting
        assert clone.stats.tests == 0
