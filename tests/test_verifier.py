"""Tests for the instrumented verification engine."""

from __future__ import annotations

import pytest

from repro.isomorphism import Verifier

from .conftest import make_cycle_graph, make_path_graph
from .kernel_oracle import ullmann_is_subgraph_isomorphic


class TestVerifier:
    def test_counts_tests_and_outcomes(self):
        verifier = Verifier()
        assert verifier.is_subgraph(make_path_graph("ABC"), make_cycle_graph("ABC"))
        assert not verifier.is_subgraph(make_cycle_graph("ABC"), make_path_graph("ABC"))
        stats = verifier.stats
        assert stats.tests == 2
        assert stats.positives == 1
        assert stats.negatives == 1
        assert stats.total_seconds > 0.0

    def test_is_supergraph_swaps_arguments(self):
        verifier = Verifier()
        assert verifier.is_supergraph(make_cycle_graph("ABC"), make_path_graph("ABC"))
        assert verifier.stats.tests == 1

    def test_reset(self):
        verifier = Verifier()
        verifier.is_subgraph(make_path_graph("AB"), make_path_graph("AB"))
        verifier.reset()
        assert verifier.stats.tests == 0
        assert verifier.stats.total_seconds == 0.0

    def test_unknown_algorithm(self):
        """VF2 is the only algorithm: there is no switch to pick another."""
        with pytest.raises(TypeError, match="algorithm"):
            Verifier(algorithm="ullmann")

    def test_backends_agree(self):
        """The verifier's VF2 against Ullmann's matcher, the oracle."""
        cases = [
            (make_path_graph("ABC"), make_cycle_graph("ABC")),
            (make_cycle_graph("ABC"), make_path_graph("ABC")),
            (make_path_graph("AAB"), make_cycle_graph("ABAB")),
        ]
        vf2 = Verifier()
        for pattern, target in cases:
            assert vf2.is_subgraph(pattern, target) == ullmann_is_subgraph_isomorphic(
                pattern, target
            )
