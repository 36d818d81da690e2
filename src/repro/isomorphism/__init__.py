"""Subgraph isomorphism algorithms, cost model and instrumented verifier."""

from .compiled import (
    CompiledQuery,
    CompiledQueryPlan,
    CompiledTarget,
    FormTable,
    are_isomorphic,
    compile_query_plan,
    compile_target,
    find_subgraph_embedding,
    is_subgraph_isomorphic,
    match_mask,
    match_pairs,
)
from .cost import (
    falling_factorial,
    graph_pair_cost,
    isomorphism_test_cost,
    log_isomorphism_test_cost,
)
from .verifier import Verifier, VerifierStats

__all__ = [
    "CompiledQuery",
    "CompiledQueryPlan",
    "CompiledTarget",
    "compile_query_plan",
    "compile_target",
    "FormTable",
    "match_mask",
    "match_pairs",
    "Verifier",
    "VerifierStats",
    "are_isomorphic",
    "find_subgraph_embedding",
    "is_subgraph_isomorphic",
    "falling_factorial",
    "graph_pair_cost",
    "isomorphism_test_cost",
    "log_isomorphism_test_cost",
]
