"""Subgraph isomorphism algorithms, cost model and instrumented verifier."""

from .compiled import (
    CompiledQuery,
    CompiledQueryPlan,
    CompiledTarget,
    compile_query_plan,
    compile_target,
    match_pairs,
)
from .cost import (
    falling_factorial,
    graph_pair_cost,
    isomorphism_test_cost,
    log_isomorphism_test_cost,
)
from .verifier import Verifier, VerifierStats
from .vf2 import (
    VF2Matcher,
    are_isomorphic,
    count_subgraph_embeddings,
    find_subgraph_embedding,
    is_subgraph_isomorphic,
)

__all__ = [
    "CompiledQuery",
    "CompiledQueryPlan",
    "CompiledTarget",
    "compile_query_plan",
    "compile_target",
    "match_pairs",
    "VF2Matcher",
    "Verifier",
    "VerifierStats",
    "are_isomorphic",
    "count_subgraph_embeddings",
    "find_subgraph_embedding",
    "is_subgraph_isomorphic",
    "falling_factorial",
    "graph_pair_cost",
    "isomorphism_test_cost",
    "log_isomorphism_test_cost",
]
