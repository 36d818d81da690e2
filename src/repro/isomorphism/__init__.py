"""Subgraph isomorphism algorithms, cost model and instrumented verifier."""

from .compiled import (
    KERNELS,
    CompiledQuery,
    CompiledQueryPlan,
    CompiledTarget,
    DatasetSignatures,
    compile_query_plan,
    compile_target,
    compiled_has_embedding,
    match_pairs,
    masked_components,
    masked_edge_count,
    native_kernel_available,
    numpy_available,
    resolve_kernel,
    signature_prereject,
)
from .cost import (
    falling_factorial,
    graph_pair_cost,
    isomorphism_test_cost,
    log_isomorphism_test_cost,
)
from .ullmann import UllmannMatcher, ullmann_is_subgraph_isomorphic
from .verifier import Verifier, VerifierStats
from .vf2 import (
    VF2Matcher,
    are_isomorphic,
    count_subgraph_embeddings,
    find_subgraph_embedding,
    is_subgraph_isomorphic,
)

__all__ = [
    "KERNELS",
    "CompiledQuery",
    "CompiledQueryPlan",
    "CompiledTarget",
    "DatasetSignatures",
    "compile_query_plan",
    "compile_target",
    "compiled_has_embedding",
    "match_pairs",
    "masked_components",
    "masked_edge_count",
    "native_kernel_available",
    "numpy_available",
    "resolve_kernel",
    "signature_prereject",
    "VF2Matcher",
    "UllmannMatcher",
    "Verifier",
    "VerifierStats",
    "are_isomorphic",
    "count_subgraph_embeddings",
    "find_subgraph_embedding",
    "is_subgraph_isomorphic",
    "ullmann_is_subgraph_isomorphic",
    "falling_factorial",
    "graph_pair_cost",
    "isomorphism_test_cost",
    "log_isomorphism_test_cost",
]
