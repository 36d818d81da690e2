"""The two parts of query execution that outlive one query: the feature
memo and the verification fan-out.

:meth:`IGQ.execute <repro.core.engine.IGQ.execute>` runs every query
(prepare → plan → verify → complete); this module holds what it calls:

* **feature extraction** — real workloads repeat query fragments heavily
  (that is the premise of the paper), so the engine's :class:`FeatureMemo`
  keeps each prepared query under its exact, insertion-ordered key: a copy
  of an earlier query built the same way (what a decoded wire repeat is)
  skips the extraction;
* **verification** — the surviving candidates of one query are independent
  isomorphism tests, so with ``batch.num_workers > 1``
  :func:`verify_on_pool` splits them evenly over the engine's thread pool
  in one submit-and-collect (the native kernel releases the interpreter
  lock) and folds the chunks' verifier statistics back.

Only verification fans out; planning and maintenance stay on the calling
thread, one query at a time, so answers, per-query accounting and cache
state are identical for any worker count.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor

from ..features.extractor import GraphFeatures
from ..graphs.bitset import CandidateBitmap
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery, FlatGraph
from ..methods.base import SubgraphQueryMethod

__all__ = ["FeatureMemo", "verify_on_pool"]


#: an engine keeps one memo for its lifetime; the memo is cleared when it
#: reaches this many distinct queries
_FEATURE_MEMO_CAPACITY = 8192


class FeatureMemo:
    """An engine's memo of prepared queries: the features and the
    :class:`~repro.isomorphism.compiled.FlatGraph` they were extracted from
    (which the query's compiles read too).

    Keyed by :meth:`LabeledGraph.ordered_key`, which catches copies built in
    the same order — repeats of one query object, and what the wire decoder
    produces for a repeated payload.  A copy built in another order, or an
    isomorphic but relabelled repeat, is simply extracted again: an
    order-free signature costs a third of an extraction on every query, a
    canonical labelling several extractions (docs/performance.md, "Query
    preparation").
    """

    def __init__(self, extractor) -> None:
        self._extractor = extractor
        self._features: dict[tuple, tuple[GraphFeatures, FlatGraph]] = {}
        self.hits = 0
        self.misses = 0

    def prepare(self, query: LabeledGraph) -> tuple[GraphFeatures, FlatGraph]:
        """Return the (possibly memoised) features and flattening of
        ``query``; equal keys mean equal vertex and neighbour orders, so a
        memoised flattening fits the copy too."""
        key = query.ordered_key()
        prepared = self._features.get(key)
        if prepared is None:
            flat = FlatGraph(query)
            prepared = self._extractor.extract(query, flat=flat), flat
            if len(self._features) >= _FEATURE_MEMO_CAPACITY:
                self._features.clear()
            self._features[key] = prepared
            self.misses += 1
        else:
            self.hits += 1
        return prepared

    def __len__(self) -> int:
        return len(self._features)


def _split_mask(mask: int, parts: int) -> list[int]:
    """``mask`` cut in position order into at most ``parts`` masks of
    ``ceil(popcount / parts)`` set bits each (the last may hold fewer):
    each cut is a binary search over prefix widths, never a walk over the
    bits."""
    size = -(-mask.bit_count() // parts)
    chunks = []
    while mask.bit_count() > size:
        low, high = size, mask.bit_length()
        while low < high:  # the narrowest prefix holding `size` bits
            middle = (low + high) // 2
            if (mask & ((1 << middle) - 1)).bit_count() >= size:
                high = middle
            else:
                low = middle + 1
        head = mask & ((1 << low) - 1)
        chunks.append(head)
        mask ^= head
    if mask:
        chunks.append(mask)
    return chunks


def _verify_chunk(
    method: SubgraphQueryMethod,
    query: LabeledGraph,
    mask: int,
    supergraph: bool,
    features: GraphFeatures | None,
    compiled: CompiledQuery,
) -> tuple[int, int, int, float]:
    """Thread-pool entry point: verify the chunk of a query's candidates
    that ``mask`` names.

    Threads share the index structures and the method's form tables
    (read-only during querying) and the query's ``compiled`` forms, whose
    kernel structs the querying thread built before submitting — the
    kernel only reads them, its scratch is per call.  Each call gets a
    private verifier of the parent's class (:meth:`Verifier.fresh_clone`)
    with zeroed statistics, so the shared counters are never raced.
    Returns the answer mask plus the verifier-stat deltas the chunk
    produced — positives, negatives (their sum is the test count) and
    seconds — which the parent folds back deterministically so the
    :class:`VerifierStats` invariants hold after a batch.
    """
    clone = copy.copy(method)
    clone.verifier = method.verifier.fresh_clone()
    stats = clone.verifier.stats
    verify = clone.verify_supergraph if supergraph else clone.verify
    answers = verify(
        query, CandidateBitmap(method.id_space, mask), features=features, compiled=compiled
    )
    return answers.mask, stats.positives, stats.negatives, stats.total_seconds




def verify_on_pool(
    pool: ThreadPoolExecutor,
    workers: int,
    method: SubgraphQueryMethod,
    query: LabeledGraph,
    mask: int,
    supergraph: bool,
    features: GraphFeatures | None,
    compiled: CompiledQuery,
) -> CandidateBitmap:
    """Verify the candidates ``mask`` names on ``pool``, in at most
    ``workers`` chunks.

    The query side and the candidates' forms are compiled here, once,
    before any chunk is submitted: a form's kernel struct is built lazily
    and unlocked, so the chunks may only share ones that already exist.
    The mask is split by popcount evenly over the workers; the OR of the
    chunk answers is order-independent, and the worker statistics deltas
    are folded back into the method's verifier so the per-query accounting
    matches in-process verification exactly.
    """
    verifier = method.verifier
    if supergraph:
        query_side = verifier.compile_target(query, compiled)
    else:
        query_side = verifier.compile_pattern(query, compiled)
    query_side.native()
    method.form_table(supergraph).fill(mask)
    futures = [
        pool.submit(_verify_chunk, method, query, chunk, supergraph, features, compiled)
        for chunk in _split_mask(mask, workers)
    ]
    merged = 0
    stats = verifier.stats
    # collect everything first: a failed chunk must not leave the
    # statistics half-folded
    for answers, positives, negatives, seconds in [future.result() for future in futures]:
        merged |= answers
        stats.tests += positives + negatives
        stats.positives += positives
        stats.negatives += negatives
        stats.total_seconds += seconds
    return CandidateBitmap(method.id_space, merged)
