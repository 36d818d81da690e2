"""Batched (and optionally thread-parallel) query execution.

The sequential engine processes one query at a time: extract features,
filter, prune with the iGQ components, verify, maintain the cache.  Under
load two of those stages dominate and neither needs to be sequential:

* **verification** — the surviving candidates of one query are independent
  isomorphism tests, so with ``batch.num_workers > 1`` :class:`BatchExecutor`
  splits them evenly over a thread pool in one submit-and-collect (the
  native kernel releases the interpreter lock); with one worker it verifies
  in-process, one kernel call per query;
* **feature extraction** — real workloads repeat query fragments heavily
  (that is the premise of the paper), so extraction is memoised across the
  batch under the query's exact, insertion-ordered key: a copy of an earlier
  query built the same way (what a decoded wire repeat is) skips the
  extraction.

Each query runs prepare → plan → verify → complete before the next one is
pulled from the stream, so everything stateful — cache hits, window
maintenance, replacement metadata — is applied strictly in input order.  As
a consequence the executor is *deterministic*: for any worker count the
answers, the per-query accounting and the engine's cache state after the
batch are identical to the plain sequential loop, which is what the test
suite asserts and what lets every future performance PR be gated on the
sequential path as ground truth.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..features.extractor import GraphFeatures
from ..graphs.bitset import CandidateBitmap
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery, FlatGraph
from ..methods.base import QueryResult, SubgraphQueryMethod
from .config import (
    MIXED_MODE,
    SUBGRAPH_MODE,
    SUPERGRAPH_MODE,
    BatchConfig,
    validate_query_mode,
)
from .engine import IGQ, IGQQueryResult

__all__ = [
    "BatchStats",
    "FeatureMemo",
    "BatchExecutor",
]


#: below this many surviving candidates a parallel round-trip costs more
#: than it saves, so the executor verifies in-process
_MIN_PARALLEL_CANDIDATES = 4

#: a service keeps one executor (and its feature memo) for its lifetime;
#: the memo is cleared when it reaches this many distinct queries — the
#: rule of ``IGQ.prepare``'s memo
_FEATURE_MEMO_CAPACITY = 8192


@dataclass
class BatchStats:
    """Counters accumulated by one :class:`BatchExecutor`."""

    queries: int = 0
    feature_memo_hits: int = 0
    feature_memo_misses: int = 0
    parallel_verifications: int = 0
    sequential_verifications: int = 0


class FeatureMemo:
    """Batch-wide memo of prepared queries: the features and the
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


class BatchExecutor:
    """Run batches of queries through an :class:`IGQ` engine or a bare method.

    Parameters
    ----------
    target:
        An :class:`~repro.core.engine.IGQ` engine (its configured mode
        decides the query type) or a plain
        :class:`~repro.methods.base.SubgraphQueryMethod`.
    num_workers:
        Thread-pool size for the verification stage.  ``1`` verifies
        in-process (no pool is ever created); more split each query's
        candidates evenly over the workers.
    memoize_features:
        Memoise query feature extraction across the batch (on by default).
    config:
        A :class:`~repro.core.config.BatchConfig` carrying all of the above
        in one validated object (what engines and the service pass down);
        when given it supersedes the flat parameters.

    Stream items are either bare query graphs (executed as the engine's
    configured type) or ``(query, mode)`` pairs with ``mode`` one of
    ``"subgraph"`` / ``"supergraph"`` — a mixed-mode engine requires the
    pair form, which is how the service front door drives one engine with
    both query types in a single ordered stream.
    """

    def __init__(
        self,
        target: IGQ | SubgraphQueryMethod,
        num_workers: int = 1,
        memoize_features: bool = True,
        config: BatchConfig | None = None,
    ) -> None:
        if config is not None:
            num_workers = config.num_workers
            memoize_features = config.memoize_features
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.engine = target if isinstance(target, IGQ) else None
        self.method = target.method if isinstance(target, IGQ) else target
        if self.method.database is None:
            raise RuntimeError("the target's dataset index must be built first")
        self.num_workers = num_workers
        self.stats = BatchStats()
        self._memo = FeatureMemo(self.method.extractor) if memoize_features else None
        self._pool: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.num_workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_batch(self, queries: Iterable) -> list[QueryResult]:
        """Process ``queries`` in order and return one result per query."""
        return list(self.run_stream(queries))

    def run_stream(self, queries: Iterable) -> Iterator[QueryResult]:
        """Streaming form of :meth:`run_batch`: yield results as they finish.

        Each query is completed — verified, folded into the cache and, when
        it flushed a window of a durable engine, journalled — and yielded
        before the next item is pulled, so results arrive in input order
        and a live source is never asked for a successor while a query is
        outstanding.  Items are bare graphs or ``(query, mode)`` pairs.
        """
        for item in queries:
            result = self.execute(*self._task_of(item))
            if self.engine is not None:
                self.engine.await_commit()
            yield result

    def _task_of(self, item) -> tuple[LabeledGraph, bool]:
        """Normalise a stream item to ``(query, supergraph)``."""
        if isinstance(item, tuple):
            query, mode = item
        else:
            query, mode = item, None
        if mode is None:
            default = self.engine.mode if self.engine is not None else SUBGRAPH_MODE
            if default == MIXED_MODE:
                raise ValueError(
                    "a mixed-mode engine takes (query, mode) stream items; "
                    "got a bare query graph"
                )
            mode = default
        validate_query_mode(mode)
        if self.engine is not None:
            self.engine._require_mode(mode)
        return query, mode == SUPERGRAPH_MODE

    def execute(self, query: LabeledGraph, supergraph: bool) -> QueryResult:
        """Run one query: prepare, plan, verify, complete.

        Does not wait for the journal: a caller that acknowledges the
        result itself owns the engine's :meth:`~repro.core.engine.IGQ.take_commit`
        (the service does; :meth:`run_stream` waits).
        """
        self.stats.queries += 1
        # Extraction happens outside plan/filter, so its cost is folded back
        # into filter_seconds below — the per-query accounting must match the
        # sequential path, where extraction is part of the filtering stage.
        start = time.perf_counter()
        features, flat = self._prepare(query)
        extract_seconds = time.perf_counter() - start
        if self.engine is not None:
            result = self._run_one_igq(query, features, flat, supergraph)
        else:
            result = self._run_one_plain(query, features, flat, supergraph)
        result.filter_seconds += extract_seconds
        return result

    def _prepare(self, query: LabeledGraph) -> tuple[GraphFeatures, FlatGraph]:
        if self._memo is None:
            flat = FlatGraph(query)
            return self.method.extract_query_features(query, flat), flat
        prepared = self._memo.prepare(query)
        self.stats.feature_memo_hits = self._memo.hits
        self.stats.feature_memo_misses = self._memo.misses
        return prepared

    def _run_one_igq(
        self, query: LabeledGraph, features: GraphFeatures, flat: FlatGraph, supergraph: bool
    ) -> IGQQueryResult:
        engine = self.engine
        plan = engine.plan_query(query, supergraph=supergraph, features=features, flat=flat)
        start = time.perf_counter()
        if self._use_pool(plan.remaining_mask.bit_count()):
            verified = self._verify_parallel(
                query, plan.remaining_mask, supergraph, features, plan.compiled
            )
        else:
            self.stats.sequential_verifications += 1
            verified = engine.verify_plan(plan)
        verify_seconds = time.perf_counter() - start
        return engine.complete_query(plan, verified, verify_seconds)

    def _run_one_plain(
        self, query: LabeledGraph, features: GraphFeatures, flat: FlatGraph, supergraph: bool
    ) -> QueryResult:
        method = self.method
        tests_before = method.verifier.stats.tests
        start = time.perf_counter()
        if supergraph:
            candidates = method.filter_supergraph_candidates(query, features=features)
        else:
            candidates = method.filter_candidates(query, features=features)
        filter_seconds = time.perf_counter() - start
        start = time.perf_counter()
        if self._use_pool(len(candidates)):
            answers = self._verify_parallel(
                query,
                method.id_space.mask_of(candidates),
                supergraph,
                features,
                CompiledQuery(query, flat),
            )
        elif supergraph:
            self.stats.sequential_verifications += 1
            answers = method.verify_supergraph(query, candidates, features=features)
        else:
            self.stats.sequential_verifications += 1
            answers = method.verify(query, candidates, features=features)
        verify_seconds = time.perf_counter() - start
        return QueryResult(
            query_name=query.name,
            answers=answers,
            candidates=candidates,
            num_isomorphism_tests=method.verifier.stats.tests - tests_before,
            filter_seconds=filter_seconds,
            verify_seconds=verify_seconds,
        )

    # ------------------------------------------------------------------
    def _use_pool(self, num_candidates: int) -> bool:
        return self.num_workers > 1 and num_candidates >= _MIN_PARALLEL_CANDIDATES

    def _verify_parallel(
        self,
        query: LabeledGraph,
        mask: int,
        supergraph: bool,
        features: GraphFeatures | None,
        compiled: CompiledQuery,
    ) -> CandidateBitmap:
        """Fan the verification of the candidates ``mask`` names out to the
        worker pool.

        The query side and the candidates' forms are compiled here, once,
        before any chunk is submitted: a form's kernel struct is built
        lazily and unlocked, so the chunks may only share ones that already
        exist.  The mask is split by popcount evenly over the workers; the
        OR of the chunk answers is order-independent, and the worker
        statistics deltas are folded back into the parent verifier so the
        per-query accounting matches the sequential path exactly.
        """
        method = self.method
        verifier = method.verifier
        if supergraph:
            query_side = verifier.compile_target(query, compiled)
        else:
            query_side = verifier.compile_pattern(query, compiled)
        query_side.native()
        method.form_table(supergraph).fill(mask)
        pool = self._ensure_pool()
        self.stats.parallel_verifications += 1
        futures = [
            pool.submit(_verify_chunk, method, query, chunk, supergraph, features, compiled)
            for chunk in _split_mask(mask, self.num_workers)
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
