"""Batched (and optionally parallel) query execution.

The sequential engine processes one query at a time: extract features,
filter, prune with the iGQ components, verify, maintain the cache.  Under
load two of those stages dominate and neither needs to be sequential:

* **verification** — the surviving candidates of one query are independent
  isomorphism tests, so :class:`BatchExecutor` can fan them out to a
  :mod:`concurrent.futures` worker pool (``batch.backend``: threads — the
  native kernel releases the interpreter lock — or processes; ``"auto"``
  picks processes only for more than one worker on more than one CPU and
  otherwise verifies in-process, one kernel call per query);
* **feature extraction** — real workloads repeat query fragments heavily
  (that is the premise of the paper), so extraction is memoised across the
  batch under the query's exact, insertion-ordered key: a copy of an earlier
  query built the same way (what a decoded wire repeat is) skips the
  extraction;
* **planning** — while query *i*'s candidates verify on the pool, the
  executor already plans query *i+1* (base-method filtering plus the two iGQ
  component lookups).  Planning's only state mutation — the §5.1 metadata
  credit for hit cache entries — is deferred until query *i* has completed,
  and a speculative plan is discarded and redone whenever completing query
  *i* flushed the query window (the one event that can change what planning
  would have seen), so the overlap is invisible to the engine's semantics.

Everything stateful — cache hits, window maintenance, replacement metadata —
is still applied strictly in input order.  As a consequence the executor is
*deterministic*: for any worker count, with or without pipelining, the
answers, the per-query accounting and the engine's cache state after the
batch are identical to the plain sequential loop, which is what the test
suite asserts and what lets every future performance PR be gated on the
sequential path as ground truth.
"""

from __future__ import annotations

import copy
import os
import pickle
import time
from collections.abc import Hashable, Iterable, Iterator
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import FlatGraph
from ..methods.base import QueryResult, SubgraphQueryMethod
from .config import (
    MIXED_MODE,
    SUBGRAPH_MODE,
    SUPERGRAPH_MODE,
    BatchConfig,
    validate_query_mode,
)
from .engine import IGQ, IGQQueryResult, QueryPlan

__all__ = [
    "ABORTED",
    "BACKENDS",
    "DRAIN",
    "BatchStats",
    "FeatureMemo",
    "BatchExecutor",
    "default_num_workers",
    "effective_cpu_count",
]


class _Drain:
    """Sentinel stream item: "no query is ready — finish what is in flight".

    Emitted by live task sources (the :class:`~repro.service.GraphQueryService`
    queue) between a dispatched query and the next submission, so the
    pipelined executor completes the outstanding query instead of blocking a
    caller's future on a successor that may never arrive.  Harmless in batch
    streams: the sequential path skips it outright.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DRAIN>"


DRAIN = _Drain()


class _Aborted:
    """Sentinel result: a stream item's abort hook fired before execution.

    Stream items may carry a third element — a zero-argument ``abort``
    callable (the service passes the task future's ``done`` method).  The
    executor calls it at the last moment before engine work starts; a truthy
    return skips the query entirely (no planning, no cache writes, no stats)
    and this sentinel is yielded in the item's position so a live driver can
    keep its pending-task bookkeeping aligned with the result stream.  This
    is what makes a timed-out-but-not-yet-executed submission free: the
    engine never spends a verification on a future nobody can observe.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ABORTED>"


ABORTED = _Aborted()

#: accepted ``backend`` values; ``"auto"`` resolves to ``"process"`` when
#: more than one worker is requested *and* the machine can actually run them
#: (see :func:`effective_cpu_count`), and to ``"sequential"`` otherwise
BACKENDS = ("auto", "sequential", "thread", "process")


def _cgroup_cpu_quota() -> int | None:
    """CPU limit from a cgroup-v2 quota (``docker --cpus=N``), if any."""
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as handle:
            quota, _, period = handle.read().partition(" ")
        if quota.strip() == "max":
            return None
        return max(1, int(int(quota) / int(period)))
    except (OSError, ValueError):
        return None


def effective_cpu_count() -> int:
    """CPUs this process may actually use.

    Honours both the scheduler affinity mask and (on cgroup-v2 systems) a
    CPU quota — a ``--cpus=1`` container on an 8-core host reports 1, so
    the ``auto`` backend does not spawn a pool the kernel would serialise.
    """
    count = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        try:
            count = len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    quota = _cgroup_cpu_quota()
    if quota is not None:
        count = min(count, quota)
    return count

#: below this many surviving candidates a parallel round-trip costs more
#: than it saves, so the executor verifies in-process
_MIN_PARALLEL_CANDIDATES = 4

#: a service keeps one executor (and its feature memo) for its lifetime;
#: the memo is cleared when it reaches this many distinct queries — the
#: rule ``IGQ._prepared`` and ``Placement._shard_memo`` use
_FEATURE_MEMO_CAPACITY = 8192


@dataclass
class BatchStats:
    """Counters accumulated by one :class:`BatchExecutor`."""

    queries: int = 0
    feature_memo_hits: int = 0
    feature_memo_misses: int = 0
    parallel_verifications: int = 0
    sequential_verifications: int = 0
    chunks_dispatched: int = 0
    #: queries whose planning overlapped the previous query's verification
    pipelined_plans: int = 0
    #: speculative plans discarded because the previous query's completion
    #: flushed the query window (the plan is simply recomputed)
    pipeline_replans: int = 0
    #: kernel backend each worker actually resolved, folded back per chunk
    #: (name -> chunk count).  Kernel resolution is per process, so a worker
    #: that could not load the native library quietly runs ``"bigint"``
    #: while its parent runs ``"native"`` — this counter is how that
    #: divergence becomes visible (see ``ServiceReport.kernel_resolved``).
    worker_kernels: dict = field(default_factory=dict)


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


# ----------------------------------------------------------------------
# Worker-side verification
# ----------------------------------------------------------------------
#: per-process snapshot of the base method, installed by the pool initializer
_WORKER_METHOD: SubgraphQueryMethod | None = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_METHOD
    _WORKER_METHOD = pickle.loads(payload)


def _init_worker_shared(handle) -> None:
    """Pool initializer attaching to a published shared-memory snapshot.

    ``handle`` is a :class:`~repro.core.shm.SnapshotHandle`: only the
    segment name and size cross the pipe; the snapshot itself is read from
    the one segment the parent published.
    """
    global _WORKER_METHOD
    _WORKER_METHOD = handle.load()


def _run_verify_chunk(
    method: SubgraphQueryMethod,
    query: LabeledGraph,
    candidate_ids: list,
    supergraph: bool,
    features: GraphFeatures | None,
) -> tuple[list, int, int, float, str]:
    """Verify one chunk against ``method``.

    Returns the answers plus the verifier-stat deltas the chunk produced —
    positives, negatives (their sum is the test count) and seconds — which
    the parent folds back so the :class:`VerifierStats` invariants hold
    after a batch.  The final element names the kernel backend this worker
    process actually resolved — answers are backend-independent, but a
    worker that fell back to ``"bigint"`` (native library unloadable in the
    fresh process) must be *visible* in the folded statistics, not silently
    slower.
    """
    stats = method.verifier.stats
    positives, negatives, seconds = stats.positives, stats.negatives, stats.total_seconds
    if supergraph:
        answers = method.verify_supergraph(query, candidate_ids, features=features)
    else:
        answers = method.verify(query, candidate_ids, features=features)
    return (
        list(answers),
        stats.positives - positives,
        stats.negatives - negatives,
        stats.total_seconds - seconds,
        method.verifier.resolved_kernel_name(),
    )


def _process_verify_chunk(
    query: LabeledGraph,
    candidate_ids: list,
    supergraph: bool,
    features: GraphFeatures | None,
) -> tuple[list, int, int, float, str]:
    """Process-pool entry point: verify against the worker's method snapshot."""
    return _run_verify_chunk(_WORKER_METHOD, query, candidate_ids, supergraph, features)


def _thread_verify_chunk(
    method: SubgraphQueryMethod,
    query: LabeledGraph,
    candidate_ids: list,
    supergraph: bool,
    features: GraphFeatures | None,
) -> tuple[list, int, int, float, str]:
    """Thread-pool entry point.

    Threads share the index structures (read-only during querying) but each
    call gets a private :class:`Verifier` carrying the parent's full
    configuration — algorithm, induced semantics *and* the
    ``compiled``/``precheck`` fast-path flags, so A/B baselines keep their
    meaning on the pool — with zeroed statistics, so the shared counters are
    never raced; the deltas are merged by the parent deterministically.
    """
    clone = copy.copy(method)
    clone.verifier = method.verifier.fresh_clone()
    return _run_verify_chunk(clone, query, candidate_ids, supergraph, features)


@dataclass
class _PendingVerification:
    """One query whose verification has been dispatched but not completed."""

    plan: QueryPlan
    #: outstanding pool futures, or ``None`` when verified in-process
    futures: list | None
    #: in-process answers (``None`` while pool futures are outstanding)
    verified: set | None
    #: feature-extraction time to fold back into ``filter_seconds``
    extract_seconds: float
    #: verification wall time observed so far: the full in-process run, or
    #: just the chunk submission for pool runs — :meth:`BatchExecutor._finish`
    #: adds the collection wait, so time the main thread spends planning the
    #: next query between the two is *not* billed to verification
    verify_seconds: float


@dataclass
class _VerifierStatsMark:
    """Rollback point for a :class:`VerifierStats` (speculative planning)."""

    tests: int
    positives: int
    negatives: int
    total_seconds: float

    @classmethod
    def capture(cls, stats) -> "_VerifierStatsMark":
        return cls(
            tests=stats.tests,
            positives=stats.positives,
            negatives=stats.negatives,
            total_seconds=stats.total_seconds,
        )

    def rollback(self, stats) -> None:
        stats.tests = self.tests
        stats.positives = self.positives
        stats.negatives = self.negatives
        stats.total_seconds = self.total_seconds


class BatchExecutor:
    """Run batches of queries through an :class:`IGQ` engine or a bare method.

    Parameters
    ----------
    target:
        An :class:`~repro.core.engine.IGQ` engine (its configured mode
        decides the query type) or a plain
        :class:`~repro.methods.base.SubgraphQueryMethod`.
    num_workers:
        Worker-pool size for the verification stage.  ``1`` selects the
        deterministic sequential fallback (no pool is ever created).
    backend:
        One of :data:`BACKENDS`.  ``"process"`` (the ``"auto"`` default for
        ``num_workers > 1``) ships a pickled snapshot of the base method to
        each worker once, then only candidate-id chunks per query.
    chunk_size:
        Candidates per worker task; defaults to an even split over the
        workers.
    memoize_features:
        Memoise query feature extraction across the batch (on by default).
    pipeline:
        Plan the next query while the previous one verifies on the pool (on
        by default; only takes effect when an iGQ engine is driven with a
        worker pool).  Semantics are unchanged either way — the flag exists
        so benchmarks and tests can isolate the latency contribution.
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
        backend: str = "auto",
        chunk_size: int | None = None,
        memoize_features: bool = True,
        pipeline: bool = True,
        config: BatchConfig | None = None,
    ) -> None:
        if config is not None:
            num_workers = config.num_workers
            backend = config.backend
            chunk_size = config.chunk_size
            memoize_features = config.memoize_features
            pipeline = config.pipeline
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.engine = target if isinstance(target, IGQ) else None
        self.method = target.method if isinstance(target, IGQ) else target
        if self.method.database is None:
            raise RuntimeError("the target's dataset index must be built first")
        self.num_workers = num_workers
        if backend == "auto":
            # A worker pool only pays off when the hardware can actually run
            # the workers concurrently; on a single-CPU machine the batch
            # still wins through feature memoisation, but verification stays
            # in-process (an explicit backend overrides this).
            backend = (
                "process" if num_workers > 1 and effective_cpu_count() > 1 else "sequential"
            )
        self.backend = backend
        self.chunk_size = chunk_size
        self.pipeline = pipeline
        self.stats = BatchStats()
        self._memo = FeatureMemo(self.method.extractor) if memoize_features else None
        self._pool: Executor | None = None
        self._owns_pool = True
        self._shared_mode: str | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self, supergraph: bool = False) -> Executor:
        if self._pool is None:
            if self.backend == "process":
                # A sharded engine with process-backed shards already keeps
                # one long-lived worker per shard, each initialised with the
                # method snapshot and subscribed to the cache delta log —
                # verification chunks ride on those instead of a second pool.
                engine = self.engine
                shared = engine.shard_runtime.verify_pool() if engine is not None else None
                if shared is not None:
                    self._pool = shared
                    self._owns_pool = False
                    return self._pool
                if self.engine is not None:
                    mode = self.engine.mode
                else:
                    # A bare method has no configured mode; precompile for
                    # the direction of the chunk that forced pool creation
                    # (a later plain stream mixing both directions falls
                    # back to lazy per-worker compilation of the other one).
                    mode = SUPERGRAPH_MODE if supergraph else SUBGRAPH_MODE
                handle = self.method.acquire_shared_payload(mode=mode)
                if handle is not None:
                    # Publish-once: workers attach to the one shared-memory
                    # segment instead of each receiving the snapshot pickle.
                    self._shared_mode = mode
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.num_workers,
                        initializer=_init_worker_shared,
                        initargs=(handle,),
                    )
                else:
                    payload = self.method.verification_payload(mode=mode)
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.num_workers,
                        initializer=_init_worker,
                        initargs=(payload,),
                    )
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.num_workers)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent).

        A pool borrowed from the engine's shard runtime is left running —
        its lifetime belongs to the engine.
        """
        if self._pool is not None:
            if self._owns_pool:
                self._pool.shutdown(wait=True)
            self._pool = None
            self._owns_pool = True
        if self._shared_mode is not None:
            self.method.release_shared_payload(self._shared_mode)
            self._shared_mode = None

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

        Queries are verified and folded into the cache strictly in input
        order.  With an iGQ engine, a worker pool and ``pipeline=True``
        (the default), query *i+1* is planned while query *i*'s candidates
        verify on the pool; results still arrive in input order and the
        engine ends the stream in exactly the sequential state.  Items may
        be bare graphs or ``(query, mode)`` pairs; :data:`DRAIN` items make
        a live source flush the in-flight query (see :class:`_Drain`).
        """
        if self.engine is not None and self.pipeline and self._pool_enabled():
            yield from self._run_stream_pipelined(queries)
            return
        for item in queries:
            if item is DRAIN:
                continue
            query, supergraph, abort = self._task_of(item)
            if abort is not None and abort():
                yield ABORTED
                continue
            yield self._run_item(query, supergraph)

    def _pool_enabled(self) -> bool:
        return self.backend != "sequential" and self.num_workers > 1

    def _task_of(self, item) -> tuple[LabeledGraph, bool, object]:
        """Normalise a stream item to ``(query, supergraph, abort)``.

        Items are bare graphs, ``(query, mode)`` pairs, or ``(query, mode,
        abort)`` triples with ``abort`` a zero-argument cancellation hook
        (see :class:`_Aborted`).
        """
        abort = None
        if isinstance(item, tuple):
            if len(item) == 3:
                query, mode, abort = item
            else:
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
        return query, mode == SUPERGRAPH_MODE, abort

    def _run_stream_pipelined(self, queries: Iterable) -> Iterator[IGQQueryResult]:
        """Pipelined plan/verify loop over an iGQ engine.

        Sequential order per query is plan → verify → complete; the only
        engine-state writes are the §5.1 hit credits (during planning) and
        the window maintenance (during completion).  The pipelined loop
        plans query *i+1* with the credits *deferred* while query *i*'s
        futures are outstanding, completes query *i*, and only then applies
        the credits — so every state write lands in exactly the sequential
        position.  If completing query *i* flushed the window (the one
        completion effect planning can observe), the speculative plan is
        discarded: the component-lookup statistics are rolled back and the
        query is re-planned against the post-flush index.  A :data:`DRAIN`
        item completes the in-flight query immediately (state writes land in
        the same order the sequential loop would produce — the plan overlap
        is simply skipped for that boundary).
        """
        engine = self.engine
        pending: _PendingVerification | None = None
        for item in queries:
            if item is DRAIN:
                if pending is not None:
                    yield self._finish(pending)
                    pending = None
                continue
            query, supergraph, abort = self._task_of(item)
            if abort is not None and abort():
                # The abort sentinel must land in this item's stream
                # position, so the in-flight predecessor is flushed first —
                # one lost planning overlap, only on the (rare) abort path.
                if pending is not None:
                    yield self._finish(pending)
                    pending = None
                yield ABORTED
                continue
            self.stats.queries += 1
            start = time.perf_counter()
            features, flat = self._prepare(query)
            extract_seconds = time.perf_counter() - start
            if pending is None:
                plan = engine.plan_query(
                    query, supergraph=supergraph, features=features, flat=flat
                )
                pending = self._dispatch(plan, extract_seconds)
                continue
            mark = _VerifierStatsMark.capture(engine.igq_verifier.stats)
            plan = engine.plan_query(
                query, supergraph=supergraph, features=features, credit=False, flat=flat
            )
            self.stats.pipelined_plans += 1
            result = self._finish(pending)
            if result.maintenance is not None:
                mark.rollback(engine.igq_verifier.stats)
                self.stats.pipeline_replans += 1
                plan = engine.plan_query(
                    query, supergraph=supergraph, features=features, credit=False, flat=flat
                )
            engine.apply_plan_credits(plan)
            # The speculative plan captured the verifier's test counter
            # before query i's worker tests were folded back; re-anchor it
            # so per-query test accounting matches the sequential loop.
            plan.tests_before = engine.method.verifier.stats.tests
            pending = self._dispatch(plan, extract_seconds)
            yield result
        if pending is not None:
            yield self._finish(pending)

    def _dispatch(self, plan: QueryPlan, extract_seconds: float) -> _PendingVerification:
        """Start (or inline-run) the verification stage of a planned query."""
        candidate_ids = list(plan.remaining)
        start = time.perf_counter()
        if self._use_pool(candidate_ids):
            futures = self._submit_chunks(
                plan.query, candidate_ids, plan.supergraph, plan.features
            )
            return _PendingVerification(
                plan, futures, None, extract_seconds, time.perf_counter() - start
            )
        self.stats.sequential_verifications += 1
        verified = self.engine.verify_plan(plan)
        return _PendingVerification(
            plan, None, verified, extract_seconds, time.perf_counter() - start
        )

    def _finish(self, pending: _PendingVerification) -> IGQQueryResult:
        """Collect a dispatched query's answers and complete it in-engine."""
        verify_seconds = pending.verify_seconds
        if pending.futures is not None:
            start = time.perf_counter()
            verified = self._collect_chunks(pending.futures)
            verify_seconds += time.perf_counter() - start
        else:
            verified = pending.verified
        result = self.engine.complete_query(pending.plan, verified, verify_seconds)
        result.filter_seconds += pending.extract_seconds
        return result

    def _run_item(self, query: LabeledGraph, supergraph: bool) -> QueryResult:
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
            result = self._run_one_plain(query, features, supergraph)
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
        candidate_ids = list(plan.remaining)
        start = time.perf_counter()
        if self._use_pool(candidate_ids):
            verified = self._verify_parallel(query, candidate_ids, supergraph, features)
        else:
            self.stats.sequential_verifications += 1
            verified = engine.verify_plan(plan)
        verify_seconds = time.perf_counter() - start
        return engine.complete_query(plan, verified, verify_seconds)

    def _run_one_plain(
        self, query: LabeledGraph, features: GraphFeatures, supergraph: bool = False
    ) -> QueryResult:
        method = self.method
        tests_before = method.verifier.stats.tests
        start = time.perf_counter()
        if supergraph:
            candidates = method.filter_supergraph_candidates(query, features=features)
        else:
            candidates = method.filter_candidates(query, features=features)
        filter_seconds = time.perf_counter() - start
        candidate_ids = list(candidates)
        start = time.perf_counter()
        if self._use_pool(candidate_ids):
            answers = self._verify_parallel(
                query, candidate_ids, supergraph=supergraph, features=features
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
    def _use_pool(self, candidate_ids: list) -> bool:
        return (
            self.backend != "sequential"
            and self.num_workers > 1
            and len(candidate_ids) >= _MIN_PARALLEL_CANDIDATES
        )

    def _chunks(self, candidate_ids: list) -> list[list]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(candidate_ids) // self.num_workers))
        return [
            candidate_ids[start : start + size]
            for start in range(0, len(candidate_ids), size)
        ]

    def _verify_parallel(
        self,
        query: LabeledGraph,
        candidate_ids: list[Hashable],
        supergraph: bool,
        features: GraphFeatures | None,
    ) -> set:
        """Fan one query's candidate verification out to the worker pool.

        The union of the chunk answers is order-independent, and the worker
        statistics deltas are folded back into the parent verifier so the
        per-query accounting matches the sequential path exactly.
        """
        return self._collect_chunks(
            self._submit_chunks(query, candidate_ids, supergraph, features)
        )

    def _submit_chunks(
        self,
        query: LabeledGraph,
        candidate_ids: list[Hashable],
        supergraph: bool,
        features: GraphFeatures | None,
    ) -> list:
        """Submit one query's verification chunks; return the futures."""
        pool = self._ensure_pool(supergraph)
        self.stats.parallel_verifications += 1
        futures = []
        for chunk in self._chunks(candidate_ids):
            self.stats.chunks_dispatched += 1
            if self.backend == "process":
                futures.append(
                    pool.submit(_process_verify_chunk, query, chunk, supergraph, features)
                )
            else:
                futures.append(
                    pool.submit(
                        _thread_verify_chunk, self.method, query, chunk, supergraph, features
                    )
                )
        return futures

    def _collect_chunks(self, futures: list) -> set:
        """Merge chunk results and fold the worker stats into the parent."""
        merged: set = set()
        worker_kernels = self.stats.worker_kernels
        stats = self.method.verifier.stats
        # collect everything first: a failed chunk must not leave the
        # statistics half-folded
        for answers, positives, negatives, seconds, kernel in [
            future.result() for future in futures
        ]:
            merged.update(answers)
            stats.tests += positives + negatives
            stats.positives += positives
            stats.negatives += negatives
            stats.total_seconds += seconds
            worker_kernels[kernel] = worker_kernels.get(kernel, 0) + 1
        return merged


def default_num_workers() -> int:
    """A safe default worker count for this machine (at most 4)."""
    return max(2, min(4, effective_cpu_count()))
