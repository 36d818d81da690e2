"""`GraphQueryService`: the one public front door to the iGQ engine.

The engine layer grew four generations of execution machinery — batch
executor, compiled verification, unified containment, sharded cache — each
reachable through its own flags and some owning long-lived resources (the
verification thread pool) with no single place that opens and closes them.
:class:`GraphQueryService` packages all of it behind a session object:

* **Lifecycle** — ``with GraphQueryService(method, config, database=db) as
  service:`` builds the :class:`~repro.core.engine.IGQ` engine the config
  describes (any ``shard.shards``) and indexes the dataset; on exit it
  drains the queue, waits for the journal, and deterministically shuts
  down the batch executor's thread pool and the engine.

* **One endpoint** — :meth:`GraphQueryService.query` serves *both* query
  types (``mode="subgraph"`` / ``"supergraph"``) against one shared engine;
  a mixed stream keeps the two answer-set flavours apart in the cache while
  sharing window, replacement policy and shard partitions.

* **Asynchrony with sequential semantics** — :meth:`submit` enqueues a query
  and returns a :class:`~concurrent.futures.Future`; :meth:`stream` pipes an
  iterable through with bounded in-flight backpressure, yielding results in
  submission order.  Execution is *caller-runs* (flat combining): the
  submitting thread — the embedded caller, or the server's event-loop
  thread for wire requests — takes a combiner lock and runs queued tasks
  one after the other through the deterministic
  :class:`~repro.core.batch.BatchExecutor` until none is dispatchable; a
  submitter that finds the lock held leaves its task to the thread that
  holds it.  One query runs at a time, so answers, accounting, cache
  contents and replacement state are byte-identical to a plain sequential
  ``engine.query()`` loop — whatever the batch/shard configuration.  The
  service starts no thread of its own: a durable engine's journal writer
  makes each window flush durable, and a result computed after a flush is
  held until that flush's commit (acknowledgement order is durability
  order); a ``threading.Timer`` restarts the queue when only rate-limited
  work is left.

* **Multi-tenant QoS** — sessions double as *tenants*: each session's
  submissions land in that tenant's queue of a
  :class:`~repro.service.scheduler.FairScheduler` (deficit round-robin with
  per-tenant ``weight`` / ``max_in_flight`` / ``rate_limit`` from
  :class:`~repro.core.config.ServiceConfig`), so one tenant's backlog cannot
  starve another.  A lone tenant degenerates to plain FIFO — which is what
  keeps single-stream answers and accounting byte-identical to a
  sequential loop.

* **Cancellation and timeouts** — ``Future.cancel()`` on a not-yet-started
  submission removes it from its queue immediately (it never executes,
  its quota slot frees at once); ``submit(timeout=...)`` (or
  ``ServiceConfig.default_timeout_seconds``) expires a submission with
  :class:`QueryTimeout` whether it is still queued or already dispatched.

* **Introspection** — :meth:`stats` returns a :class:`ServiceReport` (cache
  hit rates, per-stage timings, shard balance, per-session accounting);
  :meth:`session` opens named sub-accounts over the shared engine.
"""

from __future__ import annotations

import itertools
import threading
import time
import weakref
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, InvalidStateError, wait
from dataclasses import dataclass, field, replace as dataclass_replace
from functools import partial

from ..core.batch import BatchExecutor
from ..core.config import (
    MIXED_MODE,
    SUPERGRAPH_MODE,
    ConfigError,
    EngineConfig,
    validate_query_mode,
)
from ..core.engine import IGQ, IGQQueryResult
from ..graphs.database import GraphDatabase
from ..graphs.graph import LabeledGraph
from ..methods.base import SubgraphQueryMethod
from .scheduler import CLOSED, FairScheduler, SchedulerClosed

__all__ = [
    "ServiceClosed",
    "QueryTimeout",
    "SessionStats",
    "ServiceReport",
    "ServiceSession",
    "GraphQueryService",
]

#: the tenant anonymous (session-less) submissions are accounted to
DEFAULT_TENANT = "default"
#: how much later than needed an armed wake timer may fire and be kept
_WAKE_SLACK_SECONDS = 0.001


class ServiceClosed(RuntimeError):
    """The service is not open (never opened, closed, or failed)."""


class QueryTimeout(TimeoutError):
    """A submitted query expired before its result became observable.

    Raised from the future of a submission whose deadline passed — whether
    it was still queued (the scheduler drops it without executing) or
    already dispatched (the engine finishes the work for cache consistency,
    but the caller sees this instead of a late result).
    """


@dataclass
class SessionStats:
    """Accounting for one session (or the service-wide totals)."""

    name: str
    queries: int = 0
    subgraph_queries: int = 0
    supergraph_queries: int = 0
    #: queries answered straight from the cache (§4.3 exact repeat)
    exact_hits: int = 0
    #: queries that skipped verification entirely
    verification_skipped: int = 0
    #: queries with at least one component hit (drives the hit rate)
    hit_queries: int = 0
    sub_hits: int = 0
    super_hits: int = 0
    isomorphism_tests: int = 0
    guaranteed_answers: int = 0
    pruned_candidates: int = 0
    filter_seconds: float = 0.0
    igq_seconds: float = 0.0
    verify_seconds: float = 0.0

    def record(self, result: IGQQueryResult, supergraph: bool) -> None:
        """Fold one query result into the counters."""
        self.queries += 1
        if supergraph:
            self.supergraph_queries += 1
        else:
            self.subgraph_queries += 1
        self.exact_hits += bool(result.exact_hit)
        self.verification_skipped += bool(result.verification_skipped)
        self.hit_queries += bool(result.num_sub_hits or result.num_super_hits)
        self.sub_hits += result.num_sub_hits
        self.super_hits += result.num_super_hits
        self.isomorphism_tests += result.num_isomorphism_tests
        self.guaranteed_answers += len(result.guaranteed_answers)
        self.pruned_candidates += len(result.pruned_candidates)
        self.filter_seconds += result.filter_seconds
        self.igq_seconds += result.igq_seconds
        self.verify_seconds += result.verify_seconds

    @property
    def hit_rate(self) -> float:
        """Fraction of queries with at least one query-index hit."""
        return self.hit_queries / self.queries if self.queries else 0.0

    @property
    def total_seconds(self) -> float:
        """Total engine time across the three stages."""
        return self.filter_seconds + self.igq_seconds + self.verify_seconds

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot of the counters (report payload)."""
        return {
            "name": self.name,
            "queries": self.queries,
            "subgraph_queries": self.subgraph_queries,
            "supergraph_queries": self.supergraph_queries,
            "exact_hits": self.exact_hits,
            "verification_skipped": self.verification_skipped,
            "hit_queries": self.hit_queries,
            "hit_rate": self.hit_rate,
            "sub_hits": self.sub_hits,
            "super_hits": self.super_hits,
            "isomorphism_tests": self.isomorphism_tests,
            "guaranteed_answers": self.guaranteed_answers,
            "pruned_candidates": self.pruned_candidates,
            "filter_seconds": self.filter_seconds,
            "igq_seconds": self.igq_seconds,
            "verify_seconds": self.verify_seconds,
            "total_seconds": self.total_seconds,
        }


@dataclass
class ServiceReport:
    """Structured snapshot of a service's state (``service.stats()``)."""

    #: the engine configuration, in :meth:`EngineConfig.to_dict` form
    config: dict
    #: service-wide accounting
    totals: SessionStats
    #: per-session accounting, keyed by session name
    sessions: dict[str, SessionStats]
    #: live cached queries / configured capacity
    cache_size: int
    cache_capacity: int
    #: engine-global query counter (includes warm-up, drives M(g))
    queries_seen: int
    #: cache partitions and their live-entry balance
    shards: int
    shard_balance: list[int]
    #: batch-executor counters (feature memo, pool usage)
    feature_memo_hits: int
    feature_memo_misses: int
    parallel_verifications: int
    sequential_verifications: int
    #: queries whose plan was replayed from an isomorphic query planned
    #: earlier in the same window (the engine's ``plans_replayed``)
    plans_replayed: int
    #: always 0: overlapped planning was removed in 8.0 (kept until the
    #: benchmark harness stops reading them)
    pipelined_plans: int = 0
    pipeline_replans: int = 0
    #: always 0: hot-key replication and rebalancing were removed in 4.0
    #: (kept one release for readers of the 3.x report)
    replicas_live: int = 0
    moves_applied: int = 0
    #: always empty: the in-memory delta log was removed in 11.0 (kept
    #: until the benchmark harness stops reading it)
    delta_log: dict = field(default_factory=dict)
    #: always ``{"parent": "native"}``: the C kernel is the only matcher
    #: (kept until the benchmark harness stops reading it)
    kernel_resolved: dict = field(default_factory=lambda: {"parent": "native"})

    def as_dict(self) -> dict:
        """JSON-serialisable form (dashboards, experiment archives)."""
        return {
            "config": self.config,
            "totals": self.totals.as_dict(),
            "sessions": {name: stats.as_dict() for name, stats in self.sessions.items()},
            "cache": {
                "size": self.cache_size,
                "capacity": self.cache_capacity,
                "queries_seen": self.queries_seen,
                "hit_rate": self.totals.hit_rate,
            },
            "shards": {
                "count": self.shards,
                "balance": self.shard_balance,
                "replicas_live": self.replicas_live,
                "moves_applied": self.moves_applied,
            },
            "kernel_resolved": dict(self.kernel_resolved),
            "executor": {
                "feature_memo_hits": self.feature_memo_hits,
                "feature_memo_misses": self.feature_memo_misses,
                "parallel_verifications": self.parallel_verifications,
                "sequential_verifications": self.sequential_verifications,
                "plans_replayed": self.plans_replayed,
            },
        }


@dataclass
class _Task:
    """One submitted query travelling from :meth:`submit` to the combiner."""

    query: LabeledGraph
    mode: str
    future: Future
    session: SessionStats | None
    #: tenant queue this task is scheduled under (session name or "default")
    tenant: str = DEFAULT_TENANT
    #: effective timeout in seconds (None = never expires)
    timeout: float | None = None
    #: ``time.monotonic()`` instant the timeout elapses, fixed at submit and
    #: enforced at completion — the timer thread alone may run too late
    deadline: float | None = None
    #: expiry timer, armed before the task enters the scheduler
    timer: threading.Timer | None = None
    #: slot-release latch, owned by :meth:`FairScheduler.finish`
    finalized: bool = False


def _call_weakly(method: str, service_ref, task_ref=None, *args) -> None:
    """``service.<method>(task, *args)`` — or ``service.<method>(*args)``
    when ``task_ref`` is ``None`` — if they are still alive.

    A submission's done-callback and expiry timer, a commit's callback and
    the wake timer hold the service (and task) weakly: the caller keeps the
    future, which keeps its callbacks, the engine's persister keeps its
    commits, and a cancelled timer's thread keeps its arguments until it
    exits — strong references would tie every completed future, its task
    and the service (engine, persister, replicas, kernel blocks) into
    cycles only the cycle collector frees."""
    service = service_ref()
    if service is None:
        return
    if task_ref is None:
        getattr(service, method)(*args)
        return
    task = task_ref()
    if task is not None:
        getattr(service, method)(task, *args)


class ServiceSession:
    """A named accounting scope over a shared service (context-managed).

    Sessions do not partition the engine — the cache, window and shard
    state are deliberately shared so one tenant's cached queries speed up
    another's (the iGQ premise) — they partition the *accounting*: each
    session sees its own query counts, hit rates and timings in
    :meth:`GraphQueryService.stats`.
    """

    def __init__(self, service: "GraphQueryService", stats: SessionStats) -> None:
        self._service = service
        self.stats = stats

    @property
    def name(self) -> str:
        """The session's label (as shown in service reports)."""
        return self.stats.name

    def submit(
        self,
        query: LabeledGraph,
        mode: str | None = None,
        *,
        timeout: float | None = None,
        block: bool = True,
        run: bool = True,
    ) -> Future:
        """Enqueue a query under this session's accounting and QoS tenant
        (see :meth:`GraphQueryService.submit`)."""
        return self._service.submit(
            query, mode, session=self.stats, timeout=timeout, block=block, run=run
        )

    def query(self, query: LabeledGraph, mode: str | None = None) -> IGQQueryResult:
        """Process one query synchronously under this session."""
        return self.submit(query, mode).result()

    def stream(
        self, queries: Iterable, mode: str | None = None, max_in_flight: int | None = None
    ) -> Iterator[IGQQueryResult]:
        """Ordered streaming execution under this session's accounting."""
        return self._service.stream(
            queries, mode, max_in_flight=max_in_flight, session=self.stats
        )

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        """Sessions hold no resources; closing is purely syntactic."""

    def __repr__(self) -> str:
        return f"<ServiceSession {self.stats.name!r} queries={self.stats.queries}>"


class GraphQueryService:
    """Session façade over one iGQ engine (see module docstring).

    Parameters
    ----------
    method:
        The base filter-then-verify method to wrap.  Alternatively pass a
        ready-made engine via ``engine=`` (the service then *owns* it:
        closing the service closes the engine).
    config:
        The :class:`~repro.core.config.EngineConfig` describing the engine
        and its execution machinery; defaults to ``EngineConfig()``.  A
        config with ``mode="mixed"`` makes per-call ``mode=`` mandatory.
    database:
        Dataset to index on :meth:`open`.  May be omitted when the method
        (or engine) already carries a built index.
    max_in_flight:
        Per-tenant backpressure bound: the maximum number of
        submitted-but-unresolved queries of one tenant; :meth:`submit`
        blocks once it is reached.  Overrides
        ``config.service.default_max_in_flight`` (tenants with an explicit
        ``max_in_flight`` in :class:`~repro.core.config.ServiceConfig` keep
        their own quota).
    """

    def __init__(
        self,
        method: SubgraphQueryMethod | None = None,
        config: EngineConfig | None = None,
        *,
        engine: IGQ | None = None,
        database: GraphDatabase | None = None,
        max_in_flight: int | None = None,
    ) -> None:
        if (method is None) == (engine is None):
            raise ConfigError(
                "pass exactly one of method= (with an optional config) or "
                "engine= (a prebuilt IGQ)"
            )
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight={max_in_flight!r} is not valid; expected an integer >= 1"
            )
        if engine is not None:
            if config is not None:
                raise ConfigError(
                    "engine= already carries its configuration; drop config="
                )
            self.engine = engine
        else:
            self.engine = IGQ(method, config)
        self.config = self.engine.config
        service_config = self.config.service
        if max_in_flight is not None:
            service_config = dataclass_replace(
                service_config, default_max_in_flight=max_in_flight
            )
        self.service_config = service_config
        self.max_in_flight = service_config.default_max_in_flight
        self._database = database
        self._executor: BatchExecutor | None = None
        self._scheduler = FairScheduler(service_config)
        #: held by the thread running the queue (the combiner)
        self._combiner = threading.Lock()
        #: restarts the queue when only rate-limited work is left, and the
        #: ``time.monotonic()`` it fires at
        self._wake: threading.Timer | None = None
        self._wake_at = 0.0
        #: results waiting for their flush's commit, in completion order,
        #: as ``(task, result, commit)``; the newest commit handed out.
        #: Results are delivered under the lock, and a done-callback may
        #: submit (and run) more queries: hence reentrant.
        self._held: deque[tuple] = deque()
        self._held_lock = threading.RLock()
        self._barrier: Future | None = None
        self._opened = False
        self._closed = False
        self._error: BaseException | None = None
        self._state_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.totals = SessionStats(name="total")
        self._sessions: dict[str, SessionStats] = {}
        self._session_counter = itertools.count(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> "GraphQueryService":
        """Build/attach the dataset index; queries then run on the threads
        that submit them."""
        with self._state_lock:
            if self._opened and not self._closed:
                return self
            if self._closed:
                raise ServiceClosed("a closed service cannot be reopened; create a new one")
            if self.engine.database is None:
                if self._database is not None:
                    self.engine.build_index(self._database)
                elif self.engine.method.database is not None:
                    self.engine.attach_prebuilt()
                else:
                    raise ServiceClosed(
                        "no dataset to serve: pass database= to the service or "
                        "build the method's index before opening"
                    )
            self._executor = BatchExecutor(self.engine, config=self.config.batch)
            self._opened = True
        return self

    def close(self) -> None:
        """Drain submitted work, then shut the executor and engine down
        (idempotent).

        Queries already submitted are completed on the closing thread
        (their futures resolve, once the journal holds their flushes);
        afterwards the batch executor's verification pool is joined and the
        engine is closed.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            opened = self._opened
            if self._wake is not None:
                self._wake.cancel()
        # Closing the scheduler rejects new submissions and lifts the rate
        # limits; this thread then runs the backlog as the combiner, once a
        # combiner running elsewhere is done.
        self._scheduler.close()
        if opened:
            with self._combiner:
                self._run_queue()
            barrier = self._barrier
            if barrier is not None:
                wait([barrier])
                self._release(barrier)
            self._executor.close()
        self.engine.close()

    @property
    def is_open(self) -> bool:
        """True between a successful :meth:`open` and :meth:`close`."""
        return self._opened and not self._closed and self._error is None

    def __enter__(self) -> "GraphQueryService":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The front door
    # ------------------------------------------------------------------
    def submit(
        self,
        query: LabeledGraph,
        mode: str | None = None,
        *,
        session: SessionStats | None = None,
        timeout: float | None = None,
        block: bool = True,
        run: bool = True,
    ) -> Future:
        """Enqueue one query; returns a future resolving to its result.

        Within a tenant, queries execute strictly in submission order; the
        fair scheduler interleaves *across* tenants (weighted deficit
        round-robin), so a single-tenant service behaves exactly like a
        FIFO queue.  The query runs before this returns when no other
        thread is running the queue (the caller becomes the combiner; see
        the module docstring), so the future is then already done — unless
        it waits for a window flush to become durable.  ``run=False`` only
        enqueues: the caller then owes a :meth:`run_pending` call (the
        network server reads every ready connection before it runs
        anything, so the scheduler sees every tenant's requests).  Blocks
        while the tenant's ``max_in_flight`` submissions are outstanding —
        per-tenant backpressure — or, with ``block=False``, raises
        :class:`~repro.service.scheduler.AdmissionError` instead (what the
        network server turns into an ``overloaded`` response).

        ``timeout`` (defaulting to ``config.service.default_timeout_seconds``)
        expires the submission with :class:`QueryTimeout`; ``Future.cancel()``
        on a not-yet-started submission removes it from the queue.
        """
        mode = self._resolve_mode(mode)
        if timeout is not None and timeout <= 0:
            raise ConfigError(
                f"timeout={timeout!r} is not valid; expected a number > 0"
            )
        if not self.is_open:
            if self._error is not None:
                raise ServiceClosed("the service failed and closed") from self._error
            raise ServiceClosed("the service is not open; use it as a context manager")
        tenant = session.name if session is not None else DEFAULT_TENANT
        effective_timeout = (
            timeout if timeout is not None
            else self.service_config.default_timeout_seconds
        )
        future: Future = Future()
        task = _Task(
            query=query,
            mode=mode,
            future=future,
            session=session,
            tenant=tenant,
            timeout=effective_timeout,
        )
        # Arm the expiry timer before the task can be dequeued, so the
        # combiner always observes a fully-formed task.  The deadline covers
        # admission waiting too: a submission stuck behind its tenant's
        # quota can expire while still blocked here.
        if effective_timeout is not None:
            task.deadline = time.monotonic() + effective_timeout
            task.timer = threading.Timer(
                effective_timeout,
                _call_weakly,
                ("_expire", weakref.ref(self), weakref.ref(task)),
            )
            task.timer.daemon = True
            task.timer.start()
        try:
            # The scheduler atomically checks closed-ness with the enqueue:
            # a task either lands in a queue that is still drained, or the
            # submission fails fast — never enqueued and orphaned.
            self._scheduler.submit(task, block=block)
        except SchedulerClosed:
            if task.timer is not None:
                task.timer.cancel()
            if self._error is not None:
                raise ServiceClosed("the service failed and closed") from self._error
            raise ServiceClosed(
                "the service closed while the submission waited"
            ) from None
        except BaseException:
            if task.timer is not None:
                task.timer.cancel()
            raise
        future.add_done_callback(
            partial(_call_weakly, "_on_done", weakref.ref(self), weakref.ref(task))
        )
        if run:
            self.run_pending()
        return future

    def query(
        self, query: LabeledGraph, mode: str | None = None
    ) -> IGQQueryResult:
        """Process one query synchronously (submit + wait).

        The single endpoint for both query types: ``mode="subgraph"`` asks
        which dataset graphs *contain* the query, ``mode="supergraph"``
        which are *contained in* it; omitted, the engine's configured mode
        applies.
        """
        return self.submit(query, mode).result()

    def stream(
        self,
        queries: Iterable,
        mode: str | None = None,
        *,
        max_in_flight: int | None = None,
        session: SessionStats | None = None,
    ) -> Iterator[IGQQueryResult]:
        """Pipe an iterable of queries through; yield results in order.

        Items are query graphs or ``(query, mode)`` pairs (mixed streams).
        At most ``max_in_flight`` queries are outstanding at once — the
        streaming backpressure bound.
        """
        limit = max_in_flight if max_in_flight is not None else self.max_in_flight
        if limit < 1:
            raise ConfigError(
                f"max_in_flight={limit!r} is not valid; expected an integer >= 1"
            )
        window: deque[Future] = deque()
        for item in queries:
            if isinstance(item, tuple):
                item_query, item_mode = item
            else:
                item_query, item_mode = item, mode
            while len(window) >= limit:
                yield window.popleft().result()
            window.append(self.submit(item_query, item_mode, session=session))
        while window:
            yield window.popleft().result()

    def run(
        self, queries: Iterable, mode: str | None = None
    ) -> list[IGQQueryResult]:
        """Convenience: :meth:`stream` collected into a list."""
        return list(self.stream(queries, mode))

    def _resolve_mode(self, mode: str | None) -> str:
        if mode is None:
            if self.engine.mode == MIXED_MODE:
                raise ValueError(
                    "this service runs a mixed-mode engine: pass "
                    "mode='subgraph' or mode='supergraph' per query"
                )
            return self.engine.mode
        validate_query_mode(mode)
        if self.engine.mode not in (mode, MIXED_MODE):
            raise ValueError(
                f"this service serves {self.engine.mode!r} queries; configure "
                f"EngineConfig(mode='mixed') to dispatch both types"
            )
        return mode

    # ------------------------------------------------------------------
    # Sessions and introspection
    # ------------------------------------------------------------------
    def session(self, name: str | None = None, *, exist_ok: bool = False) -> ServiceSession:
        """Open a named accounting scope sharing this service's engine.

        The session's name is also its *tenant* identity: submissions made
        through it are scheduled on that tenant's queue with the weight,
        quota and rate limit :class:`~repro.core.config.ServiceConfig`
        assigns.  ``exist_ok=True`` returns the existing scope instead of
        raising (what the network server uses — every connection of a
        tenant shares one accounting scope).
        """
        with self._stats_lock:
            if name is None:
                name = f"session-{next(self._session_counter)}"
            if name in self._sessions:
                if exist_ok:
                    return ServiceSession(self, self._sessions[name])
                raise ValueError(f"session {name!r} already exists")
            stats = SessionStats(name=name)
            self._sessions[name] = stats
        return ServiceSession(self, stats)

    def scheduler_snapshot(self) -> dict:
        """Per-tenant queue depth, in-flight count and QoS knobs."""
        return self._scheduler.snapshot()

    def stats(self) -> ServiceReport:
        """A structured snapshot of cache, executor and session state."""
        engine = self.engine
        executor_stats = self._executor.stats if self._executor is not None else None
        with self._stats_lock:
            totals = dataclass_replace(self.totals)
            sessions = {
                name: dataclass_replace(stats) for name, stats in self._sessions.items()
            }
        return ServiceReport(
            config=self.config.to_dict(),
            totals=totals,
            sessions=sessions,
            cache_size=len(engine.cache),
            cache_capacity=engine.maintenance.cache_size,
            queries_seen=engine.cache.query_counter,
            shards=engine.num_shards,
            shard_balance=engine.placement.shard_balance(),
            feature_memo_hits=executor_stats.feature_memo_hits if executor_stats else 0,
            feature_memo_misses=executor_stats.feature_memo_misses if executor_stats else 0,
            parallel_verifications=(
                executor_stats.parallel_verifications if executor_stats else 0
            ),
            sequential_verifications=(
                executor_stats.sequential_verifications if executor_stats else 0
            ),
            plans_replayed=engine.plans_replayed,
        )

    # ------------------------------------------------------------------
    # Execution: the combiner
    # ------------------------------------------------------------------
    def run_pending(self, limit: int | None = None) -> bool:
        """Run queued tasks on this thread unless another thread already does.

        Runs dispatchable tasks in DRR order until none is left, or at most
        ``limit`` of them; returns True when ``limit`` stopped it with a
        task still dispatchable (the caller then calls again).  A thread
        that finds the combiner lock held leaves the queue to the holder:
        the holder polls the scheduler again after releasing the lock, so
        a task queued after its last ``next()`` is run by the next round,
        here or on the thread that takes the lock.
        """
        while self._combiner.acquire(blocking=False):
            try:
                self._run_queue(limit)
            finally:
                self._combiner.release()
            if not self._rearm():
                return False
            if limit is not None:
                return True
        return False

    def _run_queue(self, limit: int | None = None) -> None:
        """Run dispatchable tasks in DRR order until none is left or
        ``limit`` have run (the caller holds the combiner lock)."""
        scheduler = self._scheduler
        remaining = limit
        while remaining is None or remaining > 0:
            task = scheduler.next()
            if task is None or task is CLOSED:
                return
            self._run(task)
            if remaining is not None:
                remaining -= 1

    def _rearm(self) -> bool:
        """After a drain: True when a task is dispatchable now (drain
        again); otherwise make sure the wake timer fires by the earliest
        token refill of rate-limited work.  An armed timer that fires in
        time is kept, so a drain does not start a thread."""
        with self._state_lock:
            wait_seconds = self._scheduler.poll()
            if wait_seconds == 0.0:
                return True
            wake = self._wake
            if wait_seconds is None or self._closed:
                if wake is not None:
                    wake.cancel()
                    self._wake = None
                return False
            due = time.monotonic() + wait_seconds
            # (the same refill computed twice differs by the clock reads)
            if wake is not None and self._wake_at <= due + _WAKE_SLACK_SECONDS:
                return False
            if wake is not None:
                wake.cancel()
            self._wake = threading.Timer(
                wait_seconds, _call_weakly, ("_on_wake", weakref.ref(self))
            )
            self._wake.daemon = True
            self._wake_at = due
            self._wake.start()
        return False

    def _on_wake(self) -> None:
        """Wake timer callback: forget the timer that fired, then drain."""
        with self._state_lock:
            if self._wake is threading.current_thread():
                self._wake = None
        self.run_pending()

    def _run(self, task: _Task) -> None:
        """Execute one dequeued task; settle or fail its future."""
        try:
            started = task.future.set_running_or_notify_cancel()
        except RuntimeError:
            # The expiry timer beat the dispatch; the future already
            # carries QueryTimeout (a finished future makes
            # set_running_or_notify_cancel raise a plain RuntimeError).
            started = False
        if not started:
            # Cancelled or expired before execution; hand its slot back.
            self._finalize(task)
            return
        supergraph = task.mode == SUPERGRAPH_MODE
        try:
            result = self._executor.execute(task.query, supergraph)
        except BaseException as exc:  # noqa: BLE001 - must reach the futures
            self._reject(task, exc)
            self._fail(exc)
            return
        with self._stats_lock:
            self.totals.record(result, supergraph)
            if task.session is not None:
                task.session.record(result, supergraph)
        self._settle(task, result, self.engine.take_commit())

    def _settle(self, task: _Task, result: IGQQueryResult, commit: Future | None) -> None:
        """Deliver a result, or hold it until the newest flush is durable.

        ``commit`` is the commit of the flush this query ran, if it ran
        one.  A result computed after a flush whose commit is still
        pending — and any result behind a held one — joins the FIFO that
        :meth:`_release` empties when commits resolve, so results are
        acknowledged in the order they were computed.
        """
        with self._held_lock:
            if commit is not None:
                self._barrier = commit
            barrier = self._barrier
            hold = barrier is not None and (self._held or not barrier.done())
            if hold:
                self._held.append((task, result, barrier))
        if not hold:
            self._deliver(task, result, barrier)
        elif commit is not None:
            commit.add_done_callback(
                partial(_call_weakly, "_release", weakref.ref(self), None)
            )

    def _release(self, commit: Future) -> None:
        """Commit callback: deliver the held results whose commits have
        resolved, in order; a failed commit fails the service (before any
        caller sees the failure on a future)."""
        error = commit.exception()
        if error is not None:
            self._fail(error)
        with self._held_lock:
            held = self._held
            while held and held[0][2].done():
                self._deliver(*held.popleft())

    def _deliver(self, task: _Task, result: IGQQueryResult, commit: Future | None) -> None:
        """Resolve a task's future with its result (or the error of the
        commit it waited for)."""
        error = commit.exception() if commit is not None else None
        if error is not None:
            self._reject(task, error)
            return
        self._finalize(task)
        try:
            if task.deadline is not None and time.monotonic() >= task.deadline:
                # Finished past its deadline before the expiry timer thread
                # got to run: a result is never delivered late.
                task.future.set_exception(self._timeout_error(task))
            else:
                task.future.set_result(result)
        except InvalidStateError:
            # Expired mid-execution: the engine state advanced (and was
            # accounted), but the caller already saw QueryTimeout.
            pass

    def _finalize(self, task: _Task) -> None:
        """Release the task's expiry timer and tenant slot (idempotent)."""
        if task.timer is not None:
            task.timer.cancel()
        self._scheduler.finish(task)

    def _reject(self, task: _Task, error: BaseException) -> None:
        """Finalise a task and fail its future with ``error``."""
        self._finalize(task)
        try:
            task.future.set_exception(error)
        except InvalidStateError:
            pass

    @staticmethod
    def _timeout_error(task: _Task) -> QueryTimeout:
        return QueryTimeout(
            f"query {task.query.name!r} timed out after {task.timeout}s"
        )

    def _expire(self, task: _Task) -> None:
        """Timer callback: the task's deadline passed."""
        removed = self._scheduler.discard(task)
        try:
            task.future.set_exception(self._timeout_error(task))
        except InvalidStateError:
            # Resolved or cancelled concurrently — nothing expired.
            pass
        if removed:
            self._finalize(task)

    def _on_done(self, task: _Task, future: Future) -> None:
        """Future done-callback: reclaim the queue slot of a cancellation."""
        if not future.cancelled():
            return
        if self._scheduler.discard(task):
            self._finalize(task)

    def _fail(self, exc: BaseException) -> None:
        """A query or the journal writer failed: surface the error on every
        queued future and close the service to new submissions."""
        # Publish the error before closing the scheduler: a submitter that
        # races past is_open either lands its task in a queue this drain
        # still empties, or SchedulerClosed makes its submit() raise — it
        # can never be enqueued and orphaned.
        with self._state_lock:
            if self._error is None:
                self._error = exc
        self._scheduler.close()
        while True:
            task = self._scheduler.next()
            if task is None or task is CLOSED:
                return
            self._reject(task, exc)

    def __repr__(self) -> str:
        state = "open" if self.is_open else ("closed" if self._closed else "new")
        return (
            f"<GraphQueryService {state} engine={self.engine.name!r} "
            f"{self.config.describe()}>"
        )
