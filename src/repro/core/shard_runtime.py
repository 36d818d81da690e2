"""Shard runtimes: where the replicas that hold an engine's indexes live.

A runtime is a reader of the engine's :class:`~repro.core.shard.DeltaLog`
that owns one :class:`~repro.core.shard.QueryIndexShard` per partition and
fans every probe out across them: in-process replicas under the ``inline``
backend (:class:`_InlineShardRuntime`, caught up at the end of each flush),
or one long-lived single-worker process per shard under the ``process``
backend (:class:`_ProcessShardRuntime`), where the pending log tail rides
along with the next probe and the workers double as verification workers
for the batch executor (:class:`ShardVerifyPool`).  Every engine has one: a
single-shard engine's is an inline runtime over one replica, whatever
``shard.backend`` says.
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ProcessPoolExecutor

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
from .batch import _init_worker, _init_worker_shared, effective_cpu_count
from .shard import CacheDelta, DeltaLog, DeltaLogTruncated, QueryIndexShard

__all__ = ["ShardVerifyPool", "create_shard_runtime"]


def create_shard_runtime(engine, backend: str):
    """The runtime a ``shard.backend`` value names (``"auto"`` resolved here).

    Only more than one shard forks: a single replica is always inline.
    ``"auto"`` is ``"process"`` when the machine can actually run the shard
    workers concurrently and ``"inline"`` otherwise.
    """
    if backend == "auto":
        backend = "process" if effective_cpu_count() > 1 else "inline"
    if backend == "process" and engine.num_shards > 1:
        return _ProcessShardRuntime(engine)
    return _InlineShardRuntime(engine)


# ----------------------------------------------------------------------
# Worker-side state (process backend)
# ----------------------------------------------------------------------
#: per-process shard replica, installed by the pool initializer
_WORKER_SHARD: QueryIndexShard | None = None


def _init_shard_worker(payload: bytes) -> None:
    global _WORKER_SHARD
    config = pickle.loads(payload)
    _WORKER_SHARD = QueryIndexShard(
        config["shard_id"],
        verifier=config["verifier"],
        enable_isub=config["enable_isub"],
        enable_isuper=config["enable_isuper"],
    )
    # The same long-lived process also serves dataset verification chunks
    # for the batch executor, so install the method snapshot the way the
    # executor's own pool initializers would: by attaching to the published
    # shared-memory segment when one exists, else from the pickle bytes.
    if config.get("method_handle") is not None:
        _init_worker_shared(config["method_handle"])
    elif config["method_payload"] is not None:
        _init_worker(config["method_payload"])


def _shard_probe(
    deltas: list[CacheDelta],
    reset: bool,
    query: LabeledGraph,
    features: GraphFeatures,
    want_sub: bool,
    want_super: bool,
) -> tuple[list[int], list[int], int, int, float, str]:
    """Worker entry point: catch up on the log tail, then probe.

    Returns the two hit-id lists plus the verifier-stat deltas of the probe
    (positives, negatives, seconds — folded back by the parent so the §4
    containment-test accounting stays byte-identical to the inline path)
    and the kernel backend this worker process resolved (kernel resolution
    is per process: a shard worker that cannot load the native library
    falls back to ``"bigint"`` locally, and the parent surfaces that
    through ``shard_stats()["worker_kernels"]``).
    """
    shard = _WORKER_SHARD
    if reset:
        shard.reset()
    for delta in deltas:
        shard.apply(delta)
    stats = shard.verifier.stats
    positives, negatives, seconds = stats.positives, stats.negatives, stats.total_seconds
    compiled = CompiledQuery(query)  # the parent's does not cross the pipe
    sub_ids, super_ids = shard.probe(query, features, compiled, want_sub, want_super)
    return (
        sub_ids,
        super_ids,
        stats.positives - positives,
        stats.negatives - negatives,
        stats.total_seconds - seconds,
        shard.verifier.resolved_kernel_name(),
    )


class _PoolLoadTracker:
    """In-flight task counts per shard pool, shared by probes and chunks.

    ``acquire()`` picks the least-loaded pool (ties broken by a rotating
    cursor so equal-load pools still alternate); ``acquire(index)`` records
    a task routed by affinity (a shard probe must run on its own shard's
    pool).  Counts are decremented from future done-callbacks, so the lock
    only guards the counter array.
    """

    def __init__(self, size: int) -> None:
        self._counts = [0] * size
        self._next = 0
        self._lock = threading.Lock()

    def acquire(self, index: int | None = None) -> int:
        with self._lock:
            size = len(self._counts)
            if index is None:
                best_count = None
                index = self._next
                for offset in range(size):
                    candidate = (self._next + offset) % size
                    count = self._counts[candidate]
                    if best_count is None or count < best_count:
                        best_count = count
                        index = candidate
                self._next = (index + 1) % size
            self._counts[index] += 1
            return index

    def release(self, index: int) -> None:
        with self._lock:
            self._counts[index] -= 1


class ShardVerifyPool:
    """Executor facade spreading verification chunks over the shard pools.

    The batch executor talks to one object with ``submit``; routing prefers
    the least-loaded per-shard single-worker pool (shard probes in flight
    count toward a pool's load, since they share its one worker), falling
    back to round-robin order among equally loaded pools.  The processes
    already hold the method snapshot.  Lifetime belongs to the engine's
    runtime, so ``shutdown`` is a no-op.

    Trade-off: probes and verification chunks share the same single-worker
    queues, so with ``pipeline=True`` the speculative probe of query *i+1*
    waits behind query *i*'s verification chunks — the planner overlap of
    the single-shard process pool does not materialise here.  Results and
    accounting are unaffected; workloads that need both the overlap and
    sharded probing should give the executor its own pool
    (``shard.backend="inline"`` plus a process-backed executor).
    """

    def __init__(
        self, pools: list[ProcessPoolExecutor], tracker: _PoolLoadTracker | None = None
    ) -> None:
        self._pools = pools
        self._tracker = tracker if tracker is not None else _PoolLoadTracker(len(pools))

    def submit(self, fn, /, *args, **kwargs):
        """Schedule ``fn`` on the least-loaded shard pool."""
        index = self._tracker.acquire()
        future = self._pools[index].submit(fn, *args, **kwargs)
        future.add_done_callback(lambda _, i=index: self._tracker.release(i))
        return future

    def shutdown(self, wait: bool = True) -> None:
        """No-op: the owning engine closes the real pools."""



class _InlineShardRuntime:
    """Shard replicas living in the parent process.

    Probes run serially and count on the parent's iGQ verifier directly;
    replication is synchronous (replicas catch up at the end of each
    flush).  The runtime of every single-shard engine, and the 1-CPU
    fallback of ``shard.backend="auto"``.
    """

    backend = "inline"

    def __init__(self, engine) -> None:
        self.shards = [
            QueryIndexShard(
                shard_id,
                verifier=engine.igq_verifier,
                enable_isub=engine.probe_isub,
                enable_isuper=engine.probe_isuper,
            )
            for shard_id in range(engine.num_shards)
        ]

    def probe(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        want_sub: bool,
        want_super: bool,
        compiled: CompiledQuery | None = None,
    ) -> tuple[list[int], list[int]]:
        sub_ids: list[int] = []
        super_ids: list[int] = []
        # The query-side compiled form (plan for Isub, target for Isuper) is
        # shared across the partitions: compiled lazily by the first shard
        # that needs it, reused by the rest and by the engine's later
        # stages — one compile per direction per query.
        if compiled is None:
            compiled = CompiledQuery(query)
        for shard in self.shards:
            shard_sub, shard_super = shard.probe(query, features, compiled, want_sub, want_super)
            sub_ids += shard_sub
            super_ids += shard_super
        return sub_ids, super_ids

    def sync(self, log: DeltaLog) -> None:
        for shard in self.shards:
            shard.catch_up(log)

    def progress(self) -> int:
        return min(shard.applied_version for shard in self.shards)

    def worker_kernels(self) -> dict[int, str]:
        """Kernel backend per shard — inline replicas share the parent's."""
        resolved = self.shards[0].verifier.resolved_kernel_name() if self.shards else None
        return {shard.shard_id: resolved for shard in self.shards}

    def verify_pool(self) -> ShardVerifyPool | None:
        return None

    def estimated_size_bytes(self) -> int:
        return sum(shard.estimated_size_bytes() for shard in self.shards)

    def close(self) -> None:
        """Nothing to release for in-process replicas."""


class _ProcessShardRuntime:
    """One long-lived single-worker process per shard, fed by the delta log.

    Tasks submitted to a single-worker pool execute in order, so the parent
    ships each shard the log tail it has not yet seen together with the
    next probe — no acknowledgement round-trip is needed, and a worker that
    missed several window flushes replays them before probing.  The worker
    processes double as dataset-verification workers for the batch executor
    (:meth:`verify_pool`).
    """

    backend = "process"

    def __init__(self, engine) -> None:
        self._engine = engine
        self._pools: list[ProcessPoolExecutor] | None = None
        self._shipped = [0] * engine.num_shards
        self._needs_reset = [False] * engine.num_shards
        self._acquired_mode: str | None = None
        #: in-flight counts shared with the batch executor's verify pool, so
        #: chunk routing sees probe load and vice versa
        self._tracker = _PoolLoadTracker(engine.num_shards)
        #: kernel backend each shard worker reported with its last probe
        #: (kernel resolution is per process; see ``worker_kernels()``)
        self._worker_kernels: dict[int, str] = {}

    # ------------------------------------------------------------------
    def _ensure_pools(self) -> list[ProcessPoolExecutor]:
        if self._pools is None:
            engine = self._engine
            method_payload = None
            method_handle = None
            if engine.method.database is not None:
                # Mixed-mode engines precompile both verification directions
                # into the snapshot; fixed-mode ones only their own.  Publish
                # the snapshot once through shared memory so every shard
                # worker attaches to the same segment; without shared memory
                # each per-shard config carries its own pickle copy.
                method_handle = engine.method.acquire_shared_payload(mode=engine.mode)
                if method_handle is not None:
                    self._acquired_mode = engine.mode
                else:
                    method_payload = engine.method.verification_payload(mode=engine.mode)
            verifier = engine.igq_verifier.fresh_clone()
            # Stamp the parent's kernel resolution onto the shipped clone;
            # each shard worker re-resolves locally and reports its own name
            # with every probe (see _shard_probe / worker_kernels()).
            verifier.parent_resolved_kernel = engine.igq_verifier.resolved_kernel_name()
            self._pools = []
            for shard_id in range(engine.num_shards):
                payload = pickle.dumps(
                    {
                        "shard_id": shard_id,
                        "verifier": verifier,
                        "enable_isub": engine.probe_isub,
                        "enable_isuper": engine.probe_isuper,
                        "method_payload": method_payload,
                        "method_handle": method_handle,
                    },
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                self._pools.append(
                    ProcessPoolExecutor(
                        max_workers=1,
                        initializer=_init_shard_worker,
                        initargs=(payload,),
                    )
                )
        return self._pools

    def probe(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        want_sub: bool,
        want_super: bool,
        compiled: CompiledQuery | None = None,
    ) -> tuple[list[int], list[int]]:
        # ``compiled`` stays in the parent: each worker compiles the query
        # for its own partition (compiled forms do not cross the pipe).
        pools = self._ensure_pools()
        log = self._engine.delta_log
        futures = []
        for shard_id, pool in enumerate(pools):
            reset = self._needs_reset[shard_id]
            try:
                deltas = log.since(self._shipped[shard_id], shard=shard_id)
            except DeltaLogTruncated:
                reset = True
                deltas = log.since(0, shard=shard_id)
            self._shipped[shard_id] = log.version
            self._needs_reset[shard_id] = False
            self._tracker.acquire(shard_id)
            future = pool.submit(
                _shard_probe, deltas, reset, query, features, want_sub, want_super
            )
            future.add_done_callback(
                lambda _, i=shard_id: self._tracker.release(i)
            )
            futures.append(future)
        sub_ids: list[int] = []
        super_ids: list[int] = []
        stats = self._engine.igq_verifier.stats
        try:
            for shard_id, future in enumerate(futures):
                shard_sub, shard_super, positives, negatives, seconds, kernel = (
                    future.result()
                )
                sub_ids.extend(shard_sub)
                super_ids.extend(shard_super)
                stats.tests += positives + negatives
                stats.positives += positives
                stats.negatives += negatives
                stats.total_seconds += seconds
                self._worker_kernels[shard_id] = kernel
        except BaseException:
            # The deltas were optimistically marked shipped at submit time;
            # if any worker failed we can no longer tell which replicas
            # applied them, so force a reset-and-replay on the next probe
            # instead of silently serving from a desynced partition.
            self._shipped = [0] * self._engine.num_shards
            self._needs_reset = [True] * self._engine.num_shards
            raise
        return sub_ids, super_ids

    def sync(self, log: DeltaLog) -> None:
        """Replication is lazy: pending records ship with the next probe."""

    def progress(self) -> int:
        return min(self._shipped)

    def worker_kernels(self) -> dict[int, str]:
        """Kernel backend each shard worker last reported (by shard id).

        Empty until the first probe round-trip; thereafter one entry per
        probed worker.  A worker process that could not load the native
        library shows up as ``"bigint"`` here even when the parent resolved
        ``"native"`` — the mixed dict is the observable signal of a
        heterogeneous (and silently slower) pool.
        """
        return dict(self._worker_kernels)

    def verify_pool(self) -> ShardVerifyPool | None:
        return ShardVerifyPool(self._ensure_pools(), self._tracker)

    def estimated_size_bytes(self) -> int:
        """Replica indexes live in the workers; report only parent-side state."""
        return 0

    def close(self) -> None:
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._pools = None
            self._shipped = [0] * self._engine.num_shards
            self._needs_reset = [True] * self._engine.num_shards
        if self._acquired_mode is not None:
            self._engine.method.release_shared_payload(self._acquired_mode)
            self._acquired_mode = None

