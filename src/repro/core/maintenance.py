"""Windowed maintenance of the iGQ cache (§5.2 of the paper).

New queries are not folded into the iGQ index one by one.  They accumulate in
a temporary store ``Itemp`` (the *query window*, of size ``W``); when the
window fills up the maintenance step

1. consults the metadata to find the lowest-utility cached graphs (only as
   many as needed to respect the cache capacity ``C``),
2. removes them from the graph store, and
3. inserts the windowed queries into it,

so index updates stay batched per window and never interleave with a query.
:meth:`IndexMaintenance.flush` is that step, and it touches the
:class:`~repro.core.cache.QueryCache` only.  Its :class:`MaintenanceReport`
names the victims and the new entries; the engine writes them to its
:class:`~repro.core.shard.DeltaLog`, and the two component indexes change
only when a replica replays those records (``remove`` per victim, ``add``
per windowed query — one inline replica at ``shards=1``).  The paper builds
a *shadow* index and swaps it in so that concurrent readers are never
blocked; replaying the window in place costs O(``W`` x entry features), not
O(``C``), and is equivalent to the swap because planning, completion and the
flush all run on the one driver thread: no lookup can observe a
half-applied window (the pipelined planner re-plans its speculative query
after a flush), and the resulting index contents are exactly those a
rebuild over the updated cache would produce.

Compiled-state lifecycle: an entry's compiled representations
(``CompiledTarget`` / ``CompiledQueryPlan``) are the ones its query was
probed and verified with, carried through the window on the
:class:`PendingQuery`; a form no stage needed is built when the engine
writes the entry to the log.  They are kept untouched while the entry
survives later flushes and released when it is evicted (the cache entry's
pointers by :meth:`QueryCache.remove`, the delta log's payload copy by the
``evict`` record) — so each query is compiled at most once per direction,
and the number of live compiled objects stays bounded by the cache capacity
plus one window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from .cache import CacheEntry, QueryCache
from .replacement import ReplacementPolicy, UtilityReplacementPolicy

__all__ = ["PendingQuery", "MaintenanceReport", "IndexMaintenance"]


@dataclass
class PendingQuery:
    """A processed query waiting in the window (``Itemp``)."""

    graph: LabeledGraph
    features: GraphFeatures
    answer: frozenset
    tags: dict = field(default_factory=dict)
    #: the compiled forms the query's own probes and verification built (or
    #: ``None``); the cache entry inherits them, so the flush compiles only
    #: what no stage needed
    compiled_target: object | None = None
    compiled_plan: object | None = None

    def add_to(self, cache: QueryCache):
        """Insert this query into ``cache``; returns the new entry."""
        return cache.add(
            self.graph,
            self.features,
            self.answer,
            tags=self.tags,
            compiled_target=self.compiled_target,
            compiled_plan=self.compiled_plan,
        )


@dataclass
class MaintenanceReport:
    """What one maintenance (window flush) step did."""

    inserted: int = 0
    evicted: int = 0
    evicted_entry_ids: list[int] = field(default_factory=list)
    cache_size_after: int = 0
    #: the victims (already removed, compiled state released) in eviction
    #: order and the windowed queries as cache entries in window order: the
    #: engine turns them into the flush's delta-log records, so nothing
    #: downstream rediscovers what left and what arrived — and then empties
    #: both lists, because a report lives on with its query's result and
    #: must not keep evicted graphs, features and answer sets alive
    evicted_entries: list[CacheEntry] = field(default_factory=list)
    inserted_entries: list[CacheEntry] = field(default_factory=list)


class IndexMaintenance:
    """Window buffer + batched replacement for the iGQ cache."""

    def __init__(
        self,
        cache_size: int = 500,
        window_size: int = 100,
        policy: ReplacementPolicy | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        if window_size < 1:
            raise ValueError("window_size must be positive")
        if window_size > cache_size:
            raise ValueError("window_size cannot exceed cache_size (W <= C)")
        self.cache_size = cache_size
        self.window_size = window_size
        self.policy = policy if policy is not None else UtilityReplacementPolicy()
        self._window: list[PendingQuery] = []

    # ------------------------------------------------------------------
    @property
    def window_fill(self) -> int:
        """Number of queries currently waiting in the window."""
        return len(self._window)

    def submit(self, pending: PendingQuery) -> bool:
        """Add a processed query to the window; True if the window is full."""
        self._window.append(pending)
        return len(self._window) >= self.window_size

    def flush(self, cache: QueryCache) -> MaintenanceReport:
        """Apply the windowed queries to the cache.

        The one victim-selection and cache-mutation loop of the system.
        Evicts exactly as many lowest-utility entries as needed to keep the
        cache within its capacity after the insertions (during warm-up, when
        the cache is not yet full, nothing is evicted).  The indexes are not
        touched: the engine derives the flush's delta records from the
        returned report, and the replicas replay them.
        """
        report = MaintenanceReport()
        window, self._window = self._window, []
        overflow = len(cache) + len(window) - self.cache_size
        if window and overflow > 0:
            for entry_id in self.policy.select_victims(cache, overflow):
                report.evicted_entries.append(cache.remove(entry_id))
                report.evicted_entry_ids.append(entry_id)
        for pending in window:
            report.inserted_entries.append(pending.add_to(cache))
        report.inserted = len(window)
        report.evicted = len(report.evicted_entry_ids)
        report.cache_size_after = len(cache)
        return report
