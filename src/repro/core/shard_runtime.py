"""The shard runtime: where the replicas that hold an engine's indexes live.

A :class:`ShardRuntime` owns one :class:`~repro.core.shard.QueryIndexShard`
per partition, in the engine's process, and fans every probe out across
them.  A window flush reaches the replicas through :meth:`ShardRuntime.sync`,
straight from the flush's report; a warm start through
:meth:`ShardRuntime.restore`.  Both make one apply call per replica (each
a kernel call per probe table).  Every engine has one.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
from .cache import CacheEntry
from .maintenance import MaintenanceReport
from .shard import QueryIndexShard

__all__ = ["ShardRuntime"]


class ShardRuntime:
    """Shard replicas living in the engine's process.

    Probes run serially and count on the engine's iGQ verifier directly;
    the engine's :class:`~repro.core.placement.Placement` names the replica
    each entry lives on.
    """

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
        """Every replica's hits: ``(Isub hit ids, Isuper hit ids)``, each in
        replica order (the engine sorts the merged lists)."""
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

    def sync(self, report: MaintenanceReport, homes: list[int]) -> None:
        """Apply one window flush: one :meth:`QueryIndexShard.apply
        <repro.core.shard.QueryIndexShard.apply>` per replica it touches,
        whose victims leave it and whose new entries join it (``homes`` as
        :meth:`Placement.apply <repro.core.placement.Placement.apply>`
        returned them, victims first)."""
        evicted_ids = report.evicted_entry_ids
        split = len(evicted_ids)
        self._apply(zip(homes, evicted_ids), zip(homes[split:], report.inserted_entries))

    def restore(self, entries: Iterable[CacheEntry], homes: dict[int, int]) -> None:
        """Warm start: the restored entries join the homes ``homes``
        (``entry_id -> shard``, as the journal recorded them) names, one
        :meth:`QueryIndexShard.apply` per replica."""
        self._apply((), ((homes[entry.entry_id], entry) for entry in entries))

    def _apply(
        self, evicted: Iterable[tuple[int, int]], inserted: Iterable[tuple[int, CacheEntry]]
    ) -> None:
        """Group ``(home, entry id)`` leavers and ``(home, entry)`` joiners
        by home, then apply each replica's share, in order, in one call."""
        shards = self.shards
        leaving: list[list[int]] = [[] for _ in shards]
        joining: list[list[CacheEntry]] = [[] for _ in shards]
        for home, entry_id in evicted:
            leaving[home].append(entry_id)
        for home, entry in inserted:
            joining[home].append(entry)
        for shard, ids, entries in zip(shards, leaving, joining):
            if ids or entries:
                shard.apply(ids, entries)

    def estimated_size_bytes(self) -> int:
        return sum(shard.estimated_size_bytes() for shard in self.shards)
