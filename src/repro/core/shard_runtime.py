"""The shard runtime: where the replicas that hold an engine's indexes live.

A :class:`ShardRuntime` owns one :class:`~repro.core.shard.QueryIndexShard`
per partition, in the engine's process, and fans every probe out across
them.  A window flush reaches the replicas through :meth:`ShardRuntime.sync`,
straight from the flush's report; a warm start through
:meth:`ShardRuntime.restore`.  Every engine has one.
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
        """Apply one window flush: each victim leaves its home replica,
        then each new entry joins its home (``homes`` as
        :meth:`Placement.apply <repro.core.placement.Placement.apply>`
        returned them, victims first)."""
        shards, evicted = self.shards, report.evicted_entries
        for entry, home in zip(evicted, homes):
            shards[home].remove(entry.entry_id)
        for entry, home in zip(report.inserted_entries, homes[len(evicted) :]):
            shards[home].add(entry)

    def restore(self, entries: Iterable[CacheEntry], homes: dict[int, int]) -> None:
        """Warm start: add restored entries to the homes ``homes``
        (``entry_id -> shard``, as the journal recorded them) names."""
        for entry in entries:
            self.shards[homes[entry.entry_id]].add(entry)

    def estimated_size_bytes(self) -> int:
        return sum(shard.estimated_size_bytes() for shard in self.shards)
