"""The shard runtime: where the replicas that hold an engine's indexes live.

A :class:`ShardRuntime` is a reader of the engine's
:class:`~repro.core.shard.DeltaLog` that owns one
:class:`~repro.core.shard.QueryIndexShard` per partition, in the engine's
process, and fans every probe out across them; the replicas catch up at the
end of each flush.  Every engine has one.
"""

from __future__ import annotations

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
from .shard import DeltaLog, QueryIndexShard

__all__ = ["ShardRuntime"]


class ShardRuntime:
    """Shard replicas living in the engine's process.

    Probes run serially and count on the engine's iGQ verifier directly;
    replication is synchronous (replicas catch up at the end of each
    flush).
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

    def estimated_size_bytes(self) -> int:
        return sum(shard.estimated_size_bytes() for shard in self.shards)

    def close(self) -> None:
        """Nothing to release for in-process replicas."""
