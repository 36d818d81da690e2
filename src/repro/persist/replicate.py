"""Remote followers: read-only replicas streaming a leader's delta log.

A follower is a :class:`~repro.core.shard.QueryIndexShard` in another
process (or machine) fed over the PR 9 wire protocol: it polls the
leader's ``log_since`` endpoint, applies the returned tail, and serves
read-only containment probes against its local indexes.  A follower that
fell below the leader's compaction floor receives a typed
``log_truncated`` error and runs the same reset-and-replay fallback the
in-process shards use (:meth:`~repro.core.shard.QueryIndexShard.catch_up`):
drop everything, refetch from version 0 — the compacted net state.

Wire records are *normalised to a single shard*: the follower mirrors the
whole cache, so home-shard assignments collapse to shard 0.  The wire
carries ``insert``, ``evict`` and ``flush`` records; any other op (the
``replicate`` / ``move`` records of a pre-4.0 leader included) is an
``invalid_record`` error.

Compiled payloads never cross the wire; the follower extracts features
locally and its indexes compile on insertion.  Any feature extractor
yields the same *verified* hit sets (features only gate candidates, the
verifier decides), so follower probe results are byte-identical to the
leader's — which :func:`leader_probe_ids` exists to check.
"""

from __future__ import annotations

import logging

from ..core.config import ConfigError, EngineConfig
from ..core.shard import (
    BROADCAST,
    DELTA_EVICT,
    DELTA_FLUSH,
    DELTA_INSERT,
    CacheDelta,
    QueryIndexShard,
    ShardEntry,
)
from ..features.extractor import FeatureExtractor
from ..service import protocol
from ..service.client import connect

logger = logging.getLogger(__name__)

__all__ = [
    "CacheFollower",
    "delta_from_wire",
    "delta_to_wire",
    "leader_probe_ids",
]


def delta_to_wire(record: CacheDelta) -> dict:
    """Serialise one delta record to its JSON wire form.

    Compiled payloads and features are deliberately omitted — they are
    process-local representations; the follower rebuilds both from the
    graph.
    """
    data = {
        "version": record.version,
        "epoch": record.epoch,
        "op": record.op,
        "shard": record.shard,
    }
    if record.entry_id is not None:
        data["entry_id"] = record.entry_id
    if record.entry is not None:
        data["graph"] = protocol.graph_to_dict(record.entry.graph)
    return data


def delta_from_wire(data, extractor: FeatureExtractor) -> CacheDelta:
    """Rebuild a wire record as a follower-shard delta (inserts and
    evicts re-home to shard 0, the one follower shard)."""
    if not isinstance(data, dict):
        raise protocol.ProtocolError(
            f"log record {data!r} is not valid; expected an object",
            code="invalid_record",
            field="record",
        )
    op = data.get("op")
    version = data.get("version")
    epoch = data.get("epoch", 0)
    if not isinstance(version, int) or isinstance(version, bool) or version <= 0:
        raise protocol.ProtocolError(
            f"record.version={version!r} is not valid; expected a positive "
            "integer",
            code="invalid_record",
            field="record.version",
        )
    entry = None
    if data.get("graph") is not None:
        graph = protocol.graph_from_dict(data["graph"], field="record.graph")
        entry = ShardEntry(
            entry_id=data["entry_id"], graph=graph, features=extractor.extract(graph)
        )
    if op == DELTA_INSERT:
        return CacheDelta(
            version=version, epoch=epoch, op=op, shard=0,
            entry_id=data["entry_id"], entry=entry,
        )
    if op == DELTA_EVICT:
        return CacheDelta(
            version=version, epoch=epoch, op=op, shard=0, entry_id=data["entry_id"]
        )
    if op == DELTA_FLUSH:
        return CacheDelta(version=version, epoch=epoch, op=op, shard=BROADCAST)
    raise protocol.ProtocolError(
        f"log record op={op!r} is not valid; expected one of "
        f"{[DELTA_INSERT, DELTA_EVICT, DELTA_FLUSH]}",
        code="invalid_record",
        field="record.op",
    )


class CacheFollower:
    """A remote read-only replica of a served engine's query cache.

    Connects to a leader exposed with :func:`repro.service.server.serve`
    and replays its delta log into a local single-shard index pair (every
    engine has a log to follow).

    >>> follower = CacheFollower(host, port)        # doctest: +SKIP
    >>> follower.poll()                             # doctest: +SKIP
    >>> sub_ids, super_ids = follower.probe(query)  # doctest: +SKIP
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        *,
        tenant: str = "follower",
        verifier=None,
        extractor: FeatureExtractor | None = None,
        client=None,
    ) -> None:
        if client is None:
            if host is None or port is None:
                raise ConfigError(
                    "CacheFollower needs host and port (or an existing client=)"
                )
            client = connect(host, port, tenant=tenant)
            self._owns_client = True
        else:
            self._owns_client = False
        self.client = client
        self.extractor = extractor if extractor is not None else FeatureExtractor()
        self.shard = QueryIndexShard(0, verifier=verifier)
        #: leader log version this follower has caught up to
        self.version = 0
        #: leader flush epoch at the last poll
        self.epoch = 0
        #: reset-and-replay rounds forced by compaction-floor truncation
        self.resets = 0
        self._closed = False

    @classmethod
    def from_config(cls, config: EngineConfig, **kwargs) -> "CacheFollower":
        """Connect to the leader named by ``config.persist.follow``."""
        follow = config.persist.follow
        if follow is None:
            raise ConfigError(
                "persist.follow is not set; expected a 'host:port' leader "
                "address to follow"
            )
        host, _, port = follow.rpartition(":")
        return cls(host, int(port), **kwargs)

    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Fetch and apply the leader's tail; returns records applied.

        Transparently handles a ``log_truncated`` rejection (the follower
        fell below the leader's compaction floor) by resetting and
        replaying the retained net state from version 0.
        """
        try:
            reply = self.client.log_since(self.version)
        except protocol.ProtocolError as exc:
            if exc.code != "log_truncated":
                raise
            logger.warning(
                "follower at version %d fell below the leader's compaction "
                "floor (%s): resetting and replaying from 0",
                self.version, exc,
            )
            self.shard.reset()
            self.version = 0
            self.resets += 1
            reply = self.client.log_since(0)
        applied = 0
        for data in reply.get("records", []):
            self.shard.apply(delta_from_wire(data, self.extractor))
            applied += 1
        self.version = reply.get("version", self.shard.applied_version)
        self.epoch = reply.get("epoch", self.shard.epoch)
        return applied

    def probe(self, query, features=None) -> tuple[list[int], list[int]]:
        """Read-only containment probe: ``(Isub hits, Isuper hits)`` ids.

        Both lists are ascending; features are extracted locally when not
        supplied.
        """
        if features is None:
            features = self.extractor.extract(query)
        return (
            self.shard.find_supergraph_ids(query, features),
            self.shard.find_subgraph_ids(query, features),
        )

    def entry_ids(self) -> list[int]:
        """Every entry id this follower serves."""
        return self.shard.entry_ids()

    def close(self) -> None:
        """Release the follower's connection (when it owns one)."""
        if self._closed:
            return
        self._closed = True
        if self._owns_client:
            self.client.close()

    def __enter__(self) -> "CacheFollower":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.shard)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "following"
        return (
            f"<CacheFollower {state} version={self.version} "
            f"entries={len(self)} resets={self.resets}>"
        )


def leader_probe_ids(engine, query, features=None) -> tuple[list[int], list[int]]:
    """The leader-side hit ids a caught-up follower probe must reproduce:
    every partition probed, each list ascending."""
    if features is None:
        features = engine.method.extract_query_features(query)
    sub_ids, super_ids = engine.shard_runtime.probe(
        query, features, engine.probe_isub, engine.probe_isuper
    )
    return sorted(sub_ids), sorted(super_ids)
