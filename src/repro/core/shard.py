"""The cache's delta log, its records, and the replica that replays them.

Every engine (:class:`~repro.core.engine.IGQ`) owns one :class:`DeltaLog`.
A window flush (§5.2) runs once, in :meth:`IndexMaintenance.flush
<repro.core.maintenance.IndexMaintenance.flush>`; the engine turns the
flush report into ordered :class:`CacheDelta` records on the log, and
everything else is a reader of ``delta_log.since(cursor)``: the durable
store (:mod:`repro.persist`), the shard runtimes
(:mod:`repro.core.shard_runtime`) and remote followers.

* **Records** — ``insert`` / ``evict`` / ``flush``.  Inserts carry the
  *already compiled* ``CompiledTarget``/``CompiledQueryPlan`` payloads
  built once in the parent, so a replica never recompiles an entry;
  ``flush`` markers carry a monotonically increasing *epoch* (one per
  window flush), so a replica that missed any number of flushes replays
  the log tail instead of being re-snapshotted.  WAL segments pickle these
  classes under this module's path: they must stay importable from here.

* **Net state** — :func:`fold_deltas` is the one definition of what a
  record sequence amounts to (``entry_id -> record``).  Log compaction,
  WAL replay and the snapshot writer all call it.  A replica older than the
  log's compaction floor resets and replays the folded prefix from version
  0 — the only case that degenerates to a rebuild.

* **Partitioning** — the cached queries are split across ``N`` shards by a
  stable hash of their canonical form (:func:`shard_of_key`), so an entry's
  owning shard is a pure function of its graph: routing never changes under
  insert/evict churn and is identical in every process that computes it.

* **Replica** — :class:`QueryIndexShard` holds the two containment indexes
  restricted to the records addressed to it; it lives in the parent
  (inline runtime), in a worker process, or on a remote follower.
  Answers, hit/miss accounting and replacement state are byte-identical
  across all of these configurations.
"""

from __future__ import annotations

import hashlib
import logging
from bisect import bisect_right
from dataclasses import dataclass, replace as dataclass_replace

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
from ..isomorphism.verifier import Verifier
from .isub import SubgraphQueryIndex
from .isuper import SupergraphQueryIndex

__all__ = [
    "BROADCAST",
    "DELTA_INSERT",
    "DELTA_EVICT",
    "DELTA_FLUSH",
    "CacheDelta",
    "DeltaLog",
    "DeltaLogTruncated",
    "ShardEntry",
    "QueryIndexShard",
    "fold_deltas",
    "shard_of_key",
]

logger = logging.getLogger(__name__)

DELTA_INSERT = "insert"
DELTA_EVICT = "evict"
DELTA_FLUSH = "flush"
#: ops that only WALs written before 4.0 contain (hot-key replication and
#: rebalancing); :func:`fold_deltas` still reads them, nothing writes them
_LEGACY_REPLICATE = "replicate"
_LEGACY_MOVE = "move"

#: ``CacheDelta.shard`` of records addressing every shard (flush markers)
BROADCAST = -1


def shard_of_key(key: tuple, num_shards: int) -> int:
    """Owning shard of a canonical graph key — stable across processes.

    Built-in ``hash`` is salted per interpreter, so replicas in different
    processes could disagree; a keyed-less BLAKE2 digest of the key's
    canonical repr is deterministic everywhere.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


@dataclass
class ShardEntry:
    """Replica-side view of one cached query: what a shard needs to probe.

    Deliberately *not* the full :class:`~repro.core.cache.CacheEntry` — the
    answer set and the §5.1 replacement metadata stay authoritative in the
    parent (shards return entry ids, the parent credits its own entries), so
    a delta ships only the graph, its features and the compiled payloads.
    Inside the parent process the referenced objects are shared with the
    cache entry; across a process boundary pickling copies them once.
    """

    entry_id: int
    graph: LabeledGraph
    features: GraphFeatures
    compiled_target: object | None = None
    compiled_plan: object | None = None

    # The containment indexes manage compiled state through these hooks
    # (same protocol as CacheEntry), so replicas release exactly like the
    # parent-side entries do.
    def release_compiled_target(self) -> None:
        """Drop the bitset target payload (mirrors ``CacheEntry``)."""
        self.compiled_target = None

    def release_compiled_plan(self) -> None:
        """Drop the matching-plan payload (mirrors ``CacheEntry``)."""
        self.compiled_plan = None

    def release_compiled(self) -> None:
        """Drop both compiled payloads."""
        self.release_compiled_target()
        self.release_compiled_plan()


@dataclass(frozen=True)
class CacheDelta:
    """One ordered replication record of the sharded query cache."""

    #: global log sequence number (1-based, dense)
    version: int
    #: window-flush generation the record belongs to
    epoch: int
    #: one of :data:`DELTA_INSERT` / :data:`DELTA_EVICT` / :data:`DELTA_FLUSH`
    op: str
    #: addressed shard — the home shard for inserts/evicts, or
    #: :data:`BROADCAST` for flush markers
    shard: int
    entry_id: int | None = None
    entry: ShardEntry | None = None


def record_size_bytes(record: CacheDelta) -> int:
    """Estimated in-memory footprint of one delta record.

    Same per-graph cost model as ``IGQ.index_size_bytes`` (compiled
    payloads excluded — they are shared with the live cache entry, so
    folding a record does not reclaim them).
    """
    size = 96
    entry = record.entry
    if entry is not None:
        graph = entry.graph
        size += 80 + 56 * graph.num_vertices + 48 * graph.num_edges
        size += 40 + 24 * len(entry.features.counts)
    return size


def fold_deltas(live: dict[int, CacheDelta], records) -> dict[int, CacheDelta]:
    """Fold ``records`` (oldest first) into the net state ``entry_id -> record``.

    The one definition of what a record sequence amounts to — log
    compaction, WAL replay and the snapshot writer all call it.  An
    ``insert`` becomes the entry's live record, an ``evict`` drops it, and
    ``flush`` markers fold away.  A WAL written before 4.0 may also hold
    ``replicate`` records (a hot entry's copy — live like an insert, the
    only record of an entry that was born hot) and ``move`` records (a
    re-homing: the live record takes the move's shard and payload, keeping
    its version); a recovered entry then lives at the home the committed
    state names.
    """
    for record in records:
        op = record.op
        if op == DELTA_INSERT or op == _LEGACY_REPLICATE:
            live[record.entry_id] = record
        elif op == DELTA_EVICT:
            live.pop(record.entry_id, None)
        elif op == _LEGACY_MOVE:
            moved = live.get(record.entry_id)
            if moved is not None:
                live[record.entry_id] = dataclass_replace(
                    moved, shard=record.shard, entry=record.entry
                )
        elif op != DELTA_FLUSH:
            raise ValueError(f"unknown delta op {op!r}")
    return live


class DeltaLogTruncated(RuntimeError):
    """A subscriber asked for records older than the compaction floor."""


class DeltaLog:
    """Ordered, compactable log of :class:`CacheDelta` records.

    ``version`` increases by one per record; ``epoch`` increases by one per
    ``flush`` marker.  :meth:`compact` folds a fully-acknowledged prefix
    into its net effect (the inserts still live at the horizon, with their
    original versions), so the log stays bounded on long streams while a
    fresh replica can still bootstrap by replaying from version 0.
    """

    def __init__(self) -> None:
        self._records: list[CacheDelta] = []
        self._version = 0
        self._epoch = 0
        self._floor_version = 0
        #: payload of every entry the log has shown entering and not yet
        #: leaving.  An ``evict`` drops the payload's compiled pointers:
        #: every current reader releases its copy at that record, and a
        #: late one compiles for itself — so the live compiled objects
        #: stay bounded by the cache, not by the compaction cadence.
        self._payloads: dict[int, ShardEntry] = {}
        # Lifetime compaction totals (compact_stats); unlike the engine's
        # per-phase counters these are never reset.
        self._records_folded_total = 0
        self._bytes_reclaimed = 0

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Version of the newest record (0 for an empty log)."""
        return self._version

    @property
    def epoch(self) -> int:
        """Current flush generation."""
        return self._epoch

    @property
    def floor_version(self) -> int:
        """Oldest version a non-fresh subscriber may still replay from."""
        return self._floor_version

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def append_insert(self, shard: int, entry: ShardEntry) -> CacheDelta:
        """Record that ``entry`` entered the cache, owned by ``shard``."""
        return self._append(DELTA_INSERT, shard, entry.entry_id, entry)

    def append_evict(self, shard: int, entry_id: int) -> CacheDelta:
        """Record that the entry ``entry_id`` left its home ``shard``."""
        return self._append(DELTA_EVICT, shard, entry_id)

    def append_flush(self) -> CacheDelta:
        """Close the current flush generation with an epoch marker."""
        self._epoch += 1
        return self._append(DELTA_FLUSH, BROADCAST)

    def _append(self, op, shard, entry_id=None, entry=None) -> CacheDelta:
        self._version += 1
        record = CacheDelta(self._version, self._epoch, op, shard, entry_id, entry)
        self._records.append(record)
        if entry is not None:
            self._payloads[entry_id] = entry
        elif op == DELTA_EVICT:
            payload = self._payloads.pop(entry_id, None)
            if payload is not None:
                payload.release_compiled()
        return record

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def since(self, version: int, shard: int | None = None) -> list[CacheDelta]:
        """Records after ``version``, oldest first.

        ``shard`` filters to the records addressing that shard: its own
        inserts/evicts and every flush marker (markers are broadcast so
        each replica tracks the epoch).  ``version=0`` always means
        "bootstrap from scratch" and is valid on a compacted log — the
        retained prefix is the net state.  Any other version below the
        compaction floor raises :class:`DeltaLogTruncated` (the subscriber
        may hold entries whose eviction records were folded away, so
        replaying the tail cannot repair it).
        """
        if 0 < version < self._floor_version:
            raise DeltaLogTruncated(
                f"version {version} predates the compaction floor "
                f"{self._floor_version}; reset and replay from 0"
            )
        if version >= self._version:
            # The common steady-state case — a subscriber probing between
            # flushes has nothing to replay; skip the scan entirely.
            return []
        # Records are version-sorted, so the tail starts at a bisect.
        start = bisect_right(self._records, version, key=lambda record: record.version)
        records = self._records[start:]
        if shard is None:
            return records
        return [
            record for record in records
            if record.shard == shard or record.op == DELTA_FLUSH
        ]

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, up_to_version: int) -> int:
        """Fold every record up to ``up_to_version`` into its net effect.

        Only call with a version every reader has already applied (the
        engine uses the slowest shard's position; the durable store is
        written before the engine compacts).  The prefix becomes its
        :func:`fold_deltas` net state, retained records keeping their
        original versions.  Returns the number of records removed.
        """
        up_to_version = min(up_to_version, self._version)
        if up_to_version <= self._floor_version:
            return 0
        split = bisect_right(
            self._records, up_to_version, key=lambda record: record.version
        )
        prefix, suffix = self._records[:split], self._records[split:]
        retained = sorted(
            fold_deltas({}, prefix).values(), key=lambda record: record.version
        )
        kept = {id(record) for record in retained}
        self._bytes_reclaimed += sum(
            record_size_bytes(record) for record in prefix if id(record) not in kept
        )
        removed = len(prefix) - len(retained)
        self._records = retained + suffix
        self._floor_version = up_to_version
        self._records_folded_total += removed
        logger.debug(
            "delta log compacted: %d records folded, floor version %d, %d retained",
            removed, up_to_version, len(self._records),
        )
        return removed

    def compact_stats(self) -> dict:
        """Lifetime compaction totals: what folding has bought so far.

        ``records_folded`` and ``bytes_reclaimed`` (the estimated in-memory
        size of the dropped records, same per-graph cost model as
        ``index_size_bytes``) accumulate across every :meth:`compact` call;
        ``floor_version`` is the current replay floor.
        """
        return {
            "records_folded": self._records_folded_total,
            "bytes_reclaimed": self._bytes_reclaimed,
            "floor_version": self._floor_version,
        }


class QueryIndexShard:
    """One replica: a partition of the query index, driven by the delta log.

    Holds the two containment indexes (``Isub``/``Isuper``) over the
    entries routed to this shard — all of them when the engine has one
    shard — plus the replication cursor (``applied_version``/``epoch``).
    Lives in the parent process (inline backend), inside a dedicated worker
    process, or on a remote follower.  The probes look :attr:`isub` /
    :attr:`isuper` up on every call, so a wrapper installed on the
    instance's ``find_supergraphs`` sees every lookup.
    """

    def __init__(
        self,
        shard_id: int,
        verifier: Verifier | None = None,
        enable_isub: bool = True,
        enable_isuper: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.verifier = verifier if verifier is not None else Verifier()
        self.applied_version = 0
        self.epoch = 0
        self._entries: dict[int, ShardEntry] = {}
        #: the ``Isub`` / ``Isuper`` index over this partition (``None`` when
        #: the component is disabled)
        self.isub = SubgraphQueryIndex(self.verifier) if enable_isub else None
        self.isuper = SupergraphQueryIndex(self.verifier) if enable_isuper else None
        self._indexes = [index for index in (self.isub, self.isuper) if index is not None]

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def apply(self, delta: CacheDelta) -> None:
        """Apply one delta; records must arrive in increasing version order."""
        if delta.version <= self.applied_version:
            raise ValueError(
                f"shard {self.shard_id} at version {self.applied_version} "
                f"received stale delta {delta.version}"
            )
        if delta.op == DELTA_FLUSH:
            self.epoch = delta.epoch
        elif delta.op not in (DELTA_INSERT, DELTA_EVICT):
            raise ValueError(f"unknown delta op {delta.op!r}")
        elif delta.shard != self.shard_id:
            raise ValueError(
                f"delta for shard {delta.shard} misrouted to shard {self.shard_id}"
            )
        elif delta.op == DELTA_INSERT:
            self._add(delta.entry)
        elif not self._remove(delta.entry_id):
            raise ValueError(
                f"shard {self.shard_id} cannot evict unknown entry {delta.entry_id}"
            )
        self.applied_version = delta.version

    def _add(self, entry: ShardEntry) -> None:
        self._entries[entry.entry_id] = entry
        for index in self._indexes:
            index.add(entry)

    def _remove(self, entry_id: int) -> bool:
        """Drop ``entry_id``; ``False`` when this replica does not hold it."""
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            return False
        for index in self._indexes:
            index.remove(entry_id)
        # A disabled index would leave its direction unreleased.  Only
        # this instance's pointers drop — the compiled objects stay alive
        # on the parent cache entry and any newer payload.
        entry.release_compiled()
        return True

    def catch_up(self, log: DeltaLog) -> int:
        """Replay every missed record; returns the number applied.

        A replica that fell behind the log's compaction floor resets and
        replays the retained net state from version 0 — the re-snapshot
        fallback; every younger replica replays only the tail, however many
        window flushes it missed.
        """
        try:
            deltas = log.since(self.applied_version, shard=self.shard_id)
        except DeltaLogTruncated:
            self.reset()
            deltas = log.since(0, shard=self.shard_id)
        for delta in deltas:
            self.apply(delta)
        return len(deltas)

    def reset(self) -> None:
        """Drop all replica state (compiled payloads released)."""
        for entry_id in list(self._entries):
            self._remove(entry_id)
        self.applied_version = 0
        self.epoch = 0

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def find_supergraph_ids(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
    ) -> list[int]:
        """Entry ids of this shard's ``Isub`` hits (ascending).

        ``compiled`` is the query's shared compiled state (one plan across
        the lookups of every shard).
        """
        if self.isub is None:
            return []
        return [entry.entry_id for entry in self.isub.find_supergraphs(query, features, compiled)]

    def find_subgraph_ids(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
    ) -> list[int]:
        """Entry ids of this shard's ``Isuper`` hits (ascending)."""
        if self.isuper is None:
            return []
        return [entry.entry_id for entry in self.isuper.find_subgraphs(query, features, compiled)]

    def probe(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None,
        want_sub: bool,
        want_super: bool,
    ) -> tuple[list[int], list[int]]:
        """Both lookups: ``(Isub hit ids, Isuper hit ids)``, each only if wanted."""
        sub_ids = self.find_supergraph_ids(query, features, compiled) if want_sub else []
        super_ids = self.find_subgraph_ids(query, features, compiled) if want_super else []
        return sub_ids, super_ids

    def entry_ids(self) -> list[int]:
        """Ids of the entries this replica currently serves."""
        return sorted(self._entries)

    def estimated_size_bytes(self) -> int:
        """Approximate index-structure size of this shard (Figure 18)."""
        return sum(index.estimated_size_bytes() for index in self._indexes)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<QueryIndexShard id={self.shard_id} entries={len(self._entries)} "
            f"version={self.applied_version} epoch={self.epoch}>"
        )
