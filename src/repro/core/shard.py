"""Sharded query cache with delta-replicated compiled state.

The single-shard engine keeps the whole query index — cache entries, the two
containment indexes, and every per-entry compiled payload — in one process,
and worker pools only ever receive a one-shot immutable snapshot of the
*dataset* state.  That is fine while the query-index state never leaves the
parent, but it blocks two scaling moves the ROADMAP asks for: probing the
(CPU-heavy) containment indexes concurrently, and eventually serving the
cache from separate processes or machines.  This module supplies both in one
architecture:

* **Partitioning** — the cached queries are split across ``N`` shards by a
  stable hash of their canonical form (:func:`shard_of_key`), so an entry's
  owning shard is a pure function of its graph: routing never changes under
  insert/evict churn and is identical in every process that computes it.

* **Delta replication** — shards are kept coherent through an ordered
  :class:`DeltaLog` of :class:`CacheDelta` records (``insert`` / ``evict`` /
  ``flush``).  Insert deltas carry the *already compiled*
  ``CompiledTarget``/``CompiledQueryPlan`` payloads built once in the
  parent, so a shard never recompiles an entry; ``flush`` markers carry a
  monotonically increasing *epoch* (one per window flush), so a replica that
  missed any number of flushes simply replays the log tail instead of being
  re-snapshotted.  A replica older than the log's compaction floor resets
  and replays from the beginning — the only case that degenerates to a
  rebuild.

* **Hot-key replication and rebalancing** — static canonical-key partitions
  send every probe for a popular query to the same shard, so a Zipf-skewed
  stream saturates one partition while the rest idle.  With
  ``shard.hot_threshold`` set, the parent counts per-entry probe hits and,
  at the next window flush, emits ``replicate`` records installing the hot
  entries' already-compiled payloads on other shards (all of them, or a
  ``replication_factor``-sized holder group), while per-partition feature
  summaries let each probe *skip* shards whose partition provably cannot
  contain a hit — exactly one shard containment-tests each live entry per
  probe, so answers and accounting stay byte-identical.
  ``shard.rebalance_interval`` additionally emits ``move`` records shifting
  cold entries from the hottest partition to the coldest at flush
  boundaries, so partitions equalise under topic drift.  Both knobs default
  to off, which reproduces the static-partition behaviour (and its delta
  stream) byte-for-byte.

* **Execution** — :class:`ShardedIGQ` is a drop-in :class:`IGQ` engine.
  With ``shards=1`` it *is* today's engine (the A/B baseline: same code
  paths, no delta log; its window flush evicts and inserts on the one live
  index pair).  With ``shards>1`` the window flush emits deltas that the
  replicas apply with the same ``add``/``remove`` primitives — either way
  flush cost is proportional to the window, not the capacity — and every
  probe fans out across the shards: in-process replicas under the ``inline``
  backend, or one long-lived single-worker process per shard under the
  ``process`` backend, where each worker subscribes to the delta log —
  pending records ride along with the next probe — and doubles as a
  verification worker for the batch executor (its one-shot snapshot now
  carries only dataset state).  Answers, hit/miss accounting and replacement
  state are byte-identical across all of these configurations.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace as dataclass_replace

from ..features.canonical import canonical_graph_key
from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery, compile_query_plan, compile_target
from ..isomorphism.verifier import Verifier
from .batch import _init_worker, _init_worker_shared, effective_cpu_count
from .cache import CacheEntry
from .config import EngineConfig
from .engine import IGQ
from .isub import SubgraphQueryIndex
from .isuper import SupergraphQueryIndex
from .maintenance import MaintenanceReport

__all__ = [
    "SHARD_BACKENDS",
    "DELTA_INSERT",
    "DELTA_EVICT",
    "DELTA_FLUSH",
    "DELTA_REPLICATE",
    "DELTA_MOVE",
    "CacheDelta",
    "DeltaLog",
    "DeltaLogTruncated",
    "ShardEntry",
    "QueryIndexShard",
    "ShardVerifyPool",
    "ShardedIGQ",
    "shard_of_key",
]

#: accepted ``shard_backend`` values; ``"auto"`` resolves to ``"process"``
#: when the machine can actually run the shard workers concurrently and to
#: ``"inline"`` otherwise
SHARD_BACKENDS = ("auto", "inline", "process")

DELTA_INSERT = "insert"
DELTA_EVICT = "evict"
DELTA_FLUSH = "flush"
#: install a hot entry's compiled payload on shards beyond its home
DELTA_REPLICATE = "replicate"
#: transfer a (non-replicated) entry from one home partition to another
DELTA_MOVE = "move"

#: ``CacheDelta.shard`` value of records addressing every shard (flush
#: markers, replicate records, and evictions of replicated entries —
#: optionally narrowed by ``CacheDelta.targets``)
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
    #: / :data:`DELTA_REPLICATE` / :data:`DELTA_MOVE`
    op: str
    #: addressed shard — the owning shard for inserts/evicts, the
    #: *destination* shard for moves, or :data:`BROADCAST`
    shard: int
    entry_id: int | None = None
    entry: ShardEntry | None = None
    #: the shard a ``move`` record transfers the entry away from (the
    #: record addresses both ``src_shard`` and ``shard``)
    src_shard: int | None = None
    #: for :data:`BROADCAST` records, the shards actually addressed
    #: (``None`` = all of them); a ``replication_factor`` below the shard
    #: count narrows replicate records (and the matching evictions) to the
    #: entry's holder group
    targets: tuple[int, ...] | None = None


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
    if record.targets is not None:
        size += 8 * len(record.targets)
    return size


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
        return self._append(
            CacheDelta(
                version=self._version + 1,
                epoch=self._epoch,
                op=DELTA_INSERT,
                shard=shard,
                entry_id=entry.entry_id,
                entry=entry,
            )
        )

    def append_evict(
        self, shard: int, entry_id: int, targets: tuple[int, ...] | None = None
    ) -> CacheDelta:
        """Record that the entry ``entry_id`` left the cache.

        ``shard`` is the entry's home shard, or :data:`BROADCAST` for a
        replicated entry (every holder drops its copy; ``targets`` narrows
        the broadcast to the holder group when the entry was replicated
        with a factor below the shard count).
        """
        return self._append(
            CacheDelta(
                version=self._version + 1,
                epoch=self._epoch,
                op=DELTA_EVICT,
                shard=shard,
                entry_id=entry_id,
                targets=targets,
            )
        )

    def append_replicate(
        self, entry: ShardEntry, targets: tuple[int, ...] | None = None
    ) -> CacheDelta:
        """Record that ``entry`` went hot: install it on the target shards.

        The payload carries the compiled state built once in the parent, so
        no holder recompiles; on the entry's home shard the record also
        retires the home-partition copy (the entry is served from the
        replica store everywhere from now on, by exactly one covering shard
        per probe).
        """
        return self._append(
            CacheDelta(
                version=self._version + 1,
                epoch=self._epoch,
                op=DELTA_REPLICATE,
                shard=BROADCAST,
                entry_id=entry.entry_id,
                entry=entry,
                targets=targets,
            )
        )

    def append_move(
        self, entry: ShardEntry, src_shard: int, dst_shard: int
    ) -> CacheDelta:
        """Record a rebalance transfer of ``entry`` between home partitions.

        Addresses both sides: ``src_shard`` drops its copy, ``dst_shard``
        installs the carried payload.  The payload keeps bootstrap-from-0
        replays compile-free even after the source copy released its
        instance pointers.
        """
        return self._append(
            CacheDelta(
                version=self._version + 1,
                epoch=self._epoch,
                op=DELTA_MOVE,
                shard=dst_shard,
                entry_id=entry.entry_id,
                entry=entry,
                src_shard=src_shard,
            )
        )

    def append_flush(self) -> CacheDelta:
        """Close the current flush generation with an epoch marker."""
        self._epoch += 1
        return self._append(
            CacheDelta(
                version=self._version + 1,
                epoch=self._epoch,
                op=DELTA_FLUSH,
                shard=BROADCAST,
            )
        )

    def _append(self, record: CacheDelta) -> CacheDelta:
        self._records.append(record)
        self._version = record.version
        return record

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def since(self, version: int, shard: int | None = None) -> list[CacheDelta]:
        """Records after ``version``, oldest first.

        ``shard`` filters to the records addressing that shard: its own
        inserts/evicts, moves it is the source or destination of, broadcast
        records whose ``targets`` include it (or are unrestricted), and
        every flush marker (markers are broadcast so each replica tracks
        the epoch).  ``version=0`` always means "bootstrap from scratch"
        and is valid on a compacted log — the retained prefix is the net
        state.  Any other version below the compaction floor raises
        :class:`DeltaLogTruncated` (the subscriber may hold entries whose
        eviction records were folded away, so replaying the tail cannot
        repair it).
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
        return [record for record in records if self._addresses(record, shard)]

    @staticmethod
    def _addresses(record: CacheDelta, shard: int) -> bool:
        """Does ``record`` address ``shard``? (the ``since`` filter)"""
        if record.op == DELTA_FLUSH:
            return True
        if record.src_shard == shard:
            return True
        if record.shard == BROADCAST:
            return record.targets is None or shard in record.targets
        return record.shard == shard

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, up_to_version: int) -> int:
        """Fold every record up to ``up_to_version`` into its net effect.

        Only call with a version every subscriber has already applied (the
        sharded engine uses the minimum shipped version).  Insert records
        whose entry is still live at the horizon are retained with their
        original versions; matched insert/evict pairs and flush markers in
        the prefix are dropped.  A ``move`` folds into its entry's retained
        insert (home shard and payload rewritten — the move's payload, not
        the original, because the source replica released the original
        instance's compiled pointers on transfer).  A ``replicate``
        supersedes its entry's insert outright: replaying the replicate
        alone reinstalls the entry in every holder's replica store, which
        *is* the net state of a hot entry.  Returns the number of records
        removed.
        """
        up_to_version = min(up_to_version, self._version)
        if up_to_version <= self._floor_version:
            return 0
        live: dict[int, CacheDelta] = {}
        replicated: dict[int, CacheDelta] = {}
        suffix: list[CacheDelta] = []
        for record in self._records:
            if record.version > up_to_version:
                suffix.append(record)
            elif record.op == DELTA_INSERT:
                live[record.entry_id] = record
            elif record.op == DELTA_EVICT:
                live.pop(record.entry_id, None)
                replicated.pop(record.entry_id, None)
            elif record.op == DELTA_MOVE:
                insert = live.get(record.entry_id)
                if insert is not None:
                    live[record.entry_id] = dataclass_replace(
                        insert, shard=record.shard, entry=record.entry
                    )
            elif record.op == DELTA_REPLICATE:
                replicated[record.entry_id] = record
                live.pop(record.entry_id, None)
        retained = sorted(
            list(live.values()) + list(replicated.values()),
            key=lambda r: r.version,
        )
        kept = {id(record) for record in retained}
        self._bytes_reclaimed += sum(
            record_size_bytes(record)
            for record in self._records
            if record.version <= up_to_version and id(record) not in kept
        )
        removed = len(self._records) - len(retained) - len(suffix)
        self._records = retained + suffix
        self._floor_version = up_to_version
        self._records_folded_total += removed
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


class ReplicaGroup:
    """One physical copy of the replicated-entry indexes, shared by shards.

    Replicated entries are by definition identical on every holder, so
    co-resident shards (the inline backend) would otherwise maintain
    ``num_shards`` copies of every hot entry's index state — and pay
    ``num_shards`` index insertions per replicate record.  Shards attached
    to a group bind their replica store and index pair to the group's;
    :meth:`QueryIndexShard.apply` installs a replicate record only for the
    first member that sees it and removal is already lenient, so replay
    stays correct record-by-record.  Cross-process shards cannot share
    memory and simply run without a group (one copy per worker).
    """

    def __init__(
        self,
        verifier: Verifier,
        enable_isub: bool = True,
        enable_isuper: bool = True,
    ) -> None:
        self.replicas: dict[int, ShardEntry] = {}
        self.isub = SubgraphQueryIndex(verifier) if enable_isub else None
        self.isuper = SupergraphQueryIndex(verifier) if enable_isuper else None
        #: the member that accounts for the shared structures (sizes)
        self.owner: int | None = None

    def clear(self) -> None:
        """Drop every replica *in place* (member index references stay valid).

        Idempotent: a reset wave hits every member in turn, and each
        member's replay from version 0 reinstalls the same replicate
        records, so clearing on each reset converges to the right state.
        """
        for entry_id in list(self.replicas):
            entry = self.replicas.pop(entry_id)
            if self.isub is not None:
                self.isub.remove(entry_id)
            if self.isuper is not None:
                self.isuper.remove(entry_id)
            entry.release_compiled()


class QueryIndexShard:
    """One replica: a partition of the query index, driven by the delta log.

    Holds the same two containment indexes the single-shard engine uses,
    restricted to the entries routed to this shard, plus the replication
    cursor (``applied_version``/``epoch``).  Replicated (hot) entries live
    in a *second* index pair — the replica store, optionally shared with
    co-resident shards through a :class:`ReplicaGroup` — so home-partition
    probes never walk them and a covering probe can be restricted to
    exactly the replicas assigned to this shard.  Lives either in the
    parent process (inline backend) or inside a dedicated worker process.
    """

    def __init__(
        self,
        shard_id: int,
        verifier: Verifier | None = None,
        enable_isub: bool = True,
        enable_isuper: bool = True,
        replica_group: ReplicaGroup | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.verifier = verifier if verifier is not None else Verifier()
        self.enable_isub = enable_isub
        self.enable_isuper = enable_isuper
        self.applied_version = 0
        self.epoch = 0
        self._entries: dict[int, ShardEntry] = {}
        self._replica_group = replica_group
        if replica_group is not None and replica_group.owner is None:
            replica_group.owner = shard_id
        self._make_indexes()

    def _make_indexes(self) -> None:
        self.isub = SubgraphQueryIndex(self.verifier) if self.enable_isub else None
        self.isuper = SupergraphQueryIndex(self.verifier) if self.enable_isuper else None
        group = self._replica_group
        if group is not None:
            self._replicas = group.replicas
            self.replica_isub = group.isub
            self.replica_isuper = group.isuper
            return
        self._replicas = {}
        self.replica_isub = SubgraphQueryIndex(self.verifier) if self.enable_isub else None
        self.replica_isuper = (
            SupergraphQueryIndex(self.verifier) if self.enable_isuper else None
        )

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
        elif delta.op == DELTA_INSERT:
            if delta.shard != self.shard_id:
                raise ValueError(
                    f"delta for shard {delta.shard} misrouted to shard {self.shard_id}"
                )
            self._install_home(delta.entry)
        elif delta.op == DELTA_EVICT:
            if delta.shard == BROADCAST:
                # Replicated-entry eviction: drop whichever copy this
                # holder has (home copy too, for a pre-compaction replay
                # where the original insert precedes the replicate).
                # Absence is fine — targets may over-approximate after a
                # reset, and non-holding shards simply no-op.
                self._remove_home(delta.entry_id)
                self._remove_replica(delta.entry_id)
            else:
                entry = self._remove_home(delta.entry_id)
                if entry is None:
                    raise ValueError(
                        f"shard {self.shard_id} cannot evict unknown entry "
                        f"{delta.entry_id}"
                    )
        elif delta.op == DELTA_REPLICATE:
            if delta.targets is not None and self.shard_id not in delta.targets:
                raise ValueError(
                    f"replicate delta for shards {delta.targets} misrouted "
                    f"to shard {self.shard_id}"
                )
            # The home copy (if this is the entry's home shard) retires:
            # the entry is served from the replica stores only, by exactly
            # one covering shard per probe.
            self._remove_home(delta.entry_id)
            entry = delta.entry
            # With a shared ReplicaGroup another member may have installed
            # this very record already; one physical copy is the point.
            if entry.entry_id not in self._replicas:
                self._replicas[entry.entry_id] = entry
                if self.replica_isub is not None:
                    self.replica_isub.add(entry)
                if self.replica_isuper is not None:
                    self.replica_isuper.add(entry)
        elif delta.op == DELTA_MOVE:
            if delta.src_shard == self.shard_id:
                entry = self._remove_home(delta.entry_id)
                if entry is None:
                    raise ValueError(
                        f"shard {self.shard_id} cannot move out unknown entry "
                        f"{delta.entry_id}"
                    )
            elif delta.shard == self.shard_id:
                self._install_home(delta.entry)
            else:
                raise ValueError(
                    f"move delta {delta.src_shard}->{delta.shard} misrouted "
                    f"to shard {self.shard_id}"
                )
        else:
            raise ValueError(f"unknown delta op {delta.op!r}")
        self.applied_version = delta.version

    def _install_home(self, entry: ShardEntry) -> None:
        self._entries[entry.entry_id] = entry
        if self.isub is not None:
            self.isub.add(entry)
        if self.isuper is not None:
            self.isuper.add(entry)

    def _remove_home(self, entry_id: int) -> ShardEntry | None:
        entry = self._entries.pop(entry_id, None)
        if entry is not None:
            if self.isub is not None:
                self.isub.remove(entry_id)
            if self.isuper is not None:
                self.isuper.remove(entry_id)
            # A disabled index would leave its direction unreleased.  Only
            # this instance's pointers drop — the compiled objects stay
            # alive on the parent cache entry and any newer payload.
            entry.release_compiled()
        return entry

    def _remove_replica(self, entry_id: int) -> ShardEntry | None:
        entry = self._replicas.pop(entry_id, None)
        if entry is not None:
            if self.replica_isub is not None:
                self.replica_isub.remove(entry_id)
            if self.replica_isuper is not None:
                self.replica_isuper.remove(entry_id)
            entry.release_compiled()
        return entry

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
        for entry in self._entries.values():
            entry.release_compiled()
        self._entries = {}
        if self._replica_group is not None:
            # Clear the shared store in place so the other members' index
            # references stay valid; each member's subsequent replay from
            # version 0 reinstalls the same replicate records.
            self._replica_group.clear()
        else:
            for entry in self._replicas.values():
                entry.release_compiled()
            self._replicas = {}
        self.applied_version = 0
        self.epoch = 0
        self._make_indexes()

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def find_supergraph_ids(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
        home: bool = True,
        cover=None,
    ) -> list[int]:
        """Entry ids of this shard's ``Isub`` hits (local order).

        ``compiled`` is the query's shared compiled state (one plan across
        the home and replica lookups of every shard); ``home`` gates the
        home-partition lookup (a pruned probe skips it); ``cover`` asks for
        the replicated entries this shard answers for on this probe —
        ``True`` for all of them, a sequence of entry ids for a subset,
        ``None`` for none.
        """
        if self.isub is None:
            return []
        ids: list[int] = []
        if home and self._entries:
            ids.extend(
                entry.entry_id
                for entry in self.isub.find_supergraphs(query, features, compiled)
            )
        if cover is not None and self._replicas:
            ids.extend(
                entry.entry_id
                for entry in self.replica_isub.find_supergraphs(
                    query,
                    features,
                    compiled,
                    restrict_ids=None if cover is True else cover,
                )
            )
        return ids

    def find_subgraph_ids(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
        home: bool = True,
        cover=None,
    ) -> list[int]:
        """Entry ids of this shard's ``Isuper`` hits (local order).

        ``compiled``, ``home`` and ``cover`` behave as in
        :meth:`find_supergraph_ids`.
        """
        if self.isuper is None:
            return []
        ids: list[int] = []
        if home and self._entries:
            ids.extend(
                entry.entry_id
                for entry in self.isuper.find_subgraphs(query, features, compiled)
            )
        if cover is not None and self._replicas:
            ids.extend(
                entry.entry_id
                for entry in self.replica_isuper.find_subgraphs(
                    query,
                    features,
                    compiled,
                    restrict_ids=None if cover is True else cover,
                )
            )
        return ids

    def entry_ids(self) -> list[int]:
        """Ids of the home-partition entries this replica currently serves."""
        return sorted(self._entries)

    def replica_ids(self) -> list[int]:
        """Ids of the replicated (hot) entries this shard holds."""
        return sorted(self._replicas)

    def estimated_size_bytes(self) -> int:
        """Approximate index-structure size of this shard (Figure 18).

        Shared (group) replica indexes are counted by their owning member
        only, so a runtime-wide sum sees each byte once.
        """
        indexes = [self.isub, self.isuper]
        group = self._replica_group
        if group is None or group.owner == self.shard_id:
            indexes += [self.replica_isub, self.replica_isuper]
        total = 0
        for index in indexes:
            if index is not None:
                total += index.estimated_size_bytes()
        return total

    def __len__(self) -> int:
        return len(self._entries) + len(self._replicas)

    def __repr__(self) -> str:
        return (
            f"<QueryIndexShard id={self.shard_id} entries={len(self._entries)} "
            f"replicas={len(self._replicas)} "
            f"version={self.applied_version} epoch={self.epoch}>"
        )


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
    home_sub: bool = True,
    home_super: bool = True,
    cover_sub=None,
    cover_super=None,
) -> tuple[list[int], list[int], int, int, float, int, str]:
    """Worker entry point: catch up on the log tail, then probe.

    ``home_*`` / ``cover_*`` carry the parent's probe directive (pruning
    flags and replica assignment; see :meth:`QueryIndexShard` probes) — the
    defaults reproduce the unpruned full probe.  Returns the two hit-id
    lists plus the verifier-stat deltas of the probe (positives, negatives,
    seconds — folded back by the parent so the §4 containment-test
    accounting stays byte-identical to the inline path), the replica's
    applied version, and the kernel backend this worker process resolved
    (kernel resolution is per process: a shard worker that cannot load the
    native library falls back to ``"bigint"`` locally, and the parent
    surfaces that through ``shard_stats()["worker_kernels"]``).
    """
    shard = _WORKER_SHARD
    if reset:
        shard.reset()
    for delta in deltas:
        shard.apply(delta)
    stats = shard.verifier.stats
    positives, negatives, seconds = stats.positives, stats.negatives, stats.total_seconds
    compiled = CompiledQuery(query)  # the parent's does not cross the pipe
    sub_ids = (
        shard.find_supergraph_ids(query, features, compiled, home=home_sub, cover=cover_sub)
        if want_sub and (home_sub or cover_sub is not None)
        else []
    )
    super_ids = (
        shard.find_subgraph_ids(query, features, compiled, home=home_super, cover=cover_super)
        if want_super and (home_super or cover_super is not None)
        else []
    )
    return (
        sub_ids,
        super_ids,
        stats.positives - positives,
        stats.negatives - negatives,
        stats.total_seconds - seconds,
        shard.applied_version,
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

    def snapshot(self) -> list[int]:
        """Current in-flight counts (service introspection)."""
        with self._lock:
            return list(self._counts)


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
    (``shard_backend="inline"`` plus a process-backed executor).
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
        """No-op: the owning :class:`ShardedIGQ` closes the real pools."""


class _PartitionSummary:
    """Parent-side prune summary of one shard's home partition.

    Rows are ``(entry_id, feature_mask, num_vertices, num_edges)`` per live
    entry.  The two ``may_contain_*`` tests apply *necessary* conditions for
    an entry to survive the shard's own candidate filtering plus the
    uncounted size pre-checks — feature-mask dominance is implied by the
    trie filters' occurrence-count dominance, and the size bounds mirror
    :meth:`ContainmentIndex._verified_hits`'s ``continue`` guards — so a
    shard pruned on their say-so would have produced zero hits *and* zero
    counted containment tests: skipping it cannot perturb the byte-identity
    invariant.  Rebuilt at flush boundaries (the cache is static between
    flushes).
    """

    __slots__ = ("rows", "union_mask", "min_vertices", "min_edges", "max_vertices", "max_edges")

    def __init__(self, rows) -> None:
        self.rows = tuple(rows)
        union = 0
        min_v = min_e = max_v = max_e = 0
        for index, (_, mask, vertices, edges) in enumerate(self.rows):
            union |= mask
            if index == 0:
                min_v = max_v = vertices
                min_e = max_e = edges
            else:
                min_v = min(min_v, vertices)
                max_v = max(max_v, vertices)
                min_e = min(min_e, edges)
                max_e = max(max_e, edges)
        self.union_mask = union
        self.min_vertices, self.max_vertices = min_v, max_v
        self.min_edges, self.max_edges = min_e, max_e

    def may_contain_super(self, query_mask: int, vertices: int, edges: int) -> bool:
        """Could some entry be a supergraph of the query (Isub side)?"""
        if not self.rows:
            return False
        if query_mask & ~self.union_mask:
            return False
        if self.max_vertices < vertices or self.max_edges < edges:
            return False
        for _, mask, entry_vertices, entry_edges in self.rows:
            if (
                not query_mask & ~mask
                and entry_vertices >= vertices
                and entry_edges >= edges
            ):
                return True
        return False

    def may_contain_sub(self, query_mask: int, vertices: int, edges: int) -> bool:
        """Could some entry be a subgraph of the query (Isuper side)?"""
        if not self.rows:
            return False
        if self.min_vertices > vertices or self.min_edges > edges:
            return False
        for _, mask, entry_vertices, entry_edges in self.rows:
            if (
                not mask & ~query_mask
                and entry_vertices <= vertices
                and entry_edges <= edges
            ):
                return True
        return False


_EMPTY_SUMMARY = _PartitionSummary(())


class _InlineShardRuntime:
    """Shard replicas living in the parent process.

    Probes run serially and count on the parent's iGQ verifier directly;
    replication is synchronous (replicas catch up at the end of each
    flush), so this backend isolates the *incremental maintenance* gain —
    and is the 1-CPU fallback of ``shard_backend="auto"``.
    """

    uses_processes = False

    def __init__(self, engine: "ShardedIGQ") -> None:
        # Co-resident shards share one physical replica store: a replicate
        # record installs (and an evict removes) one trie posting set, not
        # ``num_shards`` of them.
        group = ReplicaGroup(
            engine.igq_verifier,
            enable_isub=engine.probe_isub,
            enable_isuper=engine.probe_isuper,
        )
        self.shards = [
            QueryIndexShard(
                shard_id,
                verifier=engine.igq_verifier,
                enable_isub=engine.probe_isub,
                enable_isuper=engine.probe_isuper,
                replica_group=group,
            )
            for shard_id in range(engine.num_shards)
        ]

    def probe(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        want_sub: bool,
        want_super: bool,
        directives=None,
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
            if directives is None:
                home_sub = home_super = True
                cover_sub = cover_super = None
            else:
                directive = directives[shard.shard_id]
                if directive is None:
                    continue
                home_sub, home_super, cover_sub, cover_super = directive
            if want_sub and (home_sub or cover_sub is not None):
                sub_ids.extend(
                    shard.find_supergraph_ids(
                        query, features, compiled, home=home_sub, cover=cover_sub
                    )
                )
            if want_super and (home_super or cover_super is not None):
                super_ids.extend(
                    shard.find_subgraph_ids(
                        query, features, compiled, home=home_super, cover=cover_super
                    )
                )
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

    uses_processes = True

    def __init__(self, engine: "ShardedIGQ") -> None:
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
        directives=None,
        compiled: CompiledQuery | None = None,
    ) -> tuple[list[int], list[int]]:
        # ``compiled`` stays in the parent: each worker compiles the query
        # for its own partition (compiled forms do not cross the pipe).
        pools = self._ensure_pools()
        log = self._engine.delta_log
        futures = []
        probed_shards: list[int] = []
        for shard_id, pool in enumerate(pools):
            reset = self._needs_reset[shard_id]
            try:
                deltas = log.since(self._shipped[shard_id], shard=shard_id)
            except DeltaLogTruncated:
                reset = True
                deltas = log.since(0, shard=shard_id)
            if directives is None:
                home_sub = home_super = True
                cover_sub = cover_super = None
            else:
                directive = directives[shard_id]
                if directive is None:
                    if not deltas and not reset:
                        # Pruned and current: skip the round-trip entirely.
                        continue
                    # Pruned but lagging: ship the log tail with a no-op
                    # probe so the replica stays current (and the log can
                    # keep compacting past its position).
                    home_sub = home_super = False
                    cover_sub = cover_super = None
                else:
                    home_sub, home_super, cover_sub, cover_super = directive
            self._shipped[shard_id] = log.version
            self._needs_reset[shard_id] = False
            self._tracker.acquire(shard_id)
            future = pool.submit(
                _shard_probe,
                deltas,
                reset,
                query,
                features,
                want_sub,
                want_super,
                home_sub,
                home_super,
                cover_sub,
                cover_super,
            )
            future.add_done_callback(
                lambda _, i=shard_id: self._tracker.release(i)
            )
            futures.append(future)
            probed_shards.append(shard_id)
        sub_ids: list[int] = []
        super_ids: list[int] = []
        stats = self._engine.igq_verifier.stats
        try:
            for shard_id, future in zip(probed_shards, futures):
                (
                    shard_sub,
                    shard_super,
                    positives,
                    negatives,
                    seconds,
                    _,
                    kernel,
                ) = future.result()
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

    def pool_loads(self) -> list[int]:
        """In-flight tasks per shard pool (probes plus verify chunks)."""
        return self._tracker.snapshot()

    def estimated_size_bytes(self) -> int:
        """Replica tries live in the workers; report only parent-side state."""
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


class ShardedIGQ(IGQ):
    """iGQ engine whose query index is partitioned across delta-fed shards.

    Configured through :class:`~repro.core.config.EngineConfig` like the
    base engine; its ``shard`` section supplies

    ``shard.shards``:
        Number of cache partitions.  ``1`` (the default) is the A/B
        baseline: the engine behaves exactly like :class:`IGQ` — same code
        paths, no delta log.
    ``shard.backend``:
        One of :data:`SHARD_BACKENDS`.  ``"inline"`` keeps the replicas in
        the parent process (incremental delta maintenance, serial probes);
        ``"process"`` gives every shard a long-lived worker process that
        subscribes to the delta log; ``"auto"`` picks ``"process"`` when
        the machine has more than one usable CPU.
    ``shard.compact_threshold``:
        Compact the delta log down to the slowest replica's position
        whenever it exceeds this many records.  Retained insert records
        keep their compiled payloads alive until they fold, so the
        threshold bounds the engine's peak compiled-object count at
        roughly ``cache_size + compact_threshold``; it also bounds how far
        an *external* subscriber can lag before it must reset-and-replay.
        ``None`` disables automatic compaction — the log (and the evicted
        entries' payloads it retains) then grows with the stream, so only
        use it when something else calls :meth:`DeltaLog.compact`.
    ``shard.hot_threshold``:
        Hot-key replication: an entry whose probe-hit count crosses this
        threshold is replicated (a ``replicate`` delta record carrying the
        already-compiled payload) at the next flush boundary, after which
        any shard can answer for it.  Enabling it also turns on probe-side
        pruning: per-shard feature-bitmask summaries let the fan-out skip
        shards whose partition cannot contain a hit for the query, which is
        where the skewed-traffic speedup comes from on a single CPU.
        ``None`` (the default) reproduces the plain sharded engine
        byte-for-byte, delta stream included.
    ``shard.rebalance_interval``:
        Adaptive rebalancing: every this-many window flushes the engine
        compares per-shard hit-weighted loads and emits ``move`` delta
        records shifting entries from the hottest to the coldest shard
        (replicated entries are never moved).  ``None`` disables it.
    ``shard.replication_factor``:
        Number of shards (including the home shard) that hold a hot
        entry's replica.  ``None`` (the default) replicates to every
        shard.

    Hot-key replication, rebalancing and pruning only redistribute *which
    shard* runs each containment test — never whether it runs: pruning is
    keyed on the same feature-dominance and size conditions the trie filter
    and (uncounted) pre-checks apply, so the counted-test accounting,
    answers and cache state stay byte-identical to ``shards=1``.

    Process-backed shard pools are long-lived: call :meth:`close` (or use
    the engine as a context manager, or let
    :class:`~repro.service.GraphQueryService` own it) to terminate the
    workers deterministically.

    Whatever the configuration, answers, per-query accounting, cache
    contents and replacement metadata are byte-identical to ``shards=1``;
    ``tests/test_shard.py::TestShardedEngineEquivalence`` asserts it.
    """

    def __init__(
        self,
        method,
        config: EngineConfig | None = None,
        *,
        igq_verifier: Verifier | None = None,
    ) -> None:
        super().__init__(method, config, igq_verifier=igq_verifier)
        config = self.config
        self.num_shards = config.shard.shards
        self.compact_threshold = config.shard.compact_threshold
        self.hot_threshold = config.shard.hot_threshold
        self.rebalance_interval = config.shard.rebalance_interval
        self.replication_factor = config.shard.replication_factor
        shard_backend = config.shard.backend
        #: which components the shard replicas serve (captured before the
        #: in-process indexes are handed over to the shards)
        self.probe_isub = self.isub is not None
        self.probe_isuper = self.isuper is not None
        self.delta_log: DeltaLog | None = None
        self.shard_runtime = None
        self._entry_shard: dict[int, int] = {}
        #: id(graph) -> (graph, shard) routing memo (see :meth:`shard_of`)
        self._shard_memo: dict[int, tuple[LabeledGraph, int]] = {}
        # ---- hot-key replication / rebalancing state (§ROADMAP skew item).
        # Initialised unconditionally so shard_stats()/reset_stats() work on
        # every configuration; the _hot/_rebalancing gates keep the default
        # configuration's behaviour (and delta stream) bit-for-bit intact.
        self._hot = self.num_shards > 1 and self.hot_threshold is not None
        self._rebalancing = (
            self.num_shards > 1 and self.rebalance_interval is not None
        )
        self._track_hits = self._hot or self._rebalancing
        #: probe-hit count per live entry (drives replication + rebalancing)
        self._probe_hits: dict[int, int] = {}
        #: entries that crossed hot_threshold since the last flush
        self._pending_hot: set[int] = set()
        #: replicated entry -> holder shards (None = every shard)
        self._replica_targets: dict[int, tuple[int, ...] | None] = {}
        #: ``id(graph) -> graph`` for graphs whose entries earned
        #: replication — their churn replacements are born hot (replicated
        #: on insert, skipping the home install/retire round-trip)
        self._hot_graphs: dict[int, LabeledGraph] = {}
        #: probes served per shard (directive granted), drives cover routing
        self._shard_probe_load = [0] * self.num_shards
        self._moves_applied = 0
        self._replicas_created = 0
        self._records_folded = 0
        self._flush_count = 0
        #: grow-only feature-key -> bit registry for the prune bitmasks;
        #: only entry-side keys get bits, so a query key missing here means
        #: no cached entry has that feature at all
        self._feature_bits: dict = {}
        self._entry_masks: dict[int, int] = {}
        self._home_summaries: list[_PartitionSummary] = [
            _EMPTY_SUMMARY for _ in range(self.num_shards)
        ]
        self._replica_summary: _PartitionSummary = _EMPTY_SUMMARY
        if self.num_shards == 1:
            # A/B baseline: exactly today's single-shard engine.
            self.shard_backend = "inline"
            self._attach_persistence()
            return
        if shard_backend == "auto":
            shard_backend = "process" if effective_cpu_count() > 1 else "inline"
        self.shard_backend = shard_backend
        # The shards own the containment structures; keeping the inherited
        # in-process indexes would double-index (and double-compile) every
        # insertion.
        self.isub = None
        self.isuper = None
        self.delta_log = DeltaLog()
        if shard_backend == "process":
            self.shard_runtime = _ProcessShardRuntime(self)
        else:
            self.shard_runtime = _InlineShardRuntime(self)
        # Deferred from the base __init__ (``_defer_persist``): a warm
        # restart needs the delta log, the runtime and the placement maps
        # above to exist before recovered state can be applied.
        self._attach_persistence()

    #: see IGQ._defer_persist — the sharded warm restart must run after
    #: the shard runtime and placement state exist
    _defer_persist = True

    # ------------------------------------------------------------------
    # Persistence state capture / restore (see :mod:`repro.persist.restore`)
    # ------------------------------------------------------------------
    def persist_state(self) -> dict:
        """Base capture plus placement, replication and rebalance state."""
        state = super().persist_state()
        if self.num_shards == 1:
            return state
        state.update(
            entry_shard=dict(self._entry_shard),
            replica_targets=dict(self._replica_targets),
            probe_hits=dict(self._probe_hits),
            pending_hot=sorted(self._pending_hot),
            shard_probe_load=list(self._shard_probe_load),
            flush_count=self._flush_count,
            moves_applied=self._moves_applied,
            replicas_created=self._replicas_created,
            records_folded=self._records_folded,
        )
        return state

    def apply_persist_state(self, entries, state: dict) -> None:
        """Warm-start: restore the cache, then rebuild shards from a fresh log.

        The recovered placement is replayed into the (empty) delta log as
        one synthetic bootstrap flush — an ``insert`` per home entry, a
        ``replicate`` per hot entry — and synced to the runtime, so every
        replica ends up exactly where the persisted engine had it, with
        freshly numbered versions consistent with the new on-disk segment.
        """
        super().apply_persist_state(entries, state)
        if self.num_shards == 1:
            return
        self._entry_shard = dict(state["entry_shard"])
        self._replica_targets = dict(state["replica_targets"])
        self._probe_hits = dict(state["probe_hits"])
        self._pending_hot = set(state["pending_hot"])
        self._shard_probe_load = list(state["shard_probe_load"])
        self._flush_count = state["flush_count"]
        self._moves_applied = state["moves_applied"]
        self._replicas_created = state["replicas_created"]
        self._records_folded = state["records_folded"]
        for entry_id in self._replica_targets:
            graph = self.cache.get(entry_id).graph
            self._hot_graphs[id(graph)] = graph
        log = self.delta_log
        for _kind, shard_entry, _targets, _meta in entries:
            entry = self.cache.get(shard_entry.entry_id)
            payload = self._make_shard_entry(entry)
            if entry.entry_id in self._replica_targets:
                log.append_replicate(
                    payload, targets=self._replica_targets[entry.entry_id]
                )
            else:
                log.append_insert(self._entry_shard[entry.entry_id], payload)
        if entries:
            log.append_flush()
            self.shard_runtime.sync(log)
        if self._hot:
            self._rebuild_prune_state()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, graph: LabeledGraph) -> int:
        """Owning shard of a query graph (stable canonical-key hash).

        Memoized by object identity: repeat-heavy streams re-insert the
        same query objects over and over, and the exact canonical form is
        by far the most expensive step of the sharded flush path.  The memo
        holds a strong reference to each keyed graph, so an ``id`` can
        never be recycled while its entry is live; the bound just caps the
        pinned memory on unbounded streams of distinct graphs.
        """
        memo = self._shard_memo
        cached = memo.get(id(graph))
        if cached is not None and cached[0] is graph:
            return cached[1]
        shard_id = shard_of_key(canonical_graph_key(graph), self.num_shards)
        if len(memo) >= 8192:
            memo.clear()
        memo[id(graph)] = (graph, shard_id)
        return shard_id

    def entry_shard(self, entry_id: int) -> int:
        """Owning shard of a live cache entry."""
        return self._entry_shard[entry_id]

    # ------------------------------------------------------------------
    # Probe fan-out (stage 2)
    # ------------------------------------------------------------------
    def _component_hits(self, query, features, compiled):
        if self.num_shards == 1:
            return super()._component_hits(query, features, compiled)
        directives = self._probe_directives(query, features) if self._hot else None
        sub_ids, super_ids = self.shard_runtime.probe(
            query, features, self.probe_isub, self.probe_isuper, directives, compiled
        )
        # Shards return their hits in local slot order; the single-shard
        # engine reports hits in cache insertion order, which (ids being
        # monotonic) is ascending entry-id order — merge back into it so
        # exact-repeat detection and crediting see the identical sequence.
        cache = self.cache
        sub_hits = [cache.get(entry_id) for entry_id in sorted(sub_ids)]
        super_hits = [cache.get(entry_id) for entry_id in sorted(super_ids)]
        if self._track_hits:
            self._note_hits(sub_hits, super_hits)
        return sub_hits, super_hits

    def _note_hits(self, sub_hits, super_hits) -> None:
        """Credit probe hits; entries crossing ``hot_threshold`` queue up
        for replication at the next flush boundary."""
        hits = self._probe_hits
        threshold = self.hot_threshold
        for entry in sub_hits + super_hits:
            entry_id = entry.entry_id
            count = hits.get(entry_id, 0) + 1
            hits[entry_id] = count
            if (
                self._hot
                and count == threshold
                and entry_id not in self._replica_targets
            ):
                self._pending_hot.add(entry_id)

    def _probe_directives(self, query, features):
        """Per-shard probe plan: pruning flags plus replica cover assignment.

        For every shard a ``(home_sub, home_super, cover_sub, cover_super)``
        tuple, or ``None`` to skip the shard outright.  Home flags come from
        the :class:`_PartitionSummary` necessary-condition tests; replicated
        entries that could match are assigned to exactly one *covering*
        shard — the least probe-loaded shard when it holds the replica, the
        entry's home shard otherwise — so every live entry is containment-
        tested by exactly one shard per probe, same as the unpruned fan-out.
        """
        num_vertices = query.num_vertices
        num_edges = query.num_edges
        bits = self._feature_bits
        query_mask = 0
        unknown = False
        for key in features.counts:
            bit = bits.get(key)
            if bit is None:
                # No cached entry anywhere has this feature, so nothing can
                # be a supergraph of the query; no bit is allocated (the
                # registry tracks entry-side keys only).
                unknown = True
            else:
                query_mask |= bit
        want_sub = self.probe_isub
        want_super = self.probe_isuper
        home_sub_flags = []
        home_super_flags = []
        for summary in self._home_summaries:
            home_sub_flags.append(
                want_sub
                and not unknown
                and summary.may_contain_super(query_mask, num_vertices, num_edges)
            )
            home_super_flags.append(
                want_super
                and summary.may_contain_sub(query_mask, num_vertices, num_edges)
            )
        cover_sub: dict[int, list[int]] = {}
        cover_super: dict[int, list[int]] = {}
        replica_rows = self._replica_summary.rows
        if replica_rows:
            sub_ids: list[int] = []
            super_ids: list[int] = []
            for entry_id, mask, entry_vertices, entry_edges in replica_rows:
                if (
                    want_sub
                    and not unknown
                    and not query_mask & ~mask
                    and entry_vertices >= num_vertices
                    and entry_edges >= num_edges
                ):
                    sub_ids.append(entry_id)
                if (
                    want_super
                    and not mask & ~query_mask
                    and entry_vertices <= num_vertices
                    and entry_edges <= num_edges
                ):
                    super_ids.append(entry_id)
            if sub_ids or super_ids:
                loads = self._shard_probe_load
                designee = min(range(self.num_shards), key=lambda s: (loads[s], s))
                for ids, cover in ((sub_ids, cover_sub), (super_ids, cover_super)):
                    for entry_id in ids:
                        targets = self._replica_targets.get(entry_id)
                        shard_id = (
                            designee
                            if targets is None or designee in targets
                            else self._entry_shard[entry_id]
                        )
                        cover.setdefault(shard_id, []).append(entry_id)
        directives = []
        for shard_id in range(self.num_shards):
            home_sub = home_sub_flags[shard_id]
            home_super = home_super_flags[shard_id]
            ids = cover_sub.get(shard_id)
            shard_cover_sub = tuple(ids) if ids is not None else None
            ids = cover_super.get(shard_id)
            shard_cover_super = tuple(ids) if ids is not None else None
            if (
                home_sub
                or home_super
                or shard_cover_sub is not None
                or shard_cover_super is not None
            ):
                directives.append(
                    (home_sub, home_super, shard_cover_sub, shard_cover_super)
                )
                self._shard_probe_load[shard_id] += 1
            else:
                directives.append(None)
        return directives

    # ------------------------------------------------------------------
    # Delta-emitting window flush (§5.2)
    # ------------------------------------------------------------------
    def _flush_window(self) -> MaintenanceReport:
        if self.num_shards == 1:
            return super()._flush_window()
        report = MaintenanceReport()
        window = self.maintenance.drain_window()
        if not window:
            report.cache_size_after = len(self.cache)
            return report
        log = self.delta_log
        victims = self.maintenance.select_evictions(self.cache, len(window))
        for entry_id in victims:
            if entry_id in self._replica_targets:
                # A replicated entry evicted while barely probed means the
                # traffic moved on — demote its graph so a later re-insert
                # starts cold (home-partitioned) again.
                if self._hot and self._probe_hits.get(entry_id, 0) < self.hot_threshold:
                    graph = self.cache.get(entry_id).graph
                    self._hot_graphs.pop(id(graph), None)
            self.cache.remove(entry_id)  # releases the parent-side payloads
            home_shard = self._entry_shard.pop(entry_id)
            if entry_id in self._replica_targets:
                # Replicated entries live on several shards (and a reset
                # subscriber may hold none of them), so the evict is a
                # targeted broadcast applied leniently.
                targets = self._replica_targets.pop(entry_id)
                log.append_evict(BROADCAST, entry_id, targets=targets)
            else:
                log.append_evict(home_shard, entry_id)
            self._probe_hits.pop(entry_id, None)
            self._pending_hot.discard(entry_id)
            self._entry_masks.pop(entry_id, None)
        report.evicted = len(victims)
        report.evicted_entry_ids = victims
        for pending in window:
            entry = pending.add_to(self.cache)
            shard_id = self.shard_of(pending.graph)
            self._entry_shard[entry.entry_id] = shard_id
            if self._hot and self._hot_graphs.get(id(pending.graph)) is pending.graph:
                # Born hot: this graph's previous entry was replicated, so
                # the churn replacement goes straight to the replica stores
                # — no home install that the next flush would retire again.
                # (Replication choices never change answers or accounting,
                # so this is free to be a heuristic.)
                targets = self._replication_targets_for(entry.entry_id)
                log.append_replicate(self._make_shard_entry(entry), targets=targets)
                self._replica_targets[entry.entry_id] = targets
                self._replicas_created += 1
            else:
                log.append_insert(shard_id, self._make_shard_entry(entry))
            report.inserted += 1
        if self._hot and self._pending_hot:
            for entry_id in sorted(self._pending_hot):
                entry = self.cache.get(entry_id)
                targets = self._replication_targets_for(entry_id)
                log.append_replicate(self._make_shard_entry(entry), targets=targets)
                self._replica_targets[entry_id] = targets
                self._replicas_created += 1
                if len(self._hot_graphs) >= 8192:
                    self._hot_graphs.clear()
                self._hot_graphs[id(entry.graph)] = entry.graph
            self._pending_hot.clear()
        self._flush_count += 1
        if self._rebalancing and self._flush_count % self.rebalance_interval == 0:
            self._moves_applied += self._rebalance(log)
        log.append_flush()
        # Persist before compaction: the durable batch needs the raw tail,
        # and the compaction floor never passes what was just persisted.
        self._persist_flush()
        self.shard_runtime.sync(log)
        if self.compact_threshold is not None and len(log) > self.compact_threshold:
            self._records_folded += log.compact(self.shard_runtime.progress())
        if self._hot:
            self._rebuild_prune_state()
        report.cache_size_after = len(self.cache)
        return report

    def _replication_targets_for(self, entry_id: int) -> tuple[int, ...] | None:
        """Holder shards for a newly hot entry (None = every shard)."""
        factor = self.replication_factor
        if factor is None:
            return None
        home_shard = self._entry_shard[entry_id]
        return tuple(
            sorted((home_shard + offset) % self.num_shards for offset in range(factor))
        )

    def _rebalance(self, log: DeltaLog) -> int:
        """Shift entries from the hottest shard to the coldest (§ROADMAP).

        Loads are hit-weighted entry counts (``1 + probe hits``, so cold
        entries still count for placement).  Each step moves the lightest
        entry off the hottest shard, but only while that strictly narrows
        the hot/cold gap; replicated entries are never moved (every shard
        already holds them).  Emits one ``move`` record per relocation —
        applied by the shards at this flush boundary like any other delta —
        and is capped at one window's worth of moves per rebalance so a
        pathological skew cannot stall the flush.
        """
        weights: list[dict[int, int]] = [{} for _ in range(self.num_shards)]
        for entry_id, shard_id in self._entry_shard.items():
            if entry_id in self._replica_targets:
                continue
            weights[shard_id][entry_id] = 1 + self._probe_hits.get(entry_id, 0)
        loads = [sum(shard_weights.values()) for shard_weights in weights]
        moves = 0
        max_moves = self.maintenance.window_size
        while moves < max_moves:
            hottest = max(range(self.num_shards), key=lambda s: (loads[s], -s))
            coldest = min(range(self.num_shards), key=lambda s: (loads[s], s))
            gap = loads[hottest] - loads[coldest]
            if gap <= 0 or not weights[hottest]:
                break
            entry_id, weight = min(
                weights[hottest].items(), key=lambda item: (item[1], item[0])
            )
            if weight >= gap:
                break
            log.append_move(
                self._make_shard_entry(self.cache.get(entry_id)),
                src_shard=hottest,
                dst_shard=coldest,
            )
            del weights[hottest][entry_id]
            weights[coldest][entry_id] = weight
            loads[hottest] -= weight
            loads[coldest] += weight
            self._entry_shard[entry_id] = coldest
            moves += 1
        return moves

    def _entry_mask_of(self, entry: CacheEntry) -> int:
        """Feature bitmask of a live entry (memoized; allocates new bits)."""
        mask = self._entry_masks.get(entry.entry_id)
        if mask is None:
            bits = self._feature_bits
            mask = 0
            for key in entry.features.counts:
                bit = bits.get(key)
                if bit is None:
                    bit = 1 << len(bits)
                    bits[key] = bit
                mask |= bit
            self._entry_masks[entry.entry_id] = mask
        return mask

    def _rebuild_prune_state(self) -> None:
        """Recompute the per-shard prune summaries after a flush."""
        per_shard: list[list[tuple[int, int, int, int]]] = [
            [] for _ in range(self.num_shards)
        ]
        replica_rows: list[tuple[int, int, int, int]] = []
        for entry_id in sorted(self._entry_shard):
            entry = self.cache.get(entry_id)
            row = (
                entry_id,
                self._entry_mask_of(entry),
                entry.graph.num_vertices,
                entry.graph.num_edges,
            )
            if entry_id in self._replica_targets:
                replica_rows.append(row)
            else:
                per_shard[self._entry_shard[entry_id]].append(row)
        self._home_summaries = [_PartitionSummary(rows) for rows in per_shard]
        self._replica_summary = _PartitionSummary(replica_rows)

    def _make_shard_entry(self, entry: CacheEntry) -> ShardEntry:
        """Build the replica payload, compiling each direction exactly once.

        Compilation happens here — in the parent, when the entry enters the
        log — for the same reason the single-shard indexes compile on
        insertion: the entry will be containment-tested against every
        future query.  The compiled objects are stored on the cache entry
        too (released on eviction), so no shard ever recompiles them.
        """
        if self.igq_verifier.supports_compiled():
            if self.probe_isub and entry.compiled_target is None:
                entry.compiled_target = compile_target(entry.graph)
            if self.probe_isuper and entry.compiled_plan is None:
                entry.compiled_plan = compile_query_plan(entry.graph)
        return ShardEntry(
            entry_id=entry.entry_id,
            graph=entry.graph,
            features=entry.features,
            compiled_target=entry.compiled_target,
            compiled_plan=entry.compiled_plan,
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def index_size_bytes(self) -> int:
        """Estimated bytes of the query index including shard structures."""
        # With shards>1 the inherited isub/isuper are None, so the parent
        # implementation contributes exactly the cached-graph/answer bytes;
        # the shard structures are added on top.
        total = super().index_size_bytes()
        if self.num_shards > 1:
            total += self.shard_runtime.estimated_size_bytes()
        return total

    def shard_balance(self) -> list[int]:
        """Live cache entries per shard (service introspection).

        A heavily skewed balance on a Zipf workload is the signal the
        ROADMAP's hot-key-replication item exists to address.
        """
        counts = [0] * self.num_shards
        if self.num_shards == 1:
            counts[0] = len(self.cache)
        else:
            for shard_id in self._entry_shard.values():
                counts[shard_id] += 1
        return counts

    def replica_counts(self) -> list[int]:
        """Replicated entries held per shard (home copies excluded).

        A fully replicated entry (``replication_factor=None``) counts once
        on every shard; a factor-``r`` entry once on each of its ``r``
        holders.  ``shard_balance`` keeps attributing the entry to its
        nominal home shard, so the two views are complementary.
        """
        counts = [0] * self.num_shards
        for targets in self._replica_targets.values():
            holders = range(self.num_shards) if targets is None else targets
            for shard_id in holders:
                counts[shard_id] += 1
        return counts

    def shard_stats(self) -> dict:
        """Hot-key/rebalance and delta-log health snapshot (service layer)."""
        log = self.delta_log
        return {
            "probe_load": list(self._shard_probe_load),
            "replica_counts": self.replica_counts(),
            "replicas_live": len(self._replica_targets),
            "replicas_created": self._replicas_created,
            "moves_applied": self._moves_applied,
            "worker_kernels": (
                self.shard_runtime.worker_kernels()
                if self.shard_runtime is not None
                else {}
            ),
            "delta_log": {
                "length": len(log) if log is not None else 0,
                "version": log.version if log is not None else 0,
                "floor_version": log.floor_version if log is not None else 0,
                "records_folded": self._records_folded,
                "bytes_reclaimed": (
                    log.compact_stats()["bytes_reclaimed"] if log is not None else 0
                ),
            },
        }

    def reset_stats(self) -> None:
        """Zero the probe-hit counters and per-shard load statistics.

        Replicas stay replicated and moved entries stay put — this resets
        the *inputs* to future replication/rebalancing decisions (e.g. at a
        workload phase change), not the placement they already produced.
        Pending not-yet-flushed hot entries are requeued from scratch too.
        """
        self._probe_hits.clear()
        self._pending_hot.clear()
        self._shard_probe_load = [0] * self.num_shards
        self._moves_applied = 0
        self._replicas_created = 0
        self._records_folded = 0

    def close(self) -> None:
        """Shut down the shard runtime (worker pools); idempotent.

        Order matters: the durable store flushes and fsyncs its WAL tail
        *before* the pools go down (a close must never lose a persisted
        flush to teardown), then the runtime releases its reference on the
        published snapshot segment, then the base class force-unlinks
        whatever shared-memory is left (see
        :meth:`repro.core.engine.IGQ.close`).
        """
        self._close_persister()
        if self.shard_runtime is not None:
            self.shard_runtime.close()
        super().close()

    def __repr__(self) -> str:
        return (
            f"<ShardedIGQ method={self.method.name!r} mode={self.mode!r} "
            f"shards={self.num_shards} backend={self.shard_backend!r} "
            f"cached={len(self.cache)}>"
        )
