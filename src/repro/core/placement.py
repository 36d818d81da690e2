"""Where each cached query lives: routing, hot-key replication, rebalancing.

One :class:`Placement` per engine decides, for every entry a window flush
inserts or evicts, which shard(s) the delta record addresses; the engine
(:meth:`IGQ._log_flush <repro.core.engine.IGQ._log_flush>`) writes the
records.  Static canonical-key partitions send every probe for a popular
query to the same shard, so a Zipf-skewed stream saturates one partition
while the rest idle.  With ``shard.hot_threshold`` set, per-entry probe
hits are counted and, at the next window flush, hot entries are
*replicated* (all shards, or a ``replication_factor``-sized holder group),
while per-partition feature summaries let each probe *skip* shards whose
partition provably cannot contain a hit — exactly one shard
containment-tests each live entry per probe, so answers and accounting stay
byte-identical.  ``shard.rebalance_interval`` additionally *moves* cold
entries from the hottest partition to the coldest at flush boundaries.
Both default to off, which is static partitioning.

Everything ROADMAP item 1(c)'s hot-key verdict may condemn is in this file.
"""

from __future__ import annotations

from ..features.canonical import canonical_graph_key
from ..graphs.graph import LabeledGraph
from .cache import CacheEntry, QueryCache
from .config import ShardConfig
from .shard import BROADCAST, shard_of_key

__all__ = ["Placement"]


class _PartitionSummary:
    """Parent-side prune summary of one shard's home partition.

    Rows are ``(entry_id, feature_mask, num_vertices, num_edges)`` per live
    entry.  The two ``may_contain_*`` tests apply *necessary* conditions for
    an entry to survive the shard's own candidate filtering plus the
    uncounted size pre-checks — feature-mask dominance is implied by the
    index filters' occurrence-count dominance, and the size bounds mirror
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


class Placement:
    """Entry -> shard assignment plus the hot-key counters that revise it."""

    def __init__(self, config: ShardConfig, window_size: int) -> None:
        self.num_shards = config.shards
        self.hot_threshold = config.hot_threshold
        self.rebalance_interval = config.rebalance_interval
        self.replication_factor = config.replication_factor
        #: one window's worth of moves per rebalance, so a pathological
        #: skew cannot stall the flush
        self._max_moves = window_size
        self.hot = self.num_shards > 1 and self.hot_threshold is not None
        self.rebalancing = self.num_shards > 1 and self.rebalance_interval is not None
        self.track_hits = self.hot or self.rebalancing
        #: live entry -> home shard
        self.entry_shard: dict[int, int] = {}
        #: replicated entry -> holder shards (None = every shard)
        self.replica_targets: dict[int, tuple[int, ...] | None] = {}
        #: id(graph) -> (graph, shard) routing memo (see :meth:`shard_of`)
        self._shard_memo: dict[int, tuple[LabeledGraph, int]] = {}
        #: probe-hit count per live entry (drives replication + rebalancing)
        self._probe_hits: dict[int, int] = {}
        #: entries that crossed hot_threshold since the last flush
        self._pending_hot: set[int] = set()
        #: ``id(graph) -> graph`` for graphs whose entries earned
        #: replication — their churn replacements are born hot (replicated
        #: on insert, skipping the home install/retire round-trip)
        self._hot_graphs: dict[int, LabeledGraph] = {}
        #: probes served per shard (directive granted), drives cover routing
        self._shard_probe_load = [0] * self.num_shards
        self.moves_applied = 0
        self.replicas_created = 0
        self.flush_count = 0
        #: grow-only feature-key -> bit registry for the prune bitmasks;
        #: only entry-side keys get bits, so a query key missing here means
        #: no cached entry has that feature at all.  Keyed by tuple key
        #: (``GraphFeatures.key_counts``), the one domain coded and uncoded
        #: features share; an entry's table is its query's, so a query
        #: decodes once for both roles
        self._feature_bits: dict = {}
        self._entry_masks: dict[int, int] = {}
        self._home_summaries = [_EMPTY_SUMMARY] * self.num_shards
        self._replica_summary = _EMPTY_SUMMARY

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, graph: LabeledGraph) -> int:
        """Owning shard of a query graph (stable canonical-key hash).

        Memoized by object identity: repeat-heavy streams re-insert the
        same query objects over and over, and the exact canonical form is
        by far the most expensive step of a multi-shard flush.  The memo
        holds a strong reference to each keyed graph, so an ``id`` can
        never be recycled while its entry is live; the bound just caps the
        pinned memory on unbounded streams of distinct graphs.  With one
        shard there is nothing to hash.
        """
        if self.num_shards < 2:
            return 0
        memo = self._shard_memo
        cached = memo.get(id(graph))
        if cached is not None and cached[0] is graph:
            return cached[1]
        shard_id = shard_of_key(canonical_graph_key(graph), self.num_shards)
        if len(memo) >= 8192:
            memo.clear()
        memo[id(graph)] = (graph, shard_id)
        return shard_id

    # ------------------------------------------------------------------
    # Probe side
    # ------------------------------------------------------------------
    def note_hits(self, hits: list[CacheEntry]) -> None:
        """Credit probe hits; entries crossing ``hot_threshold`` queue up
        for replication at the next flush boundary."""
        counts = self._probe_hits
        threshold = self.hot_threshold
        for entry in hits:
            entry_id = entry.entry_id
            count = counts.get(entry_id, 0) + 1
            counts[entry_id] = count
            if self.hot and count == threshold and entry_id not in self.replica_targets:
                self._pending_hot.add(entry_id)

    def probe_directives(self, query, features, want_sub: bool, want_super: bool):
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
        for key in features.key_counts():
            bit = bits.get(key)
            if bit is None:
                # No cached entry anywhere has this feature, so nothing can
                # be a supergraph of the query; no bit is allocated (the
                # registry tracks entry-side keys only).
                unknown = True
            else:
                query_mask |= bit
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
                        targets = self.replica_targets.get(entry_id)
                        shard_id = (
                            designee
                            if targets is None or designee in targets
                            else self.entry_shard[entry_id]
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
    # Flush side: one decision per evicted / inserted entry (§5.2)
    # ------------------------------------------------------------------
    def evicted(self, entry: CacheEntry) -> tuple[int, tuple[int, ...] | None]:
        """Forget an evicted entry; returns its evict record's ``(shard, targets)``.

        A replicated entry lives on several shards (and a reset subscriber
        may hold none of them), so its evict is a targeted broadcast.
        """
        entry_id = entry.entry_id
        home_shard = self.entry_shard.pop(entry_id)
        hits = self._probe_hits.pop(entry_id, 0)
        self._pending_hot.discard(entry_id)
        self._entry_masks.pop(entry_id, None)
        if entry_id not in self.replica_targets:
            return home_shard, None
        if self.hot and hits < self.hot_threshold:
            # Evicted while barely probed: the traffic moved on — demote the
            # graph so a later re-insert starts cold (home-partitioned) again.
            self._hot_graphs.pop(id(entry.graph), None)
        return BROADCAST, self.replica_targets.pop(entry_id)

    def inserted(self, entry: CacheEntry) -> int:
        """Route a newly cached entry; returns its home shard."""
        shard_id = self.shard_of(entry.graph)
        self.entry_shard[entry.entry_id] = shard_id
        return shard_id

    def born_hot(self, entry: CacheEntry) -> bool:
        """Was this graph's previous entry replicated?

        Then the churn replacement goes straight to the replica stores — no
        home install that the next flush would retire again.  (Replication
        choices never change answers or accounting, so this is free to be
        a heuristic.)
        """
        return self.hot and self._hot_graphs.get(id(entry.graph)) is entry.graph

    def take_pending_hot(self) -> list[int]:
        """Entries that crossed ``hot_threshold`` since the last flush."""
        pending = sorted(self._pending_hot)
        self._pending_hot.clear()
        return pending

    def replicate(self, entry: CacheEntry) -> tuple[int, ...] | None:
        """Mark ``entry`` replicated; returns its holder shards (None = all)."""
        factor = self.replication_factor
        targets = None
        if factor is not None:
            home_shard = self.entry_shard[entry.entry_id]
            targets = tuple(
                sorted((home_shard + offset) % self.num_shards for offset in range(factor))
            )
        self.replica_targets[entry.entry_id] = targets
        self.replicas_created += 1
        if len(self._hot_graphs) >= 8192:
            self._hot_graphs.clear()
        self._hot_graphs[id(entry.graph)] = entry.graph
        return targets

    def rebalance(self) -> list[tuple[int, int, int]]:
        """``(entry_id, src, dst)`` moves due at this flush (usually none).

        Every ``rebalance_interval`` flushes, shift entries from the
        hottest shard to the coldest.  Loads are hit-weighted entry counts
        (``1 + probe hits``, so cold entries still count for placement).
        Each step moves the lightest entry off the hottest shard, but only
        while that strictly narrows the hot/cold gap; replicated entries
        are never moved (every shard already holds them).
        """
        self.flush_count += 1
        if not self.rebalancing or self.flush_count % self.rebalance_interval:
            return []
        weights: list[dict[int, int]] = [{} for _ in range(self.num_shards)]
        for entry_id, shard_id in self.entry_shard.items():
            if entry_id in self.replica_targets:
                continue
            weights[shard_id][entry_id] = 1 + self._probe_hits.get(entry_id, 0)
        loads = [sum(shard_weights.values()) for shard_weights in weights]
        moves: list[tuple[int, int, int]] = []
        while len(moves) < self._max_moves:
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
            del weights[hottest][entry_id]
            weights[coldest][entry_id] = weight
            loads[hottest] -= weight
            loads[coldest] += weight
            self.entry_shard[entry_id] = coldest
            moves.append((entry_id, hottest, coldest))
        self.moves_applied += len(moves)
        return moves

    def _entry_mask_of(self, entry: CacheEntry) -> int:
        """Feature bitmask of a live entry (memoized; allocates new bits)."""
        mask = self._entry_masks.get(entry.entry_id)
        if mask is None:
            bits = self._feature_bits
            mask = 0
            for key in entry.features.key_counts():
                bit = bits.get(key)
                if bit is None:
                    bit = 1 << len(bits)
                    bits[key] = bit
                mask |= bit
            self._entry_masks[entry.entry_id] = mask
        return mask

    def rebuild_prune_state(self, cache: QueryCache) -> None:
        """Recompute the per-shard prune summaries after a flush (hot-key mode)."""
        if not self.hot:
            return
        per_shard: list[list[tuple[int, int, int, int]]] = [
            [] for _ in range(self.num_shards)
        ]
        replica_rows: list[tuple[int, int, int, int]] = []
        for entry_id in sorted(self.entry_shard):
            entry = cache.get(entry_id)
            row = (
                entry_id,
                self._entry_mask_of(entry),
                entry.graph.num_vertices,
                entry.graph.num_edges,
            )
            if entry_id in self.replica_targets:
                replica_rows.append(row)
            else:
                per_shard[self.entry_shard[entry_id]].append(row)
        self._home_summaries = [_PartitionSummary(rows) for rows in per_shard]
        self._replica_summary = _PartitionSummary(replica_rows)

    # ------------------------------------------------------------------
    # Persistence / introspection
    # ------------------------------------------------------------------
    def persist_state(self) -> dict:
        """Placement, replication and rebalance state (one flush boundary)."""
        return {
            "entry_shard": dict(self.entry_shard),
            "replica_targets": dict(self.replica_targets),
            "probe_hits": dict(self._probe_hits),
            "pending_hot": sorted(self._pending_hot),
            "shard_probe_load": list(self._shard_probe_load),
            "flush_count": self.flush_count,
            "moves_applied": self.moves_applied,
            "replicas_created": self.replicas_created,
        }

    def restore(self, state: dict, cache: QueryCache) -> None:
        """Warm-start from a :meth:`persist_state` capture.

        A state written by a single-shard engine before placement was
        recorded for every shape has none of the keys: everything then
        lives on shard 0, unreplicated.
        """
        self.entry_shard = dict(
            state.get("entry_shard") or dict.fromkeys(cache.entry_ids(), 0)
        )
        self.replica_targets = dict(state.get("replica_targets", {}))
        self._probe_hits = dict(state.get("probe_hits", {}))
        self._pending_hot = set(state.get("pending_hot", ()))
        self._shard_probe_load = list(
            state.get("shard_probe_load", self._shard_probe_load)
        )
        self.flush_count = state.get("flush_count", 0)
        self.moves_applied = state.get("moves_applied", 0)
        self.replicas_created = state.get("replicas_created", 0)
        for entry_id in self.replica_targets:
            graph = cache.get(entry_id).graph
            self._hot_graphs[id(graph)] = graph

    def shard_balance(self) -> list[int]:
        """Live cache entries per home shard."""
        counts = [0] * self.num_shards
        for shard_id in self.entry_shard.values():
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
        for targets in self.replica_targets.values():
            holders = range(self.num_shards) if targets is None else targets
            for shard_id in holders:
                counts[shard_id] += 1
        return counts

    def stats(self) -> dict:
        """Hot-key/rebalance counters (the engine's ``shard_stats`` adds the log)."""
        return {
            "probe_load": list(self._shard_probe_load),
            "replica_counts": self.replica_counts(),
            "replicas_live": len(self.replica_targets),
            "replicas_created": self.replicas_created,
            "moves_applied": self.moves_applied,
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
        self.moves_applied = 0
        self.replicas_created = 0
