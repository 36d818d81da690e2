"""Warm restart: the per-engine persister and its recovery procedure.

:class:`CachePersister` is attached by the engine when
``EngineConfig.persist.dir`` is set.  It turns every window flush into one
durable WAL batch — the flush's delta records, a ``meta`` record carrying
the immutable extras of the entries that entered the cache, and a
``state`` record with the engine's small mutable state (the batch's commit
marker) — and periodically folds everything into an atomic snapshot,
rotating the WAL segment at the same version.

Recovery inverts that: load the newest valid snapshot, replay the
segments at or above its version, and *commit* only at ``state`` records.
A crash mid-batch therefore lands on the previous flush boundary — the
engine restarts exactly as if the queries after that flush were never
submitted, which is the strongest prefix-consistency a window-flushed
cache can offer (and what the fault-injection tests assert).

The persister is a plain reader of the engine's
:class:`~repro.core.shard.DeltaLog`: each flush it serialises
``delta_log.since(cursor)``; a snapshot is the
:func:`~repro.core.shard.fold_deltas` net state of the whole log.
"""

from __future__ import annotations

import logging
from pathlib import Path

from ..core.config import ConfigError, PersistConfig
from ..core.shard import (
    BROADCAST,
    DELTA_EVICT,
    DELTA_INSERT,
    DELTA_REPLICATE,
    CacheDelta,
    ShardEntry,
    fold_deltas,
)
from . import snapshot, wal

logger = logging.getLogger(__name__)

__all__ = ["CachePersister", "RecoveredState", "attach_persistence", "recover_dir"]

#: bump on any incompatible change to the record/state schema
FORMAT_VERSION = 1

#: live-entry kinds inside snapshots and recovered state
KIND_HOME = "home"
KIND_REPLICA = "replica"


class RecoveredState:
    """What recovery found on disk: live entries plus the committed state."""

    def __init__(self, live: dict, meta: dict, state: dict) -> None:
        #: ``entry_id -> CacheDelta`` net state at the last commit
        self.live = live
        #: ``entry_id -> {"answer", "tags", "added_at"}``
        self.meta = meta
        #: the last committed ``state`` record (flush-boundary engine state)
        self.state = state

    def entries(self) -> list[tuple[ShardEntry, dict]]:
        """The live entries' payloads in ascending id order, with their meta."""
        return [
            (self.live[entry_id].entry, self.meta[entry_id])
            for entry_id in sorted(self.live)
        ]


def _live_tuple(record: CacheDelta) -> tuple[str, ShardEntry, tuple | None]:
    """A net-state record in the snapshot's ``(kind, entry, targets)`` form."""
    if record.op == DELTA_REPLICATE:
        return KIND_REPLICA, record.entry, record.targets
    return KIND_HOME, record.entry, None


def _live_record(entry_id: int, kind: str, entry: ShardEntry, targets) -> CacheDelta:
    """Inverse of :func:`_live_tuple` (a snapshot does not keep home shards;
    the committed ``state`` record does)."""
    if kind == KIND_REPLICA:
        return CacheDelta(0, 0, DELTA_REPLICATE, BROADCAST, entry_id, entry, targets=targets)
    return CacheDelta(0, 0, DELTA_INSERT, 0, entry_id, entry)


def recover_dir(path: Path) -> RecoveredState | None:
    """Rebuild the last committed cache state from ``path`` (or ``None``).

    Torn segment tails are truncated in place; a torn record in a non-last
    segment invalidates every later segment (they were written after the
    torn point, so their records would replay out of order).
    """
    path = Path(path)
    live: dict = {}
    meta: dict = {}
    state: dict | None = None
    snap_version = 0
    loaded = snapshot.load_latest_snapshot(path)
    if loaded is not None:
        snap_version, payload = loaded
        live = {
            entry_id: _live_record(entry_id, *fields)
            for entry_id, fields in payload.get("live", {}).items()
        }
        meta = dict(payload.get("meta", {}))
        state = payload.get("state")
    committed = (dict(live), dict(meta), state)
    segments = [
        (start_version, segment)
        for start_version, segment in wal.list_segments(path)
        if start_version >= snap_version
    ]
    for index, (_, segment) in enumerate(segments):
        scan = wal.read_segment(segment, repair=True)
        for record in scan.records:
            if not (isinstance(record, tuple) and len(record) == 2):
                continue
            kind, payload = record
            if kind == "delta":
                fold_deltas(live, (payload,))
            elif kind == "meta":
                meta.update(payload)
            elif kind == "state":
                state = payload
                committed = (dict(live), dict(meta), state)
        if not scan.clean:
            discarded = [later.name for _, later in segments[index + 1 :]]
            if discarded:
                logger.warning(
                    "%s is not clean (%s): discarding the %d later segment(s) %s",
                    segment, scan.reason, len(discarded), discarded,
                )
            break
    live, meta, state = committed
    if state is None:
        return None
    return RecoveredState(live, {entry_id: meta[entry_id] for entry_id in live}, state)


def attach_persistence(engine, config: PersistConfig) -> "CachePersister":
    """Open (and, when the directory has state, warm-start from) ``config``."""
    return CachePersister(engine, config)


class CachePersister:
    """Durable WAL + snapshot store behind one engine (see module docs)."""

    def __init__(self, engine, config: PersistConfig) -> None:
        self.config = config
        self.path = Path(config.dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = config.fsync
        self.snapshot_interval = config.snapshot_interval
        self._closed = False
        self._writer: wal.WalWriter | None = None
        #: entry ids whose immutable extras already have a ``meta`` record
        #: in the current segment
        self._meta_written: set[int] = set()
        self._records_since_snapshot = 0
        #: whether this open actually rebuilt state from disk
        self.restored = False

        recovered = recover_dir(self.path)
        if recovered is not None:
            self._check_compatible(engine, recovered.state)
            entries = recovered.entries()
            engine.apply_persist_state(entries, recovered.state)
            self.restored = bool(entries) or recovered.state.get("query_counter", 0) > 0

        #: log version of the last record on disk (this reader's cursor)
        self._last_version = engine.delta_log.version
        # Fresh on-disk base: fold whatever we just restored (or the empty
        # state) into a snapshot and start a clean segment at its version,
        # so the rebuilt log's version numbering matches the disk layout.
        # ``wipe`` drops every other artifact: the rebuilt log restarts
        # version numbering from the live-entry count, so the previous
        # incarnation's higher-versioned files would otherwise outrank the
        # new snapshot at the next recovery.
        self._checkpoint(engine, wipe=True)

    # ------------------------------------------------------------------
    @staticmethod
    def _check_compatible(engine, state: dict) -> None:
        if state.get("format") != FORMAT_VERSION:
            raise ConfigError(
                f"persist.dir holds format {state.get('format')!r} state; "
                f"this build reads format {FORMAT_VERSION} (use a fresh "
                "directory)"
            )
        if state.get("mode") != engine.mode or state.get("shards") != engine.num_shards:
            raise ConfigError(
                f"persist.dir was written by a mode={state.get('mode')!r} "
                f"shards={state.get('shards')!r} engine and cannot warm-start "
                f"a mode={engine.mode!r} shards={engine.num_shards!r} one; point "
                "it at a fresh directory (or restore with the original "
                "configuration)"
            )

    @staticmethod
    def _state_record(engine) -> dict:
        """The engine's flush-boundary state, stamped with the format version."""
        return {"format": FORMAT_VERSION, **engine.persist_state()}

    # ------------------------------------------------------------------
    # Per-flush append path
    # ------------------------------------------------------------------
    def record_flush(self, engine) -> None:
        """Persist one window flush: its deltas, new-entry meta, and state."""
        if self._closed:
            return
        log = engine.delta_log
        records = log.since(self._last_version)
        if not records:
            return
        writer = self._writer
        always = self.fsync == "always"
        fresh_meta: dict = {}
        for record in records:
            if record.op == DELTA_EVICT:
                self._meta_written.discard(record.entry_id)
            elif record.entry is not None and record.entry_id not in self._meta_written:
                fresh_meta[record.entry_id] = engine.persist_entry_meta(record.entry_id)
                self._meta_written.add(record.entry_id)
            writer.append(("delta", record), sync=always)
        if fresh_meta:
            writer.append(("meta", fresh_meta), sync=always)
        writer.append(("state", self._state_record(engine)), sync=always)
        if self.fsync == "flush":
            writer.sync()
        elif self.fsync == "never":
            writer.flush()
        self._last_version = log.version
        self._records_since_snapshot += len(records) + 2
        if self._records_since_snapshot >= self.snapshot_interval:
            self._checkpoint(engine)

    # ------------------------------------------------------------------
    # Snapshot + segment rotation
    # ------------------------------------------------------------------
    def _checkpoint(self, engine, wipe: bool = False) -> None:
        """Fold the log into a snapshot of its net state; rotate the WAL."""
        log = engine.delta_log
        version = log.version
        live = {
            entry_id: _live_tuple(record)
            for entry_id, record in fold_deltas({}, log.since(0)).items()
        }
        payload = {
            "format": FORMAT_VERSION,
            "version": version,
            "epoch": log.epoch,
            "live": live,
            "meta": {entry_id: engine.persist_entry_meta(entry_id) for entry_id in live},
            "state": self._state_record(engine),
        }
        snapshot.write_snapshot(self.path, version, payload, fsync=self.fsync != "never")
        if self._writer is not None:
            self._writer.close()
        segment_path = self.path / wal.segment_name(version)
        # Never append behind a leftover segment of the same name (a prior
        # incarnation may have used this version before crashing).
        segment_path.unlink(missing_ok=True)
        self._writer = wal.WalWriter(segment_path, fsync_mode=self.fsync)
        self._meta_written = set(live)
        self._records_since_snapshot = 0
        if wipe:
            for other_version, other in snapshot.list_snapshots(self.path):
                if other_version != version:
                    other.unlink(missing_ok=True)
            for other_version, other in wal.list_segments(self.path):
                if other_version != version:
                    other.unlink(missing_ok=True)
            for stray in self.path.glob("*.tmp"):
                stray.unlink(missing_ok=True)
        else:
            snapshot.prune_snapshots(self.path, version)
            wal.prune_segments(self.path, version)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush (and, unless ``fsync="never"``, fsync) the WAL tail.

        Called by the engine *before* it shuts worker pools down, so a
        clean close never races durability against teardown; idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._writer is not None:
            if self.fsync != "never":
                self._writer.sync()
            self._writer.close()
            self._writer = None

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Store health: directory, segment/snapshot counts, cursor."""
        segments = wal.list_segments(self.path)
        snapshots = snapshot.list_snapshots(self.path)
        return {
            "dir": str(self.path),
            "segments": len(segments),
            "snapshots": len(snapshots),
            "last_version": self._last_version,
            "records_since_snapshot": self._records_since_snapshot,
            "restored": self.restored,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<CachePersister {state} dir={str(self.path)!r} fsync={self.fsync!r}>"
