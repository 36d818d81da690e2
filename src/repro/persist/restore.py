"""Warm restart: the per-engine persister and its recovery procedure.

:class:`CachePersister` is attached by the engine when
``EngineConfig.persist.dir`` is set.  It turns every window flush into one
framed WAL record, ``("flush", (records, meta, state))``: the flush's
delta records, the immutable extras of the entries that entered the
cache, and the engine's small mutable state — one pickle, one checksum,
one write and (unless ``fsync="never"``) one fsync.  It periodically folds
everything into an atomic snapshot, rotating the WAL segment at the same
version.

Recovery inverts that: load the newest valid snapshot, replay the
segments at or above its version, and *commit* at every ``flush`` record.
The record's checksum makes it atomic, so a crash mid-append drops
exactly that flush — the engine restarts exactly as if the queries after
the previous flush were never submitted, which is the strongest
prefix-consistency a window-flushed cache can offer (and what the
fault-injection tests assert).  Format-1 directories (4.x) journal a
flush as ``delta`` / ``meta`` records closed by a ``state`` record, the
commit marker; recovery still folds them.

The persister is a plain reader of the engine's
:class:`~repro.core.shard.DeltaLog`: each flush it serialises
``delta_log.since(cursor)``; a snapshot is the
:func:`~repro.core.shard.fold_deltas` net state of the whole log.
"""

from __future__ import annotations

import logging
from pathlib import Path

from ..core.config import ConfigError, PersistConfig
from ..core.shard import DELTA_INSERT, CacheDelta, ShardEntry, fold_deltas
from . import snapshot, wal

logger = logging.getLogger(__name__)

__all__ = ["CachePersister", "RecoveredState", "attach_persistence", "recover_dir"]

#: bump on any incompatible change to the record/state schema; this build
#: reads every format from 1 up to it (format 1 wrote ``delta`` / ``meta``
#: / ``state`` records, format 2 one ``flush`` record per window flush)
FORMAT_VERSION = 2

#: the kind every live-entry ``(kind, entry, targets)`` tuple of a snapshot
#: is written with; a 3.x snapshot may also hold ``"replica"`` tuples (hot
#: entries), which load as home entries like the rest
KIND_HOME = "home"


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
        # A snapshot does not keep home shards (the committed ``state``
        # record does), so every live entry loads as a shard-0 insert.
        live = {
            entry_id: CacheDelta(0, 0, DELTA_INSERT, 0, entry_id, entry)
            for entry_id, (_, entry, _) in payload.get("live", {}).items()
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
                raise ValueError(f"{segment.name} holds a malformed WAL record {record!r:.60}")
            kind, payload = record
            if kind == "flush":
                records, fresh_meta, state = payload
                fold_deltas(live, records)
                meta.update(fresh_meta)
                committed = (dict(live), dict(meta), state)
            elif kind == "delta":
                fold_deltas(live, (payload,))
            elif kind == "meta":
                meta.update(payload)
            elif kind == "state":
                state = payload
                committed = (dict(live), dict(meta), state)
            else:
                raise ValueError(f"{segment.name} holds an unknown WAL record kind {kind!r}")
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
        if state.get("format") not in range(1, FORMAT_VERSION + 1):
            raise ConfigError(
                f"persist.dir holds format {state.get('format')!r} state; "
                f"this build reads formats 1 to {FORMAT_VERSION} (use a fresh "
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
        """Persist one window flush as one ``flush`` record: its deltas, the
        meta of the entries it inserted, and the engine state."""
        if self._closed:
            return
        log = engine.delta_log
        records = log.since(self._last_version)
        if not records:
            return
        fresh_meta = {
            record.entry_id: engine.persist_entry_meta(record.entry_id)
            for record in records
            if record.op == DELTA_INSERT
        }
        writer = self._writer
        writer.append(("flush", (records, fresh_meta, self._state_record(engine))))
        if self.fsync == "never":
            writer.flush()
        else:
            writer.sync()
        self._last_version = log.version
        # the record count a format-1 batch had (deltas + meta + state), so
        # the snapshot cadence is unchanged
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
            entry_id: (KIND_HOME, record.entry, None)
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

        Called by the engine *before* it closes its shard runtime, so a
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
