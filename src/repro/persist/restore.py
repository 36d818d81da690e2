"""Warm restart: the per-engine persister and its recovery procedure.

:class:`CachePersister` is attached by the engine when
``EngineConfig.persist.dir`` is set.  It turns every window flush into one
framed WAL record, ``("flush", (spelling, changes, entries, state))``: the
flush report's evictions and inserts as columns, the entries it inserted
in their native form, and the engine's small mutable state — one pickle,
one checksum, one write and (unless ``fsync="never"``) one fsync.  It
periodically writes the live cache as an atomic snapshot, rotating the WAL
segment at the same version.  The record and the snapshot are built on the
engine's thread; writing them is the job of the persister's journal writer
thread, and :meth:`CachePersister.record_flush` returns the commit future
that resolves once the record is durable.

**Format 4** (this build) journals a cache entry the way the engine holds
it, as one pickled ``(graph, features, answer, tags, added_at)`` tuple of
plain values encoded once, when the entry is inserted — a snapshot copies
those bytes:

* the answer set as its mask over the dataset id space, which the state
  names by :meth:`~repro.graphs.bitset.GraphIdSpace.fingerprint` (a warm
  start against another dataset is refused);
* the features as ``(width, codes, counts)``: the entry's ``(code,
  count)`` pairs, the codes' bytes column by column without the low
  columns no code uses, the counts in the narrowest unsigned width that
  holds them.  A code (:func:`~repro.features.paths.path_code`) is the
  same in every process, so it is stored and read back as it is;
* the graph as its lean state (its name, label and adjacency dicts and
  edge count; :meth:`~repro.graphs.graph.LabeledGraph.from_state`);
* no compiled payloads: a restored entry compiles as it joins its replica;
* the §5.1 statistics of the state as columns ``(ids, H, R, C)``.

The ``changes`` are ``(first version, epoch before, ops, shards, entry
ids)``: one op letter per change — ``e`` per eviction, then ``i`` per
insert, then the ``f`` that closes the flush — and each change's home
shard and entry id.  The persister numbers changes itself: versions are
dense, and each flush adds one epoch.  The record's first field (and a
snapshot's ``spelling``) is empty: format 3 named the label table its
codes spelt there, and keeping the slot lets a format-3 build read a
format-4 directory far enough to refuse it by its state's format.

Recovery inverts that: load the newest valid snapshot, replay the
segments at or above its version, and *commit* at every ``flush`` record.
The record's checksum makes it atomic, so a crash mid-append drops
exactly that flush — the engine restarts exactly as if the queries after
the previous flush were never submitted, which is the strongest
prefix-consistency a window-flushed cache can offer (and what the
fault-injection tests assert).  Older directories still restore, their
features re-coded through :func:`~repro.features.paths.path_code`: format
3 spelt a feature's code with one byte per label of a per-process table
whose texts the record names; format 2 journals a flush as ``("flush",
(records, meta, state))`` — pickled delta records
(:class:`~repro.persist.wal.Delta`), a meta dict and a state dict — and
format 1 (4.x) as ``delta`` / ``meta`` records closed by a ``state``
record, the commit marker; both pickle features by tuple key.
"""

from __future__ import annotations

import logging
import pickle
import queue
import threading
import weakref
from array import array
from concurrent.futures import Future
from dataclasses import replace as dataclass_replace
from functools import partial
from pathlib import Path

from ..core.config import ConfigError, PersistConfig
from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from . import snapshot, wal
from .engine_state import apply_persist_state, persist_answer, persist_state
from .wal import Delta, Entry

logger = logging.getLogger(__name__)

__all__ = [
    "CachePersister",
    "RecoveredState",
    "attach_persistence",
    "read_flush",
    "recover_dir",
]

#: bump on any incompatible change to the record/state schema; this build
#: reads every format from 1 up to it (format 1 wrote ``delta`` / ``meta``
#: / ``state`` records, format 2 one pickled ``flush`` record per window
#: flush, format 3 that record with its entries in native form, format 4
#: with hashed feature codes)
FORMAT_VERSION = 4

#: a change's op by its letter in a format-3 flush record
_OPS = {"i": "insert", "e": "evict", "f": "flush"}

#: unsigned array typecode by item width
_UNSIGNED = {array(code).itemsize: code for code in "QIHB"}


class RecoveredState:
    """What recovery found on disk: live entries plus the committed state."""

    def __init__(self, live: dict, meta: dict, state: dict) -> None:
        #: ``entry_id -> Delta`` (its insert) net state at the last commit
        self.live = live
        #: ``entry_id -> {"answer", "tags", "added_at"}`` (the answer as
        #: journalled: a mask, or a format-1/2 frozenset of graph ids)
        self.meta = meta
        #: the last committed ``state`` record (flush-boundary engine state)
        self.state = state

    def entries(self) -> list[tuple[Entry, dict]]:
        """The live entries' payloads in ascending id order, with their meta."""
        return [
            (self.live[entry_id].entry, self.meta[entry_id])
            for entry_id in sorted(self.live)
        ]


# ----------------------------------------------------------------------
# Formats 3 and 4: cache entries in native form
# ----------------------------------------------------------------------
def _narrow(values: list[int]) -> array:
    """Non-negative ints in the narrowest unsigned array that holds them."""
    top = max(values, default=0)
    if top < 256:
        return array("B", bytes(values))
    for width, typecode in sorted(_UNSIGNED.items()):
        if top >> (8 * width) == 0:
            return array(typecode, values)
    raise OverflowError(f"{top} does not fit an unsigned 64-bit column")


def _entry_form(engine, entry_id: int) -> bytes:
    """One cached entry as a format-4 record carries it: the pickle of
    ``(graph state, features, answer, tags, added_at)`` — plain values
    only, so that no class is looked up to read it — which a snapshot
    copies instead of pickling the entry again."""
    entry = engine.cache.get(entry_id)
    features = _code_columns(entry.features.feature_codes())
    graph = entry.graph.__getstate__()
    form = (graph, features, persist_answer(engine, entry), entry.tags, entry.added_at)
    return pickle.dumps(form, protocol=pickle.HIGHEST_PROTOCOL)


def _code_columns(pairs: array) -> tuple[int, bytes, bytes]:
    """``(code, count)`` pairs as ``(width, codes, counts)``: the codes'
    bytes column by column, without the low columns no code uses, and the
    counts in the narrowest width that holds them."""
    raw = pairs[0::2].tobytes()
    zero = bytes(len(raw) // 8)
    low = 0
    while low < 8 and raw[low::8] == zero:
        low += 1
    codes = b"".join([raw[column::8] for column in range(low, 8)])
    return 8 - low, codes, _narrow(pairs[1::2].tolist()).tobytes()


def _codes_from_columns(width: int, codes: bytes) -> bytearray:
    """The raw bytes of the code array :func:`_code_columns` took apart."""
    size = len(codes) // width if width else 0
    raw = bytearray(8 * size)
    for column in range(width):
        raw[8 - width + column :: 8] = codes[column * size : (column + 1) * size]
    return raw


def _spelt_keys(codes: array, spelling: tuple) -> list[tuple[str, ...]]:
    """The label-path keys format-3 ``codes`` spell: a code's bytes, most
    significant first, are labels of the record's ``spelling`` (byte ``b``
    is ``spelling[b - 1]``, 0 ends the path)."""
    texts = [None, *spelling]
    return [tuple(texts[b] for b in code.to_bytes(8, "big").rstrip(b"\0")) for code in codes]


def _read_entry(entry_id: int, form: bytes, spelling: tuple | None):
    """Inverse of :func:`_entry_form`: ``(entry, meta)``.  ``spelling`` is
    a format-3 record's label table (its codes are re-coded through their
    keys), ``None`` for format 4."""
    graph, features, answer, tags, added_at = pickle.loads(form)
    graph = LabeledGraph.from_state(graph)
    if not isinstance(features, GraphFeatures):  # else a pickle, coded on load
        width, code_columns, counts_bytes = features
        raw = _codes_from_columns(width, code_columns)
        codes = array("Q")
        codes.frombytes(raw)
        counts = array(_UNSIGNED[len(counts_bytes) * 8 // len(raw)] if raw else "B")
        counts.frombytes(counts_bytes)
        if spelling is None:
            features = GraphFeatures(dict(zip(codes, counts)))
        else:
            features = GraphFeatures.from_keys(dict(zip(_spelt_keys(codes, spelling), counts)))
    meta = {"answer": answer, "tags": tags, "added_at": added_at}
    return Entry(entry_id, graph, features), meta


def read_flush(payload: tuple) -> tuple[list[Delta], dict, dict]:
    """A ``flush`` record's payload as ``(changes, meta of the entries
    they insert, state)``, whichever format wrote it."""
    state = payload[-1]
    if state["format"] == 2:  # format 2 pickled exactly that
        return payload
    spelling, (first, epoch, ops, shards, entry_ids), entries, state = payload
    if state["format"] != 3:
        spelling = None
    records: list[Delta] = []
    meta: dict = {}
    addressed = zip(shards, entry_ids)
    inserted = iter(entries)
    for version, letter in enumerate(ops, first):
        if letter == "f":
            epoch += 1
            records.append(Delta(version, epoch, "flush", -1))
            continue
        shard, entry_id = next(addressed)
        entry = None
        if letter == "i":
            entry, meta[entry_id] = _read_entry(entry_id, next(inserted), spelling)
        records.append(Delta(version, epoch, _OPS[letter], shard, entry_id, entry))
    return records, meta, state


def _fold(live: dict[int, Delta], records) -> dict[int, Delta]:
    """Fold ``records`` (oldest first) into the net state ``entry_id ->
    insert``: an ``insert`` becomes the entry's live record, an ``evict``
    drops it, and ``flush`` markers fold away.  A WAL written before 4.0
    may also hold ``replicate`` records (a hot entry's copy — live like an
    insert, the only record of an entry that was born hot) and ``move``
    records (a re-homing: the live record takes the move's shard and
    payload, keeping its version); a recovered entry then lives at the
    home the committed state names."""
    for record in records:
        op = record.op
        if op == "insert" or op == "replicate":
            live[record.entry_id] = record
        elif op == "evict":
            live.pop(record.entry_id, None)
        elif op == "move":
            moved = live.get(record.entry_id)
            if moved is not None:
                live[record.entry_id] = dataclass_replace(
                    moved, shard=record.shard, entry=record.entry
                )
        elif op != "flush":
            raise ValueError(f"unknown delta op {op!r}")
    return live


def _read_snapshot(payload: dict) -> tuple[dict, dict]:
    """A snapshot's live entries as ``(entry_id -> insert record, meta)``.

    A snapshot does not keep home shards (the committed ``state`` record
    does), so every live entry loads as a shard-0 insert.
    """
    live, meta = {}, {}
    if "entries" in payload:  # formats 3 and 4
        spelling = payload["spelling"] if payload["format"] == 3 else None
        for entry_id, form in zip(payload["ids"], payload["entries"]):
            entry, meta[entry_id] = _read_entry(entry_id, form, spelling)
            live[entry_id] = Delta(0, 0, "insert", 0, entry_id, entry)
        return live, meta
    # formats 1 and 2: ``(kind, entry, targets)`` tuples by id (a 3.x
    # snapshot also holds hot ``replica`` tuples; they load like the rest)
    live = {
        entry_id: Delta(0, 0, "insert", 0, entry_id, entry)
        for entry_id, (_, entry, _) in payload.get("live", {}).items()
    }
    return live, dict(payload.get("meta", {}))


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
        live, meta = _read_snapshot(payload)
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
                records, fresh_meta, state = read_flush(payload)
                _fold(live, records)
                meta.update(fresh_meta)
                committed = (dict(live), dict(meta), state)
            elif kind == "delta":
                _fold(live, (payload,))
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


class _Journal:
    """The open WAL segment of one persist directory and the I/O on it.

    Every method runs on the persister's journal writer thread, one job
    after the other (a directory's first checkpoint runs at open, before
    the thread exists), so nothing here is locked.
    """

    def __init__(self, path: Path, fsync: str) -> None:
        self.path = path
        self.fsync = fsync
        self.wal: wal.WalWriter | None = None

    def append(self, payload: tuple) -> None:
        """Append one ``flush`` record and make it durable (or, with
        ``fsync="never"``, hand it to the OS)."""
        self.wal.append(("flush", payload))
        if self.fsync == "never":
            self.wal.flush()
        else:
            self.wal.sync()

    def checkpoint(self, version: int, payload: dict, wipe: bool) -> None:
        """Publish the snapshot at ``version``, rotate the segment to start
        there, and drop what the snapshot supersedes (with ``wipe``, every
        other artifact)."""
        snapshot.write_snapshot(self.path, version, payload, fsync=self.fsync != "never")
        if self.wal is not None:
            self.wal.close()
        segment_path = self.path / wal.segment_name(version)
        # Never append behind a leftover segment of the same name (a prior
        # incarnation may have used this version before crashing).
        segment_path.unlink(missing_ok=True)
        self.wal = wal.WalWriter(segment_path, fsync_mode=self.fsync)
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

    def close(self, sync: bool) -> None:
        """Flush (and with ``sync``, fsync) the segment tail, then close it."""
        if self.wal is not None:
            if sync:
                self.wal.sync()
            self.wal.close()
            self.wal = None


def _write_journal(jobs: queue.SimpleQueue) -> None:
    """The journal writer thread: run ``(job, commit)`` pairs in order.

    A job's commit future resolves once it has run.  The first failure
    fails its commit and every later one without running them: the
    segment may end in a torn record, and nothing may be appended behind
    it.  ``None`` stops the thread.  The thread holds the queue only, so a
    persister that is dropped unclosed still dies (its finalizer sends
    the ``None``).
    """
    failure: BaseException | None = None
    while True:
        item = jobs.get()
        if item is None:
            return
        job, commit = item
        if failure is None:
            try:
                job()
            except BaseException as exc:  # noqa: BLE001 - must reach the commit
                failure = exc
        if failure is None:
            commit.set_result(None)
        else:
            commit.set_exception(failure)
        # hold nothing while waiting: the last job would keep the journal
        # (and its open segment) alive after its persister is dropped
        del item, job, commit


class CachePersister:
    """Durable WAL + snapshot store behind one engine (see module docs).

    The records and snapshots are built on the caller at the flush
    boundary.  Their durable I/O runs on one journal writer thread,
    started at the first flush: the record's
    :meth:`~repro.persist.wal.WalWriter.append` and fsync, and a
    checkpoint's snapshot write, segment rotation and pruning.
    :meth:`record_flush` returns the flush's commit future, which resolves
    once the record is durable — with ``fsync="never"``, once the writer
    has handed it to the OS.
    """

    def __init__(self, engine, config: PersistConfig) -> None:
        self.config = config
        self.path = Path(config.dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = config.fsync
        self.snapshot_interval = config.snapshot_interval
        self._closed = False
        self._journal = _Journal(self.path, self.fsync)
        #: the journal writer's queue and thread (``None`` until the first
        #: flush), the finalizer that stops the thread, and the commit of
        #: the last job queued
        self._jobs: queue.SimpleQueue | None = None
        self._thread: threading.Thread | None = None
        self._stop = None
        self._last_commit: Future | None = None
        self._records_since_snapshot = 0
        #: ``entry_id -> format-4 form`` of the entries journalled since
        #: the last snapshot or live at it, and the fingerprint of the id
        #: space their answer masks index
        self._forms: dict[int, bytes] = {}
        self._forms_space: str | None = None
        #: whether this open actually rebuilt state from disk
        self.restored = False

        recovered = recover_dir(self.path)
        if recovered is not None:
            self._check_compatible(engine, recovered.state)
            entries = recovered.entries()
            apply_persist_state(engine, entries, recovered.state, str(self.path))
            self.restored = bool(entries) or recovered.state.get("query_counter", 0) > 0

        # The journal's numbering restarts as if the live cache had been
        # inserted by one flush: a change per entry and its flush marker.
        live = len(engine.cache)
        #: version of the newest change on disk and the flush generation
        self._version = live + 1 if live else 0
        self._epoch = 1 if live else 0
        # Fresh on-disk base: the restored (or empty) cache as a snapshot
        # and a clean segment at its version.  ``wipe`` drops every other
        # artifact: the numbering restarted from the live-entry count, so
        # the previous incarnation's higher-versioned files would otherwise
        # outrank the new snapshot at the next recovery.
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
        """The engine's flush-boundary state, stamped with the format
        version, its statistics columns packed narrow."""
        state = persist_state(engine)
        ids, hits, removed, costs = state["entry_stats"]
        state["entry_stats"] = (_narrow(ids), _narrow(hits), _narrow(removed), array("d", costs))
        return {"format": FORMAT_VERSION, **state}

    def _entry_forms(self, engine, entry_ids: list[int], state: dict) -> tuple:
        """The format-4 forms of ``entry_ids``.  A cached entry never
        changes, so each is encoded once, at its insert, and a snapshot
        copies those bytes; the memo starts over when the answers' id
        space (the ``state``'s) is not the one its masks index."""
        if state["id_space"] != self._forms_space:
            self._forms, self._forms_space = {}, state["id_space"]
        forms = self._forms
        for entry_id in entry_ids:
            if entry_id not in forms:
                forms[entry_id] = _entry_form(engine, entry_id)
        return tuple([forms[entry_id] for entry_id in entry_ids])

    # ------------------------------------------------------------------
    # Per-flush append path
    # ------------------------------------------------------------------
    def record_flush(self, engine, report, homes: list[int]) -> Future | None:
        """Persist one window flush as one ``flush`` record: the report's
        evictions and inserts with their ``homes`` (as
        :meth:`Placement.apply <repro.core.placement.Placement.apply>`
        returned them), the entries it inserted, and the engine state the
        flush left behind.

        Returns the record's commit future, or ``None`` once closed.  No
        result computed after this flush may be acknowledged before the
        commit resolves.  A failed write fails this commit and every later
        one.
        """
        if self._closed:
            return None
        evicted = [entry.entry_id for entry in report.evicted_entries]
        inserted = [entry.entry_id for entry in report.inserted_entries]
        state = self._state_record(engine)
        ops = "e" * len(evicted) + "i" * len(inserted) + "f"
        changes = (self._version + 1, self._epoch, ops, _narrow(homes), _narrow(evicted + inserted))
        entries = self._entry_forms(engine, inserted, state)
        payload = ((), changes, entries, state)
        commit = self._submit(partial(self._journal.append, payload))
        self._version += len(ops)
        self._epoch += 1
        # the record count a format-1 batch had (changes + meta + state), so
        # the snapshot cadence is unchanged
        self._records_since_snapshot += len(ops) + 2
        if self._records_since_snapshot >= self.snapshot_interval:
            self._checkpoint(engine)
        return commit

    def _submit(self, job) -> Future:
        """Queue ``job`` behind every earlier one; returns its commit."""
        if self._jobs is None:
            self._jobs = queue.SimpleQueue()
            self._thread = threading.Thread(
                target=_write_journal, args=(self._jobs,), name="journal-writer", daemon=True
            )
            self._thread.start()
            self._stop = weakref.finalize(self, self._jobs.put, None)
        commit: Future = Future()
        self._jobs.put((job, commit))
        self._last_commit = commit
        return commit

    # ------------------------------------------------------------------
    # Snapshot + segment rotation
    # ------------------------------------------------------------------
    def _checkpoint(self, engine, wipe: bool = False) -> None:
        """Snapshot the live cache at the current version; rotate the WAL.

        The payload is built here and written by the journal after every
        record queued before it (inline with ``wipe``, at open).
        """
        version = self._version
        live = sorted(engine.cache.entry_ids())
        state = self._state_record(engine)
        entries = self._entry_forms(engine, live, state)
        self._forms = dict(zip(live, entries))  # forget the evicted entries
        payload = {
            "format": FORMAT_VERSION,
            "version": version,
            "epoch": self._epoch,
            "spelling": (),
            "ids": _narrow(live),
            "entries": entries,
            "state": state,
        }
        self._records_since_snapshot = 0
        job = partial(self._journal.checkpoint, version, payload, wipe)
        if wipe:
            job()
        else:
            self._submit(job)

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write every queued job, flush (and, unless ``fsync="never"``,
        fsync) the WAL tail, and stop the journal writer.

        Idempotent.  After a failed write the tail is closed without an
        fsync, and the failure is not raised again: the commits carry it.
        """
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._stop()  # the writer finishes every job queued before this
            self._thread.join()
        failed = self._last_commit is not None and self._last_commit.exception() is not None
        self._journal.close(sync=self.fsync != "never" and not failed)

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
            "last_version": self._version,
            "records_since_snapshot": self._records_since_snapshot,
            "restored": self.restored,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"<CachePersister {state} dir={str(self.path)!r} fsync={self.fsync!r}>"
