"""Warm restart: the per-engine persister and its recovery procedure.

:class:`CachePersister` is attached by the engine when
``EngineConfig.persist.dir`` is set.  It turns every window flush into one
framed WAL record, ``("flush", (spelling, deltas, entries, state))``: the
flush's delta records as columns, the entries it inserted in their native
form, and the engine's small mutable state — one pickle, one checksum, one
write and (unless ``fsync="never"``) one fsync.  It periodically folds
everything into an atomic snapshot, rotating the WAL segment at the same
version.

**Format 3** (this build) journals a cache entry the way the engine holds
it, as one pickled ``(graph, features, answer, tags, added_at)`` tuple of
plain values encoded once, when the entry is inserted — a snapshot copies
those bytes:

* the answer set as its mask over the dataset id space, which the state
  names by :meth:`~repro.graphs.bitset.GraphIdSpace.fingerprint` (a warm
  start against another dataset is refused);
* the features as ``(width, codes, counts)``: the entry's ``(code,
  count)`` pairs, the codes' bytes column by column without the low
  columns no code uses, the counts in the narrowest unsigned width that
  holds them.  The record's ``spelling`` names the label table the codes
  were spelt with (:func:`~repro.features.paths.label_spelling`); a
  process whose table differs re-spells them with one ``bytes.translate``
  (:func:`~repro.features.paths.respelling`) and re-sorts them.  Features
  that are not coded go in as a
  :class:`~repro.features.extractor.GraphFeatures`;
* the graph as its lean state (its name, label and adjacency dicts and
  edge count; :meth:`~repro.graphs.graph.LabeledGraph.from_state`);
* no compiled payloads: the engine compiles an entry when the restored
  cache is replayed into its log;
* the §5.1 statistics of the state as columns ``(ids, H, R, C)``.

Recovery inverts that: load the newest valid snapshot, replay the
segments at or above its version, and *commit* at every ``flush`` record.
The record's checksum makes it atomic, so a crash mid-append drops
exactly that flush — the engine restarts exactly as if the queries after
the previous flush were never submitted, which is the strongest
prefix-consistency a window-flushed cache can offer (and what the
fault-injection tests assert).  Older directories still restore: format 2
journals a flush as ``("flush", (records, meta, state))`` — pickled
:class:`~repro.core.shard.CacheDelta` records, a meta dict and a state
dict — and format 1 (4.x) as ``delta`` / ``meta`` records closed by a
``state`` record, the commit marker.

The persister is a plain reader of the engine's
:class:`~repro.core.shard.DeltaLog`: each flush it serialises
``delta_log.since(cursor)``; a snapshot is the
:func:`~repro.core.shard.fold_deltas` net state of the whole log.
"""

from __future__ import annotations

import logging
import pickle
from array import array
from pathlib import Path

from ..core.config import ConfigError, PersistConfig
from ..core.shard import (
    BROADCAST,
    DELTA_EVICT,
    DELTA_FLUSH,
    DELTA_INSERT,
    CacheDelta,
    ShardEntry,
    fold_deltas,
)
from ..features.extractor import GraphFeatures
from ..features.paths import decode_path_codes, label_spelling, respelling
from ..graphs.graph import LabeledGraph
from . import snapshot, wal

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
#: flush, format 3 that record with its entries in native form)
FORMAT_VERSION = 3

#: one character per delta record in a format-3 flush record
_OP_LETTERS = {DELTA_INSERT: "i", DELTA_EVICT: "e", DELTA_FLUSH: "f"}

#: unsigned array typecode by item width
_UNSIGNED = {array(code).itemsize: code for code in "QIHB"}


class RecoveredState:
    """What recovery found on disk: live entries plus the committed state."""

    def __init__(self, live: dict, meta: dict, state: dict) -> None:
        #: ``entry_id -> CacheDelta`` net state at the last commit
        self.live = live
        #: ``entry_id -> {"answer", "tags", "added_at"}`` (the answer as
        #: journalled: a mask, or a format-1/2 frozenset of graph ids)
        self.meta = meta
        #: the last committed ``state`` record (flush-boundary engine state)
        self.state = state

    def entries(self) -> list[tuple[ShardEntry, dict]]:
        """The live entries' payloads in ascending id order, with their meta."""
        return [
            (self.live[entry_id].entry, self.meta[entry_id])
            for entry_id in sorted(self.live)
        ]


# ----------------------------------------------------------------------
# Format 3: cache entries in native form
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
    """One cached entry as a format-3 record carries it: the pickle of
    ``(graph state, features, answer, tags, added_at)`` — plain values
    only, so that no class is looked up to read it — which a snapshot
    copies instead of pickling the entry again."""
    entry = engine.cache.get(entry_id)
    features = entry.features
    pairs = features.feature_codes()
    if pairs is not None and not features.locations:
        features = _code_columns(pairs)
    graph = entry.graph.__getstate__()
    form = (graph, features, engine.persist_answer(entry), entry.tags, entry.added_at)
    return pickle.dumps(form, protocol=pickle.HIGHEST_PROTOCOL)


def _code_columns(pairs: array) -> tuple[int, bytes, bytes]:
    """``(code, count)`` pairs as ``(width, codes, counts)``: the codes'
    bytes column by column, without the low columns no code uses (a code
    spends its high bytes on its labels, so ``width`` is the longest
    feature's label count), and the counts in the narrowest width that
    holds them."""
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


def _read_entry(entry_id: int, form: bytes, spelling: tuple, table: bytes | None):
    """Inverse of :func:`_entry_form`: ``(shard entry, meta)``.  ``table``
    is the record's :func:`~repro.features.paths.respelling` (``None``
    when this process's label table cannot take the record's labels: the
    features then keep tuple keys)."""
    graph, features, answer, tags, added_at = pickle.loads(form)
    graph = LabeledGraph.from_state(graph)
    if not isinstance(features, GraphFeatures):
        width, code_columns, counts_bytes = features
        raw = _codes_from_columns(width, code_columns)
        codes = array("Q")
        counts = array(_UNSIGNED[len(counts_bytes) * 8 // len(raw)] if raw else "B")
        counts.frombytes(counts_bytes)
        if table is None:
            codes.frombytes(raw)
            features = GraphFeatures(dict(zip(decode_path_codes(codes, spelling), counts)))
        else:
            codes.frombytes(raw.translate(table))
            features = GraphFeatures.from_codes(codes, counts)
    meta = {"answer": answer, "tags": tags, "added_at": added_at}
    return ShardEntry(entry_id, graph, features), meta


def _deltas_form(records: list[CacheDelta]) -> tuple:
    """A flush's delta records as ``(first version, epoch before, ops,
    shards, entry ids)``: the log's versions are dense and its epoch grows
    by one at each flush marker, so only the first record's are kept; the
    last two columns skip the flush markers."""
    first = records[0]
    addressed = [record for record in records if record.op != DELTA_FLUSH]
    return (
        first.version,
        first.epoch - (first.op == DELTA_FLUSH),
        "".join([_OP_LETTERS[record.op] for record in records]),
        _narrow([record.shard for record in addressed]),
        _narrow([record.entry_id for record in addressed]),
    )


def read_flush(payload: tuple) -> tuple[list[CacheDelta], dict, dict]:
    """A ``flush`` record's payload as ``(delta records, meta of the
    entries they insert, state)``, whichever format wrote it."""
    if len(payload) == 3:  # format 2 pickled exactly that
        return payload
    spelling, (first, epoch, ops, shards, entry_ids), entries, state = payload
    table = respelling(spelling)
    records: list[CacheDelta] = []
    meta: dict = {}
    addressed = zip(shards, entry_ids)
    inserted = iter(entries)
    for version, letter in enumerate(ops, first):
        if letter == "f":
            epoch += 1
            records.append(CacheDelta(version, epoch, DELTA_FLUSH, BROADCAST))
            continue
        shard, entry_id = next(addressed)
        if letter == "e":
            records.append(CacheDelta(version, epoch, DELTA_EVICT, shard, entry_id))
            continue
        entry, meta[entry_id] = _read_entry(entry_id, next(inserted), spelling, table)
        records.append(CacheDelta(version, epoch, DELTA_INSERT, shard, entry_id, entry))
    return records, meta, state


def _read_snapshot(payload: dict) -> tuple[dict, dict]:
    """A snapshot's live entries as ``(entry_id -> insert record, meta)``.

    A snapshot does not keep home shards (the committed ``state`` record
    does), so every live entry loads as a shard-0 insert.
    """
    live, meta = {}, {}
    if "entries" in payload:  # format 3
        spelling = payload["spelling"]
        table = respelling(spelling)
        for entry_id, form in zip(payload["ids"], payload["entries"]):
            entry, meta[entry_id] = _read_entry(entry_id, form, spelling, table)
            live[entry_id] = CacheDelta(0, 0, DELTA_INSERT, 0, entry_id, entry)
        return live, meta
    # formats 1 and 2: ``(kind, entry, targets)`` tuples by id (a 3.x
    # snapshot also holds hot ``replica`` tuples; they load like the rest)
    live = {
        entry_id: CacheDelta(0, 0, DELTA_INSERT, 0, entry_id, entry)
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
        #: ``entry_id -> format-3 form`` of the entries journalled since
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
            engine.apply_persist_state(entries, recovered.state, str(self.path))
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
        """The engine's flush-boundary state, stamped with the format
        version, its statistics columns packed narrow."""
        state = engine.persist_state()
        ids, hits, removed, costs = state["entry_stats"]
        state["entry_stats"] = (_narrow(ids), _narrow(hits), _narrow(removed), array("d", costs))
        return {"format": FORMAT_VERSION, **state}

    def _entry_forms(self, engine, entry_ids: list[int], state: dict) -> tuple:
        """The format-3 forms of ``entry_ids``.  A cached entry never
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
    def record_flush(self, engine) -> None:
        """Persist one window flush as one ``flush`` record: its deltas, the
        entries it inserted, and the engine state."""
        if self._closed:
            return
        log = engine.delta_log
        records = log.since(self._last_version)
        if not records:
            return
        state = self._state_record(engine)
        inserted = [record.entry_id for record in records if record.op == DELTA_INSERT]
        entries = self._entry_forms(engine, inserted, state)
        payload = (label_spelling(), _deltas_form(records), entries, state)
        writer = self._writer
        writer.append(("flush", payload))
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
        live = sorted(fold_deltas({}, log.since(0)))
        state = self._state_record(engine)
        entries = self._entry_forms(engine, live, state)
        self._forms = dict(zip(live, entries))  # forget the evicted entries
        payload = {
            "format": FORMAT_VERSION,
            "version": version,
            "epoch": log.epoch,
            "spelling": label_spelling(),
            "ids": _narrow(live),
            "entries": entries,
            "state": state,
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
