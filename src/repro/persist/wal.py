"""Append-only write-ahead log segments for the durable query cache.

Each segment file starts with an 8-byte magic and carries a sequence of
length-prefixed, CRC32-checksummed pickle records.  A record is a
``(kind, payload)`` tuple.  Formats 2 to 4 write one kind, ``"flush"``,
once per window flush: the cache changes of the flush, the entries it
inserted and the engine's small mutable state (formats 3 and 4 in the
engine's native form, format 2 as pickled delta records and dicts — see
:mod:`repro.persist.restore`, which reads them all).  Format 1 wrote the same
flush as one ``"delta"`` record per change, a ``"meta"`` record and a
closing ``"state"`` record; recovery still reads those.

Every pickle this package reads — a segment's records and a snapshot —
loads through :func:`loads`, which maps the two classes format-1/2 pickles
name in ``repro.core.shard`` (removed in 11.0) onto :class:`Delta` and
:class:`Entry` here.

Segments are named by the journal version they start *after*
(``wal-<version>.seg``) and rotate when a snapshot is written, so recovery
is always "newest valid snapshot + the segments at or above its version".
A torn tail — a record cut short by a crash mid-append, or one whose
checksum no longer matches — ends the replay at the last intact record;
:func:`read_segment` with ``repair=True`` truncates the file back to that
prefix in place, restoring the append invariant for the next writer.
"""

from __future__ import annotations

import io
import logging
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

logger = logging.getLogger(__name__)

__all__ = [
    "MAGIC",
    "Delta",
    "Entry",
    "SegmentScan",
    "WalWriter",
    "encode_record",
    "list_segments",
    "loads",
    "prune_segments",
    "read_segment",
    "segment_name",
    "segment_start_version",
]

#: segment file magic; the trailing digits version the framing format
MAGIC = b"IGQWAL01"

#: ``<length, crc32>`` little-endian record header
_HEADER = struct.Struct("<II")


@dataclass
class Entry:
    """A journalled cache entry as a format-1/2 record pickled it (named
    ``repro.core.shard.ShardEntry`` there) and as
    :func:`repro.persist.restore.read_flush` returns one: the graph, its
    features and any compiled forms the record carried."""

    entry_id: int
    graph: object
    features: object
    compiled_target: object | None = None
    compiled_plan: object | None = None


@dataclass(frozen=True)
class Delta:
    """One cache change of a journalled flush (named
    ``repro.core.shard.CacheDelta`` in format-1/2 pickles).

    ``version`` is the change's journal number (dense, 1-based), ``epoch``
    the flush generation it belongs to; ``op`` is ``"insert"`` (with its
    :class:`Entry`), ``"evict"`` or the ``"flush"`` marker that closes a
    flush, and ``shard`` the entry's home (``-1`` on a marker).  A 3.x
    journal may also hold ``"replicate"`` / ``"move"`` changes.
    """

    version: int
    epoch: int
    op: str
    shard: int
    entry_id: int | None = None
    entry: Entry | None = None


#: ``(module, name)`` a format-1/2 pickle names -> the class it loads as
_RENAMED = {
    ("repro.core.shard", "CacheDelta"): Delta,
    ("repro.core.shard", "ShardEntry"): Entry,
}


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        renamed = _RENAMED.get((module, name))
        return renamed if renamed is not None else super().find_class(module, name)


def loads(data: bytes):
    """Unpickle one record or snapshot payload (see the module docs)."""
    return _Unpickler(io.BytesIO(data)).load()


def segment_name(version: int) -> str:
    """File name of the segment holding records after journal ``version``."""
    return f"wal-{version:016d}.seg"


def segment_start_version(name: str) -> int | None:
    """Inverse of :func:`segment_name` (``None`` for foreign files)."""
    if not (name.startswith("wal-") and name.endswith(".seg")):
        return None
    digits = name[4:-4]
    if not digits.isdigit():
        return None
    return int(digits)


def list_segments(path: Path) -> list[tuple[int, Path]]:
    """The ``(start_version, path)`` segments under ``path``, oldest first."""
    segments = []
    for child in Path(path).iterdir():
        version = segment_start_version(child.name)
        if version is not None:
            segments.append((version, child))
    segments.sort()
    return segments


def prune_segments(path: Path, keep_version: int) -> int:
    """Delete segments below ``keep_version`` (superseded by a snapshot)."""
    removed = 0
    for version, segment in list_segments(path):
        if version < keep_version:
            segment.unlink(missing_ok=True)
            removed += 1
    return removed


def encode_record(obj) -> bytes:
    """Frame one record: length + CRC32 header, pickled payload."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


class WalWriter:
    """Appends framed records to one segment file.

    ``fsync_mode`` mirrors ``PersistConfig.fsync``: the writer itself only
    ever fsyncs when :meth:`sync` is called — the persister decides the
    cadence (once per window flush), so ``"never"`` engines simply never
    call it.
    """

    def __init__(self, path: Path, fsync_mode: str = "flush") -> None:
        self.path = Path(path)
        self.fsync_mode = fsync_mode
        self._file = open(self.path, "ab")
        if self._file.tell() == 0:
            self._file.write(MAGIC)

    def append(self, obj) -> int:
        """Append one record; returns its framed size in bytes."""
        frame = encode_record(obj)
        self._file.write(frame)
        return len(frame)

    def flush(self) -> None:
        """Push buffered bytes to the OS (no durability guarantee)."""
        self._file.flush()

    def sync(self) -> None:
        """Flush and fsync: everything appended so far survives power loss."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush and close the segment (idempotent)."""
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None

    @property
    def closed(self) -> bool:
        return self._file is None

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<WalWriter {state} {self.path.name} fsync={self.fsync_mode!r}>"


@dataclass
class SegmentScan:
    """Result of reading one segment: the intact prefix and its extent."""

    #: decoded ``(kind, payload)`` records of the intact prefix
    records: list = field(default_factory=list)
    #: framed byte size of each of :attr:`records`
    sizes: list = field(default_factory=list)
    #: the whole file decoded — nothing was torn or corrupt
    clean: bool = True
    #: byte length of the intact prefix (magic included)
    valid_bytes: int = 0
    #: byte length of the file as read
    total_bytes: int = 0
    #: why the scan stopped early (``None`` when clean)
    reason: str | None = None


def read_segment(path: Path, repair: bool = False) -> SegmentScan:
    """Decode a segment's intact prefix; optionally truncate a torn tail.

    Every failure mode a crash can leave behind — a short record header, a
    payload cut mid-write, a checksum mismatch from a partially overwritten
    block, an unpicklable payload — ends the scan at the last record that
    round-trips, so no partial record is ever surfaced to recovery.  With
    ``repair=True`` the file is truncated (and fsynced) back to that
    prefix, which is exactly the state an interrupted append never ran.
    """
    path = Path(path)
    data = path.read_bytes()
    total = len(data)
    scan = SegmentScan(total_bytes=total)
    if not data.startswith(MAGIC):
        scan.clean = total == 0
        scan.reason = None if scan.clean else "bad segment magic"
        scan.valid_bytes = 0
    else:
        offset = len(MAGIC)
        while offset < total:
            if offset + _HEADER.size > total:
                scan.reason = "torn record header"
                break
            length, crc = _HEADER.unpack_from(data, offset)
            end = offset + _HEADER.size + length
            if end > total:
                scan.reason = "torn record payload"
                break
            payload = data[offset + _HEADER.size : end]
            if zlib.crc32(payload) != crc:
                scan.reason = "record checksum mismatch"
                break
            try:
                record = loads(payload)
            except Exception:  # noqa: BLE001 - any undecodable record is torn
                scan.reason = "undecodable record payload"
                break
            scan.records.append(record)
            scan.sizes.append(end - offset)
            offset = end
        scan.valid_bytes = offset
        scan.clean = scan.reason is None
    if repair and not scan.clean:
        logger.warning(
            "repairing %s (%s): dropping %d byte(s) after the last intact record",
            path, scan.reason, total - scan.valid_bytes,
        )
        with open(path, "r+b") as file:
            file.truncate(scan.valid_bytes)
            file.flush()
            os.fsync(file.fileno())
    return scan
