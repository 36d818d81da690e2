"""Atomic snapshots of the durable query cache.

A snapshot is the live cache at one journal version: every live entry
(graph, features, answer set, tags) plus the engine's small mutable state,
written as a single checksummed record behind the same framing
:mod:`repro.persist.wal` uses, and loaded through
:func:`~repro.persist.wal.loads`.

Durability relies on the classic temp-file dance: write to a ``.tmp``
sibling, flush + fsync it, :func:`os.replace` onto the final name, fsync
the directory.  A crash at any point leaves either the previous snapshot
or the new one — never a half-written file under the final name — and
recovery validates the checksum anyway, so even a torn rename on a
filesystem without atomic replace degrades to "use the older snapshot".
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

from . import wal

__all__ = [
    "SNAP_MAGIC",
    "list_snapshots",
    "load_latest_snapshot",
    "load_snapshot",
    "prune_snapshots",
    "snapshot_name",
    "snapshot_version",
    "write_snapshot",
]

#: snapshot file magic (framing versioned like the WAL's)
SNAP_MAGIC = b"IGQSNAP1"


def snapshot_name(version: int) -> str:
    """File name of the snapshot folded up to WAL ``version``."""
    return f"snap-{version:016d}.snap"


def snapshot_version(name: str) -> int | None:
    """Inverse of :func:`snapshot_name` (``None`` for foreign files)."""
    if not (name.startswith("snap-") and name.endswith(".snap")):
        return None
    digits = name[5:-5]
    if not digits.isdigit():
        return None
    return int(digits)


def list_snapshots(path: Path) -> list[tuple[int, Path]]:
    """The ``(version, path)`` snapshots under ``path``, oldest first."""
    snapshots = []
    for child in Path(path).iterdir():
        version = snapshot_version(child.name)
        if version is not None:
            snapshots.append((version, child))
    snapshots.sort()
    return snapshots


def write_snapshot(path: Path, version: int, payload: dict, fsync: bool = True) -> Path:
    """Atomically publish ``payload`` as the snapshot at ``version``."""
    path = Path(path)
    target = path / snapshot_name(version)
    tmp = path / f"{target.name}.{os.getpid()}.tmp"
    with open(tmp, "wb") as file:
        file.write(SNAP_MAGIC)
        file.write(wal.encode_record(payload))
        file.flush()
        if fsync:
            os.fsync(file.fileno())
    os.replace(tmp, target)
    if fsync:
        _fsync_dir(path)
    return target


def load_snapshot(path: Path) -> dict | None:
    """Decode one snapshot file; ``None`` if it fails validation."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    if not data.startswith(SNAP_MAGIC):
        return None
    body = data[len(SNAP_MAGIC) :]
    if len(body) < wal._HEADER.size:
        return None
    length, crc = wal._HEADER.unpack_from(body, 0)
    payload = body[wal._HEADER.size : wal._HEADER.size + length]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        record = wal.loads(payload)
    except Exception:  # noqa: BLE001 - a corrupt snapshot is just skipped
        return None
    return record if isinstance(record, dict) else None


def load_latest_snapshot(path: Path) -> tuple[int, dict] | None:
    """Newest snapshot that validates, as ``(version, payload)``."""
    for version, snapshot_path in reversed(list_snapshots(path)):
        payload = load_snapshot(snapshot_path)
        if payload is not None:
            return version, payload
    return None


def prune_snapshots(path: Path, keep_version: int) -> int:
    """Delete snapshots below ``keep_version`` and stray ``.tmp`` leftovers.

    A ``.tmp`` sibling is the residue of a writer killed mid-rename; it was
    never the published snapshot, so recovery already ignores it and
    deleting it here is pure housekeeping.
    """
    removed = 0
    for version, snapshot_path in list_snapshots(path):
        if version < keep_version:
            snapshot_path.unlink(missing_ok=True)
            removed += 1
    for child in Path(path).glob("*.tmp"):
        child.unlink(missing_ok=True)
        removed += 1
    return removed


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
