"""WAL/snapshot inspection: ``python -m repro.persist.inspect <dir>``.

Read-only by default — the dump never repairs a torn tail, so it is safe
to point at the live directory of a running engine.  ``--records`` prints
one line per WAL record (a ``flush`` record: its version range, the ids it
inserted and evicted, its framed size and the query counter); the summary
always reports, per segment, how many records decode cleanly and where
(and why) a torn tail begins.  Directories of every format this build
restores (1 to 3) can be read.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from . import snapshot, wal
from .restore import read_flush

__all__ = ["main"]


def _describe_record(record, size: int) -> str:
    if not (isinstance(record, tuple) and len(record) == 2):
        return f"?? {record!r:.60}"
    kind, payload = record
    if kind == "flush":
        records, _, state = read_flush(payload)
        inserted = [delta.entry_id for delta in records if delta.op == "insert"]
        evicted = [delta.entry_id for delta in records if delta.op == "evict"]
        return (
            f"flush v{records[0].version}-{records[-1].version} "
            f"inserted={inserted} evicted={evicted} bytes={size} "
            f"queries={state.get('query_counter')}"
        )
    if kind == "delta":
        parts = [f"delta v{payload.version} {payload.op} shard={payload.shard}"]
        if payload.entry_id is not None:
            parts.append(f"entry={payload.entry_id}")
        if payload.entry is not None:
            graph = payload.entry.graph
            parts.append(f"graph={graph.num_vertices}v/{graph.num_edges}e")
        return " ".join(parts)
    if kind == "meta":
        return f"meta entries={sorted(payload)}"
    if kind == "state":
        return (
            f"state queries={payload.get('query_counter')} "
            f"entries={len(payload.get('entry_stats', {}))} "
            f"shards={payload.get('shards')} mode={payload.get('mode')}"
        )
    return f"{kind} {payload!r:.60}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.persist.inspect",
        description="Dump the WAL segments and snapshots of a persist directory.",
    )
    parser.add_argument("dir", help="the PersistConfig.dir to inspect")
    parser.add_argument(
        "--records", action="store_true", help="print every decoded WAL record"
    )
    args = parser.parse_args(argv)
    path = Path(args.dir)
    if not path.is_dir():
        parser.exit(2, f"{path} is not a directory\n")

    snapshots = snapshot.list_snapshots(path)
    print(f"{path}: {len(snapshots)} snapshot(s)")
    for version, snapshot_path in snapshots:
        payload = snapshot.load_snapshot(snapshot_path)
        size = snapshot_path.stat().st_size
        if payload is None:
            print(f"  {snapshot_path.name}  {size} bytes  INVALID")
            continue
        print(
            f"  {snapshot_path.name}  {size} bytes  version={version} "
            f"live_entries={len(payload.get('ids', payload.get('live', ())))} "
            f"queries={payload.get('state', {}).get('query_counter')}"
        )

    segments = wal.list_segments(path)
    print(f"{path}: {len(segments)} segment(s)")
    torn = 0
    for start_version, segment_path in segments:
        scan = wal.read_segment(segment_path, repair=False)
        status = "clean" if scan.clean else f"TORN ({scan.reason})"
        print(
            f"  {segment_path.name}  {scan.total_bytes} bytes  "
            f"start_version={start_version} records={len(scan.records)}  {status}"
        )
        if not scan.clean:
            torn += 1
            print(
                f"    intact prefix: {scan.valid_bytes} bytes "
                f"({scan.total_bytes - scan.valid_bytes} torn tail bytes)"
            )
        if args.records:
            for record, size in zip(scan.records, scan.sizes):
                print(f"    {_describe_record(record, size)}")
    return 1 if torn else 0


if __name__ == "__main__":
    raise SystemExit(main())
