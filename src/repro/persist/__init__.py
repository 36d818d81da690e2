"""Durable cache persistence: WAL, snapshots, warm restart, followers.

The engine's :class:`~repro.core.shard.DeltaLog` is a replication
WAL in all but name; this package gives it a disk-backed form so a
restarted engine warm-starts its learned cache instead of relearning the
workload through a cold miss storm:

* :mod:`repro.persist.wal` — append-only, checksummed, fsync-disciplined
  log segments with torn-tail truncation on recovery;
* :mod:`repro.persist.snapshot` — atomically published compacted
  snapshots (temp + rename), pruned with their superseded segments;
* :mod:`repro.persist.restore` — :class:`~repro.persist.restore.CachePersister`,
  attached by the engine when ``EngineConfig.persist.dir`` is set: one
  durable batch per window flush, snapshot at a configurable record
  budget, recovery to the last committed flush boundary; its journal
  writer thread does the durable I/O;
* :mod:`repro.persist.engine_state` — the engine side: attaching the
  configured persister, the flush-boundary state capture and the
  warm-start replay;
* :mod:`repro.persist.replicate` — :class:`~repro.persist.replicate.CacheFollower`,
  a remote read-only replica streaming the leader's delta log over the
  wire protocol (reset-and-replay below the compaction floor);
* :mod:`repro.persist.inspect` — the ``python -m repro.persist.inspect``
  dump tool for operators.

Reconciliation happens entirely on the append path (flush time) — probes
never touch the disk, mirroring the write-time-reconciliation design the
ROADMAP's durability item calls for.
"""

from .replicate import CacheFollower
from .restore import CachePersister, attach_persistence

__all__ = ["CacheFollower", "CachePersister", "attach_persistence"]
