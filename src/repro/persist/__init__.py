"""Durable cache persistence: WAL, snapshots, warm restart.

A window flush reaches disk as one journal record, built from the flush's
report; a restarted engine warm-starts its learned cache from the journal
instead of relearning the workload through a cold miss storm:

* :mod:`repro.persist.wal` — append-only, checksummed, fsync-disciplined
  log segments with torn-tail truncation on recovery, and the one loader
  every journalled pickle goes through;
* :mod:`repro.persist.snapshot` — atomically published snapshots of the
  live cache (temp + rename), pruned with their superseded segments;
* :mod:`repro.persist.restore` — :class:`~repro.persist.restore.CachePersister`,
  attached by the engine when ``EngineConfig.persist.dir`` is set: one
  durable record per window flush, snapshot at a configurable record
  budget, recovery to the last committed flush boundary; its journal
  writer thread does the durable I/O;
* :mod:`repro.persist.engine_state` — the engine side: attaching the
  configured persister, the flush-boundary state capture and the
  warm start;
* :mod:`repro.persist.inspect` — the ``python -m repro.persist.inspect``
  dump tool for operators.

Reconciliation happens entirely on the append path (flush time) — probes
never touch the disk, mirroring the write-time-reconciliation design the
ROADMAP's durability item calls for.
"""

from .restore import CachePersister, attach_persistence

__all__ = ["CachePersister", "attach_persistence"]
