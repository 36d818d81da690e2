"""Where each cached query lives: its feature-hash home shard.

One :class:`Placement` per engine names the replica each cached query
lives on: :meth:`Placement.apply` turns a window flush into the homes the
replicas (:meth:`ShardRuntime.sync
<repro.core.shard_runtime.ShardRuntime.sync>`) and the journal's flush
record both read.  Every probe asks every shard and
merges the hits in entry-id order, so placement only has to be
deterministic and recorded: an entry's home (:func:`home_shard`) is
computed once, when it enters the cache, kept in :attr:`Placement.entry_shard`
and in the durable ``state``, and never recomputed.
"""

from __future__ import annotations

import hashlib

from ..features.extractor import GraphFeatures
from .cache import QueryCache
from .maintenance import MaintenanceReport

__all__ = ["Placement", "home_shard"]


def home_shard(features: GraphFeatures, num_shards: int) -> int:
    """The home shard of a graph with ``features``: a BLAKE2 digest of its
    feature counts.

    Isomorphic copies have equal counts, so duplicates of a hot query share
    a home.  The digest reads the ``(code, count)`` pairs, which do not
    depend on ``PYTHONHASHSEED``.
    """
    if num_shards < 2:
        return 0
    digest = hashlib.blake2b(features.feature_codes().tobytes(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


class Placement:
    """Entry -> home shard assignment of one engine's live cache entries."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        #: live entry -> home shard
        self.entry_shard: dict[int, int] = {}

    def apply(self, report: MaintenanceReport) -> list[int]:
        """Apply one window flush: forget each victim and home each new
        entry.  Returns the home of each, victims first — the order the
        flush's journal record lists them in."""
        entry_shard = self.entry_shard
        homes = [entry_shard.pop(entry.entry_id) for entry in report.evicted_entries]
        for entry in report.inserted_entries:
            home = entry_shard[entry.entry_id] = home_shard(entry.features, self.num_shards)
            homes.append(home)
        return homes

    def persist_state(self) -> dict:
        """The assignment, as the durable ``state`` record carries it."""
        return {"entry_shard": dict(self.entry_shard)}

    def restore(self, state: dict, cache: QueryCache) -> None:
        """Warm-start from a :meth:`persist_state` capture: only
        ``entry_shard`` is read (a 3.x state's hot-key counters are
        ignored), and a single-shard state without it means shard 0."""
        self.entry_shard = dict(
            state.get("entry_shard") or dict.fromkeys(cache.entry_ids(), 0)
        )

    def shard_balance(self) -> list[int]:
        """Live cache entries per home shard."""
        counts = [0] * self.num_shards
        for shard_id in self.entry_shard.values():
            counts[shard_id] += 1
        return counts
