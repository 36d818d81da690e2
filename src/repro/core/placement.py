"""Where each cached query lives: its feature-hash home shard.

One :class:`Placement` per engine names the shard every delta record of a
window flush addresses (:meth:`IGQ._log_flush
<repro.core.engine.IGQ._log_flush>`).  Every probe asks every shard and
merges the hits in entry-id order, so placement only has to be
deterministic and recorded: an entry's home (:func:`home_shard`) is
computed once, when it enters the cache, kept in :attr:`Placement.entry_shard`
and in the durable ``state``, and never recomputed.
"""

from __future__ import annotations

import hashlib

from ..features.extractor import GraphFeatures
from .cache import CacheEntry, QueryCache

__all__ = ["Placement", "home_shard"]


def home_shard(features: GraphFeatures, num_shards: int) -> int:
    """The home shard of a graph with ``features``: a BLAKE2 digest of its
    feature counts.

    Isomorphic copies have equal counts, so duplicates of a hot query share
    a home.  The digest reads the ``(code, count)`` pairs when the features
    are coded and the sorted tuple-keyed counts otherwise; neither depends
    on ``PYTHONHASHSEED``.
    """
    if num_shards < 2:
        return 0
    codes = features.feature_codes()
    if codes is not None:
        data = codes.tobytes()
    else:
        data = repr(sorted(features.key_counts().items())).encode("utf-8")
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") % num_shards


class Placement:
    """Entry -> home shard assignment of one engine's live cache entries."""

    def __init__(self, num_shards: int) -> None:
        self.num_shards = num_shards
        #: live entry -> home shard
        self.entry_shard: dict[int, int] = {}

    def inserted(self, entry: CacheEntry) -> int:
        """Route a newly cached entry; returns its home shard."""
        shard_id = home_shard(entry.features, self.num_shards)
        self.entry_shard[entry.entry_id] = shard_id
        return shard_id

    def evicted(self, entry: CacheEntry) -> int:
        """Forget an evicted entry; returns the home shard it left."""
        return self.entry_shard.pop(entry.entry_id)

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
