"""The replica: one partition of the query index.

A window flush (§5.2) runs once, in :meth:`IndexMaintenance.flush
<repro.core.maintenance.IndexMaintenance.flush>`, which touches the cache
only.  Its :class:`~repro.core.maintenance.MaintenanceReport` names the
victims and the new entries; the shard runtime
(:meth:`ShardRuntime.sync <repro.core.shard_runtime.ShardRuntime.sync>`)
applies it to each replica in one :meth:`QueryIndexShard.apply` call — the
victims homed there leave, the new entries homed there join — and the
durable store (:mod:`repro.persist`) journals the same report as one
record.  A warm start applies the restored entries to the homes the
journal recorded the same way.

* **Partitioning** — the cached queries are split across ``N`` shards by a
  hash of their feature counts
  (:func:`~repro.core.placement.home_shard`), computed once at insert and
  kept in :attr:`Placement.entry_shard
  <repro.core.placement.Placement.entry_shard>`, so an entry never moves
  while it is live.

* **Replica** — :class:`QueryIndexShard` holds the two containment indexes
  over the :class:`~repro.core.cache.CacheEntry` objects homed on it.  Each
  index's native probe table takes over the entry's compiled form of its
  direction (or compiles the missing one in the kernel), so each direction
  is compiled at most once per entry, and the row owns the form until it
  is cleared.
  A probe reports entry ids.  The answers and the replacement statistics
  are not per replica: every replica's hits are planned and credited on
  the cache's one column block (:class:`~repro.core.probe.ColumnBlock`),
  so answers, hit/miss accounting and replacement state are
  byte-identical for every shard count.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..features.extractor import GraphFeatures
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery
from ..isomorphism.verifier import Verifier
from .cache import CacheEntry
from .isub import SubgraphQueryIndex
from .isuper import SupergraphQueryIndex

__all__ = ["QueryIndexShard"]


class QueryIndexShard:
    """One replica: a partition of the query index.

    Holds the two containment indexes (``Isub``/``Isuper``) over the cache
    entries homed on this shard — all of them when the engine has one
    shard.  The probes look :attr:`isub` / :attr:`isuper` up on every call,
    so a wrapper installed on the instance's ``find_supergraphs`` sees
    every lookup.
    """

    def __init__(
        self,
        shard_id: int,
        verifier: Verifier | None = None,
        enable_isub: bool = True,
        enable_isuper: bool = True,
    ) -> None:
        self.shard_id = shard_id
        self.verifier = verifier if verifier is not None else Verifier()
        self._entries: dict[int, CacheEntry] = {}
        #: the ``Isub`` / ``Isuper`` index over this partition (``None`` when
        #: the component is disabled)
        self.isub = SubgraphQueryIndex(self.verifier) if enable_isub else None
        self.isuper = SupergraphQueryIndex(self.verifier) if enable_isuper else None
        self._indexes = [index for index in (self.isub, self.isuper) if index is not None]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply(self, evicted_ids: Sequence[int], inserted: Sequence[CacheEntry]) -> None:
        """One window flush of this replica: the entries of ``evicted_ids``
        (held here) leave, then ``inserted`` (homed here) join — one
        :meth:`ContainmentIndex.apply
        <repro.core.containment.ContainmentIndex.apply>` call per index."""
        entries = self._entries
        for entry_id in evicted_ids:
            del entries[entry_id]
        entries.update((entry.entry_id, entry) for entry in inserted)
        for index in self._indexes:
            index.apply(evicted_ids, inserted)

    def add(self, entry: CacheEntry) -> None:
        """:meth:`apply` of one entry homed on this shard."""
        self.apply((), (entry,))

    def remove(self, entry_id: int) -> None:
        """:meth:`apply` of one entry this shard holds leaving."""
        self.apply((entry_id,), ())

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def find_supergraph_ids(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
    ) -> list[int]:
        """Entry ids of this shard's ``Isub`` hits (ascending).

        ``compiled`` is the query's shared compiled state (one plan across
        the lookups of every shard).
        """
        if self.isub is None:
            return []
        return self.isub.find_supergraphs(query, features, compiled)

    def find_subgraph_ids(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None = None,
    ) -> list[int]:
        """Entry ids of this shard's ``Isuper`` hits (ascending)."""
        if self.isuper is None:
            return []
        return self.isuper.find_subgraphs(query, features, compiled)

    def probe(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None,
        want_sub: bool,
        want_super: bool,
    ) -> tuple[list[int], list[int]]:
        """Both lookups: ``(Isub hit ids, Isuper hit ids)``, each only if wanted."""
        sub_ids = self.find_supergraph_ids(query, features, compiled) if want_sub else []
        super_ids = self.find_subgraph_ids(query, features, compiled) if want_super else []
        return sub_ids, super_ids

    def entry_ids(self) -> list[int]:
        """Ids of the entries this replica currently serves."""
        return sorted(self._entries)

    def estimated_size_bytes(self) -> int:
        """Approximate index-structure size of this shard (Figure 18)."""
        return sum(index.estimated_size_bytes() for index in self._indexes)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<QueryIndexShard id={self.shard_id} entries={len(self._entries)}>"
