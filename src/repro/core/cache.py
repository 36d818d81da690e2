"""The iGQ query cache: previously executed queries, their answers, metadata.

The iGQ index ``I`` (§4, §5 of the paper) is conceptually a cache of
previously executed query graphs together with

* the answer set the base method computed for them (``Answer(G)``),
* the features extracted from them (re-used by both component indexes), and
* the bookkeeping the replacement policy of §5.1 needs: the number of hits
  ``H(g)``, the number of queries processed since insertion ``M(g)``, the
  number of candidate-set graphs removed thanks to the entry ``R(g)``, and
  the accumulated alleviated isomorphism-test cost ``C(g)``.

:class:`QueryCache` is that store ("Igraphs" plus "Stat(iGQ Graph)" in the
paper's Figure 6); the component indexes :class:`~repro.core.isub.SubgraphQueryIndex`
and :class:`~repro.core.isuper.SupergraphQueryIndex` are built over it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Set
from dataclasses import dataclass, field

from ..features.extractor import GraphFeatures
from ..graphs.bitset import CandidateBitmap
from ..graphs.graph import LabeledGraph

__all__ = ["CacheEntry", "QueryCache"]


@dataclass
class CacheEntry:
    """One cached query graph with its answer set and utility metadata."""

    entry_id: int
    graph: LabeledGraph
    features: GraphFeatures
    #: ``Answer(g)``: a :class:`~repro.graphs.bitset.CandidateBitmap` over
    #: the dataset-graph id space as the engine records it; a frozenset of
    #: ids as added by hand or restored from a format-2 journal, or the
    #: bare ``int`` mask a format-3 journal restores — the engine turns
    #: both into bitmaps when it attaches its id space (a hand-added
    #: frozenset: on first use); :attr:`answer` is the frozenset view
    answers: CandidateBitmap | frozenset | int
    #: value of the cache's global query counter when the entry was added
    added_at: int
    #: H(g): number of times this entry pruned (or answered) a new query
    hits: int = 0
    #: R(g): total number of candidate graphs removed thanks to this entry
    removed: int = 0
    #: C(g): total estimated cost of the isomorphism tests alleviated
    alleviated_cost: float = 0.0
    #: free-form annotations (e.g. the query's workload group)
    tags: dict = field(default_factory=dict)
    #: compiled (bitset) target representation of :attr:`graph`, read by
    #: the ``Isub`` component — the cached query plays the *target* role
    #: there ("is the new query a subgraph of this entry?").  Inherited
    #: from the query's own processing when a stage compiled it, otherwise
    #: built on insertion; reused until the entry is evicted
    compiled_target: object | None = field(default=None, repr=False, compare=False)
    #: compiled matching plan of :attr:`graph`, read by the ``Isuper``
    #: component — the cached query plays the *pattern* role there ("is
    #: this entry a subgraph of the new query?"); same lifecycle
    compiled_plan: object | None = field(default=None, repr=False, compare=False)
    #: :attr:`answer` once decoded
    _answer: frozenset | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def answer(self) -> frozenset:
        """``Answer(g)`` as a frozenset of graph ids, decoded on first read
        (the oracles read it; the engine and the durable store read
        :attr:`answers`)."""
        if self._answer is None:
            self._answer = frozenset(self.answers)
        return self._answer

    def __setstate__(self, state: dict) -> None:
        """Restore a pickle, including one from before answers were kept as
        bitmaps (it names the frozenset ``answer``)."""
        if "answer" in state:
            state = dict(state, answers=state["answer"])
            del state["answer"]
        self.__dict__.update(state)

    def queries_since_added(self, current_counter: int) -> int:
        """M(g): queries processed since this entry entered the cache."""
        return max(current_counter - self.added_at, 0)

    def record_hit(self, removed: int, alleviated_cost: float) -> None:
        """Account one hit that removed ``removed`` candidates."""
        self.hits += 1
        self.removed += removed
        self.alleviated_cost += alleviated_cost

    def release_compiled_target(self) -> None:
        """Drop the compiled target representation (idempotent)."""
        self.compiled_target = None

    def release_compiled_plan(self) -> None:
        """Drop the compiled matching plan (idempotent)."""
        self.compiled_plan = None

    def release_compiled(self) -> None:
        """Drop the compiled representations (eviction, index removal).

        Long streams with churny caches would otherwise accumulate compiled
        state on entry objects that outlive their index membership (the
        replacement policy, reports and tests keep references to evicted
        entries); releasing here keeps the steady-state number of live
        compiled objects bounded by the cache capacity.  Every path an entry
        can leave service by funnels through these helpers — cache eviction
        (:meth:`QueryCache.remove`) and per-index removal
        (:meth:`~repro.core.containment.ContainmentIndex.remove`, which a
        replica's :meth:`~repro.core.shard.QueryIndexShard.remove` runs) —
        so a released payload can never leak and releasing twice is a
        no-op.
        """
        self.release_compiled_target()
        self.release_compiled_plan()


def _stored(answer) -> CandidateBitmap | frozenset | int:
    """An answer set as an entry keeps it: bitmaps (immutable by
    convention) and restored masks as they are, anything else as a
    frozenset."""
    return answer if isinstance(answer, (CandidateBitmap, int)) else frozenset(answer)


class QueryCache:
    """Store of cached query graphs (``Igraphs`` + metadata in the paper)."""

    def __init__(self) -> None:
        self._entries: dict[int, CacheEntry] = {}
        self._next_id = 0
        #: total number of queries processed by the engine (drives M(g))
        self.query_counter = 0

    # ------------------------------------------------------------------
    def add(
        self,
        graph: LabeledGraph,
        features: GraphFeatures,
        answer: CandidateBitmap | Set,
        tags: dict | None = None,
        *,
        compiled_target: object | None = None,
        compiled_plan: object | None = None,
    ) -> CacheEntry:
        """Insert a new entry and return it.

        ``answer`` is kept as it is when it is a bitmap, as a frozenset
        otherwise.  ``compiled_target`` / ``compiled_plan`` are the forms of
        ``graph`` the query's own processing already compiled (or will
        compile from its one flattening), if any; the component indexes
        compile whichever is missing when the entry reaches them.
        """
        entry = CacheEntry(
            entry_id=self._next_id,
            graph=graph,
            features=features,
            answers=_stored(answer),
            added_at=self.query_counter,
            tags=dict(tags or {}),
            compiled_target=compiled_target,
            compiled_plan=compiled_plan,
        )
        self._entries[entry.entry_id] = entry
        self._next_id += 1
        return entry

    def restore_entry(
        self,
        entry_id: int,
        graph: LabeledGraph,
        features: GraphFeatures,
        answer: Set | int,
        added_at: int,
        tags: dict | None = None,
        *,
        hits: int = 0,
        removed: int = 0,
        alleviated_cost: float = 0.0,
        compiled_target: object | None = None,
        compiled_plan: object | None = None,
    ) -> CacheEntry:
        """Reinstall an entry under its *original* id and metadata.

        The warm-restart path (:mod:`repro.persist`): unlike :meth:`add`,
        the caller supplies the id, the insertion counter and the §5.1
        replacement statistics recovered from disk, so the restored cache
        is indistinguishable from the one that was persisted.  The id
        allocator is advanced past the restored id, keeping future
        :meth:`add` ids collision-free.
        """
        if entry_id in self._entries:
            raise ValueError(f"cache entry {entry_id!r} already exists")
        entry = CacheEntry(
            entry_id=entry_id,
            graph=graph,
            features=features,
            answers=_stored(answer),
            added_at=added_at,
            hits=hits,
            removed=removed,
            alleviated_cost=alleviated_cost,
            tags=dict(tags or {}),
            compiled_target=compiled_target,
            compiled_plan=compiled_plan,
        )
        self._entries[entry.entry_id] = entry
        self._next_id = max(self._next_id, entry_id + 1)
        return entry

    @property
    def next_entry_id(self) -> int:
        """The id the next :meth:`add` will assign (restore bookkeeping)."""
        return self._next_id

    def reserve_ids(self, next_id: int) -> None:
        """Advance the id allocator to at least ``next_id`` (warm restart)."""
        self._next_id = max(self._next_id, next_id)

    def remove(self, entry_id: int) -> CacheEntry:
        """Remove and return the entry with ``entry_id``.

        The entry's compiled representations are released: an evicted entry
        may stay referenced (maintenance reports, replacement bookkeeping,
        tests), but its compiled state is only meaningful while the entry is
        served by the component indexes.
        """
        try:
            entry = self._entries.pop(entry_id)
        except KeyError:
            raise KeyError(f"unknown cache entry {entry_id!r}") from None
        entry.release_compiled()
        return entry

    def get(self, entry_id: int) -> CacheEntry:
        """Return the entry with ``entry_id``."""
        try:
            return self._entries[entry_id]
        except KeyError:
            raise KeyError(f"unknown cache entry {entry_id!r}") from None

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[CacheEntry]:
        """Iterate over the cached entries in insertion order."""
        return iter(self._entries.values())

    def entry_ids(self) -> list[int]:
        """Ids of the cached entries, in insertion order."""
        return list(self._entries)

    def note_query_processed(self) -> None:
        """Advance the global query counter (one per processed query)."""
        self.query_counter += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: Hashable) -> bool:
        return entry_id in self._entries

    def __repr__(self) -> str:
        return f"<QueryCache entries={len(self._entries)} queries_seen={self.query_counter}>"
