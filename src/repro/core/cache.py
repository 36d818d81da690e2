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
"Stat(iGQ Graph)" and the answer sets live in the cache's native
:class:`~repro.core.probe.ColumnBlock`, a row per live entry: the engine
plans a query over those columns in one kernel call, and an entry's
``hits`` / ``removed`` / ``alleviated_cost`` read its row while it is
cached (and keep their last values once it leaves).
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Iterator, Set
from dataclasses import dataclass, field

from ..features.extractor import GraphFeatures
from ..graphs.bitset import CandidateBitmap, GraphIdSpace
from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from .probe import ColumnBlock

__all__ = ["CacheEntry", "QueryCache"]

#: the statistics an entry keeps in its column-block row, in the order
#: :meth:`ColumnBlock.stats <repro.core.probe.ColumnBlock.stats>` reads them
_STATISTICS = ("hits", "removed", "alleviated_cost")


class _Statistic:
    """H(g), R(g) or C(g) of an entry: its row of the cache's column block
    while the entry is cached, the entry's own ``_stats`` otherwise."""

    def __set_name__(self, owner, name: str) -> None:
        self._position = _STATISTICS.index(name)

    def __get__(self, entry, owner=None):
        if entry is None:
            return self
        columns = entry._columns
        stats = entry._stats if columns is None else columns.stats(entry.entry_id)
        return stats[self._position]

    def __set__(self, entry, value) -> None:
        columns = entry._columns
        stats = list(entry._stats if columns is None else columns.stats(entry.entry_id))
        stats[self._position] = value
        if columns is None:
            entry._stats = tuple(stats)
        else:
            columns.set_stats(entry.entry_id, *stats)


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
    #: free-form annotations (e.g. the query's workload group)
    tags: dict = field(default_factory=dict)
    #: compiled target form of :attr:`graph` for the ``Isub`` component —
    #: the cached query plays the *target* role there ("is the new query a
    #: subgraph of this entry?"): the form its query's processing made (or
    #: ``None``), handed to the ``Isub`` row when the entry joins its
    #: replica, which takes the kernel block over (or compiles it) and
    #: owns it until the entry is evicted; ``None`` from then on
    compiled_target: object | None = field(default=None, repr=False, compare=False)
    #: compiled matching plan of :attr:`graph` for the ``Isuper`` component
    #: — the cached query plays the *pattern* role there ("is this entry a
    #: subgraph of the new query?"); same hand-over, to the ``Isuper`` row
    compiled_plan: object | None = field(default=None, repr=False, compare=False)
    #: :attr:`answer` once decoded
    _answer: frozenset | None = field(default=None, init=False, repr=False, compare=False)
    #: the column block holding this entry's statistics while it is cached
    _columns: ColumnBlock | None = field(default=None, init=False, repr=False, compare=False)
    #: ``(H, R, C)`` while the entry is not cached (its last values after
    #: it leaves the cache)
    _stats: tuple = field(default=(0, 0, 0.0), init=False, repr=False, compare=False)

    #: H(g): number of times this entry pruned (or answered) a new query
    hits = _Statistic()
    #: R(g): total number of candidate graphs removed thanks to this entry
    removed = _Statistic()
    #: C(g): total estimated cost of the isomorphism tests alleviated
    alleviated_cost = _Statistic()

    @property
    def answer(self) -> frozenset:
        """``Answer(g)`` as a frozenset of graph ids, decoded on first read
        (the oracles read it; the engine and the durable store read
        :attr:`answers`)."""
        if self._answer is None:
            self._answer = frozenset(self.answers)
        return self._answer

    def __getstate__(self) -> dict:
        """A pickle carries the statistics' values, not the column block."""
        return dict(
            self.__dict__,
            _columns=None,
            _stats=(self.hits, self.removed, self.alleviated_cost),
        )

    def __setstate__(self, state: dict) -> None:
        """Restore a pickle, including one from before answers were kept as
        bitmaps (it names the frozenset ``answer``) or before the
        statistics moved to the cache's column block (it names ``hits`` /
        ``removed`` / ``alleviated_cost``)."""
        state = dict(state)
        if "answer" in state:
            state["answers"] = state.pop("answer")
        if "hits" in state:
            state["_stats"] = tuple(state.pop(name) for name in _STATISTICS)
        state["_columns"] = None
        self.__dict__.update(state)

    def queries_since_added(self, current_counter: int) -> int:
        """M(g): queries processed since this entry entered the cache."""
        return max(current_counter - self.added_at, 0)

    def release_compiled(self) -> None:
        """Drop the compiled representations still on the entry (eviction).

        An indexed entry's forms belong to its rows already; what is left
        here is a form no enabled component took (the target of an entry
        of an engine without ``Isub``, say).  Long streams with churny
        caches would otherwise keep it on entry objects that outlive their
        cache membership (the replacement policy, reports and tests keep
        references to evicted entries); cache eviction
        (:meth:`QueryCache.remove`) releases it, so the steady-state number
        of live compiled objects stays bounded by the cache capacity, and
        releasing twice is a no-op.
        """
        self.compiled_target = self.compiled_plan = None


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
        #: the live entries' statistics and answer masks, a row per entry
        self.columns = ColumnBlock(_ckernel_loader.kernel())
        #: the id space the answer rows are masks over (:meth:`attach_space`)
        self._space: GraphIdSpace | None = None

    def _enter(self, entries: list[CacheEntry]) -> list[CacheEntry]:
        """Store ``entries`` and give them their column-block rows (one
        kernel call)."""
        columns = self.columns
        rows, costs = array("q"), array("d")
        for entry in entries:
            graph = entry.graph
            hits, removed, cost = entry._stats
            rows.extend(
                (entry.entry_id, graph.num_vertices, graph.num_edges, entry.added_at, hits, removed)
            )
            costs.append(cost)
        answers = None
        if self._space is not None:
            answers = columns.answer_bytes(map(self._answer_mask, entries))
        columns.add(rows, costs, answers)
        for entry in entries:
            entry._columns = columns
            self._entries[entry.entry_id] = entry
        return entries

    def _answer_mask(self, entry: CacheEntry) -> int:
        """The entry's answer as a mask over the attached space; an answer
        that is not a bitmap over it becomes one (a restored mask, a
        hand-added frozenset)."""
        answers = entry.answers
        if answers.__class__ is int:  # a restored mask over this space
            answers = entry.answers = CandidateBitmap(self._space, answers)
        elif answers.__class__ is not CandidateBitmap or answers.space is not self._space:
            answers = entry.answers = CandidateBitmap.from_ids(self._space, answers)
        return answers.mask

    def attach_space(self, space: GraphIdSpace) -> None:
        """Keep the answer rows as masks over ``space`` (the engine's
        dataset-graph ids), rewriting every live entry's row."""
        self._space = space
        self.columns.set_width(len(space))
        entries = self._entries.values()
        self.columns.set_answers(list(self._entries), map(self._answer_mask, entries))

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
        return self._enter(
            [self._new_entry(graph, features, answer, tags, compiled_target, compiled_plan)]
        )[0]

    def add_many(self, queries: Iterable) -> list[CacheEntry]:
        """Insert one entry per item of ``queries`` — objects with the
        arguments of :meth:`add` as attributes (``graph``, ``features``,
        ``answer``, ``tags``, ``compiled_target``, ``compiled_plan``: a
        :class:`~repro.core.maintenance.PendingQuery`) — in order, and
        return them: a window flush's insertions, in one kernel call."""
        return self._enter(
            [
                self._new_entry(
                    query.graph,
                    query.features,
                    query.answer,
                    query.tags,
                    query.compiled_target,
                    query.compiled_plan,
                )
                for query in queries
            ]
        )

    def _new_entry(
        self, graph, features, answer, tags, compiled_target, compiled_plan
    ) -> CacheEntry:
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
        return self.restore_many(
            [
                dict(
                    entry_id=entry_id, graph=graph, features=features, answer=answer,
                    added_at=added_at, tags=tags, hits=hits, removed=removed,
                    alleviated_cost=alleviated_cost, compiled_target=compiled_target,
                    compiled_plan=compiled_plan,
                )
            ]
        )[0]

    def restore_many(self, items: Iterable[dict]) -> list[CacheEntry]:
        """:meth:`restore_entry` for each of ``items`` — its arguments by
        name, in a dict — in order and in one kernel call: a warm start's
        live set."""
        entries = []
        for item in items:
            entry_id = item["entry_id"]
            if entry_id in self._entries:
                raise ValueError(f"cache entry {entry_id!r} already exists")
            entry = CacheEntry(
                entry_id=entry_id,
                graph=item["graph"],
                features=item["features"],
                answers=_stored(item["answer"]),
                added_at=item["added_at"],
                tags=dict(item.get("tags") or {}),
                compiled_target=item.get("compiled_target"),
                compiled_plan=item.get("compiled_plan"),
            )
            entry._stats = (
                item.get("hits", 0), item.get("removed", 0), item.get("alleviated_cost", 0.0)
            )
            self._next_id = max(self._next_id, entry_id + 1)
            entries.append(entry)
        return self._enter(entries)

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
        served by the component indexes.  Its statistics leave the column
        block with their last values.
        """
        return self.remove_many([entry_id])[0]

    def remove_many(self, entry_ids: list[int]) -> list[CacheEntry]:
        """:meth:`remove` each of ``entry_ids`` (distinct), in order: a
        window flush's evictions, in one kernel call."""
        try:
            entries = [self._entries[entry_id] for entry_id in entry_ids]
        except KeyError as missing:
            raise KeyError(f"unknown cache entry {missing.args[0]!r}") from None
        columns = self.columns.remove(entry_ids)
        for entry, stats in zip(entries, zip(*columns)):
            del self._entries[entry.entry_id]
            entry._columns = None
            entry._stats = stats
            entry.release_compiled()
        return entries

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
