"""Unified compiled containment layer for the iGQ query indexes.

The two component indexes — ``Isub`` (:mod:`repro.core.isub`) and ``Isuper``
(:mod:`repro.core.isuper`) — answer mirror-image containment questions over
the *same* store of cached query graphs, and before this layer existed they
were near-duplicate filter-plus-verify loops that rebuilt dict-based VF2 state
for every ``(new query, cached query)`` pair.  :class:`ContainmentIndex`
factors out everything the two directions share:

* **lifecycle** — the entry store and dense bit positions
  (:class:`~repro.graphs.bitset.DensePositions`) for candidate bitmasks,
  with ``add`` / ``remove`` maintained in one place;
* **compilation at most once** — the whole point of the iGQ cache is that a
  cached query is containment-tested against *every* new query until it is
  evicted, so the per-entry side of the compiled kernel
  (:mod:`repro.isomorphism.compiled`) is kept on the entry: ``Isub`` needs
  the cached graph as a :class:`CompiledTarget` (the new query is the
  pattern), ``Isuper`` as a :class:`CompiledQueryPlan` (the cached query is
  the pattern, run against the new query's target).  An entry usually
  arrives with both — the forms its query was probed and verified with
  (:class:`~repro.isomorphism.compiled.CompiledQuery`) — and an index
  compiles only what is missing when the entry enters it.  The compiled
  objects live on the :class:`~repro.core.cache.CacheEntry` itself, so they
  survive every window flush untouched and eviction releases them;
* **the probe** — candidate filter, size pre-checks (not counted as tests)
  and one counted containment test per survivor, hits in ascending entry
  id.  With the compiled path on, all of it runs in the kernel over a
  slot-aligned table of the entries' feature codes, sizes and compiled
  addresses (:class:`~repro.core.probe.ProbeTable`): ``add`` writes the
  slot's row, ``remove`` clears it, and a probe is one filter call plus —
  only when something survives, which is when the query's compiled side is
  built — one containment call.  The table *is* the index then; nothing
  else is maintained per direction.
* **the Python filter** — with features that do not pack into codes
  (CT-Index's trees and cycles, paths longer than 7 edges, a full
  process-wide label table — the index then leaves the table for good,
  re-adding its entries to the Python filter) or behind the
  ``Verifier(compiled=False)`` reference the tests inject, the direction's
  Python filter picks the candidates and
  :meth:`ContainmentIndex._verified_hits` verifies them: one
  :meth:`Verifier.verify_pairs` call, or :meth:`Verifier.is_subgraph` pair
  by pair.  Every route counts one test per surviving pair, so the paper's
  metrics are path-independent.

The subclasses only keep what is genuinely direction-specific: the Python
*filtering* rule — ``Isub`` asks a threshold-bitmap index which entries
dominate the query's feature counts, ``Isuper`` checks Algorithm 2's
condition per entry with an early exit.
"""

from __future__ import annotations

import sys
import time
from itertools import compress
from operator import attrgetter

from ..features.extractor import GraphFeatures
from ..graphs.bitset import DensePositions
from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import CompiledQuery, compile_query_plan, compile_target
from ..isomorphism.verifier import Verifier
from .cache import CacheEntry
from .probe import ProbeTable

__all__ = ["ContainmentIndex"]

_ENTRY_ID = attrgetter("entry_id")


class ContainmentIndex:
    """Shared machinery of the two iGQ containment (component) indexes.

    Parameters
    ----------
    verifier:
        The verifier used for the (small) query-vs-query containment tests;
        kept separate from the base method's verifier so the paper's "number
        of subgraph isomorphism tests" metric (tests against dataset graphs)
        is not polluted.  It alone decides the dispatch: the compiled
        kernel when ``verifier.supports_compiled()``, the dict-based matcher
        otherwise.
    """

    #: does the cached entry play the *target* role in this direction
    #: (``Isub``: new query ⊆ cached graph) or the *pattern* role
    #: (``Isuper``: cached graph ⊆ new query)?
    entry_is_target: bool = True

    def __init__(self, verifier: Verifier | None = None) -> None:
        self.verifier = verifier if verifier is not None else Verifier()
        self._entries: dict[int, CacheEntry] = {}
        #: dense bit positions for candidate bitmasks (raw entry ids are
        #: monotonic, so masks keyed by them would grow without bound)
        self._slots = DensePositions()
        #: mask covering the slot of every indexed entry
        self._live_mask = 0
        #: the kernel-side rows, one per live slot, while the probe runs
        #: natively; ``None`` on the Python filter (see :meth:`_leave_table`)
        self._table: ProbeTable | None = None
        if self.verifier.supports_compiled():
            self._table = ProbeTable(_ckernel_loader.kernel(), self.entry_is_target)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, entry: CacheEntry) -> None:
        """Index a cached query entry, compiling its kernel-side state.

        Compilation happens here — on insertion — because the entry will be
        containment-tested against every incoming query until it is evicted;
        an entry that already carries compiled state (a warm restart or a
        shard delta shipping the parent's payloads) keeps it.  Its row of
        the native table is written here too; an entry restored from the
        WAL or shipped in a shard delta re-encodes its feature codes from
        its keys first (:meth:`GraphFeatures.feature_codes`).
        """
        codes = None
        if self._table is not None:
            codes = entry.features.feature_codes()
            if codes is None:
                self._leave_table()
        self._entries[entry.entry_id] = entry
        slot = self._slots.add(entry.entry_id)
        self._live_mask |= 1 << slot
        if self.verifier.supports_compiled():
            self._compile_entry(entry)
        if codes is None:
            self._entry_added(entry, 1 << slot)
            return
        graph = entry.graph
        if self.entry_is_target:
            owner = entry.compiled_target.native()
            address = owner.address
        else:
            owner = entry.compiled_plan
            address = owner.native()
        self._table.set(
            slot, entry.entry_id, codes, graph.num_vertices, graph.num_edges, address, owner
        )

    def remove(self, entry_id: int) -> None:
        """Remove a cached query entry, releasing its compiled state (its
        table row goes first: the row holds the compiled form's address)."""
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            return
        bit = self._slots.bit(entry_id)
        self._slots.remove(entry_id)
        self._live_mask &= ~bit
        if self._table is not None:
            self._table.clear(bit.bit_length() - 1)
        else:
            self._entry_removed(entry, bit)
        self._release_entry(entry)

    def _leave_table(self) -> None:
        """Switch to the Python filter, for good: something this index must
        hold or answer does not pack into feature codes.  The rows are
        freed and every indexed entry goes through :meth:`_entry_added`."""
        self._table.close()
        self._table = None
        bit = self._slots.bit
        for entry in self._entries.values():
            self._entry_added(entry, bit(entry.entry_id))

    # ------------------------------------------------------------------
    # Direction-specific hooks
    # ------------------------------------------------------------------
    def _entry_added(self, entry: CacheEntry, bit: int) -> None:
        """Python filter: index the entry now occupying slot ``bit``
        (default: nothing)."""

    def _entry_removed(self, entry: CacheEntry, bit: int) -> None:
        """Undo :meth:`_entry_added` for the entry leaving slot ``bit``."""

    def candidate_mask(self, features: GraphFeatures) -> int:
        """Python filter: the live slots whose entries pass the direction's
        feature condition against ``features``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Compiled-state lifecycle
    # ------------------------------------------------------------------
    def _compile_entry(self, entry: CacheEntry) -> None:
        if self.entry_is_target:
            if entry.compiled_target is None:
                entry.compiled_target = compile_target(entry.graph)
        elif entry.compiled_plan is None:
            entry.compiled_plan = compile_query_plan(entry.graph)

    def _release_entry(self, entry: CacheEntry) -> None:
        if self.entry_is_target:
            entry.release_compiled_target()
        else:
            entry.release_compiled_plan()

    # ------------------------------------------------------------------
    # The probe
    # ------------------------------------------------------------------
    def candidate_ids(self, features: GraphFeatures) -> list[int]:
        """Entry ids passing the direction's feature filter alone.

        No size pre-check and no isomorphism test: exposed so the filter's
        no-false-negative property can be tested in isolation, on whichever
        of the two paths the index is on.
        """
        if self._table is not None:
            codes = features.feature_codes()
            if codes is not None:
                # a size every row passes the direction's pre-check against
                any_size = 0 if self.entry_is_target else 1 << 62
                slots, count = self._table.filter(codes, any_size, any_size)
                return [self._slots.key_at(slot) for slot in slots[:count]]
            self._leave_table()
        return list(self._slots.keys_of(self.candidate_mask(features)))

    def _hits(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None,
    ) -> list[CacheEntry]:
        """The verified hits of ``query``, in ascending ``entry_id``."""
        if not self._entries:
            return []
        if self._table is not None:
            codes = features.feature_codes()
            if codes is not None:
                return self._table_hits(query, codes, compiled)
            self._leave_table()
        candidate_mask = self.candidate_mask(features)
        if not candidate_mask:
            return []
        return self._verified_hits(query, candidate_mask, compiled)

    def _table_hits(
        self,
        query: LabeledGraph,
        codes,
        compiled: CompiledQuery | None,
    ) -> list[CacheEntry]:
        """The probe in the kernel: filter and size pre-checks in one call,
        the containment tests of the survivors in a second.  The query's
        compiled side is built between the two, so a query nothing survives
        for never pays for it; the tests are folded into the verifier's
        statistics as :meth:`Verifier.verify_pairs` folds them."""
        table = self._table
        slots, count = table.filter(codes, query.num_vertices, query.num_edges)
        if not count:
            return []
        if compiled is None:
            compiled = CompiledQuery(query)
        if self.entry_is_target:
            plan = compiled.compiled_plan()
            start = time.perf_counter()
            query_side = plan.native()
        else:
            target = compiled.compiled_target()
            start = time.perf_counter()
            query_side = target.native().address
        hit_ids = table.verify(query_side, slots, count)
        self.verifier.record_batch(count, len(hit_ids), time.perf_counter() - start)
        return list(map(self._entries.__getitem__, hit_ids))

    def _verified_hits(
        self,
        query: LabeledGraph,
        candidate_mask: int,
        compiled: CompiledQuery | None = None,
    ) -> list[CacheEntry]:
        """Verify the candidates of ``candidate_mask`` against ``query`` —
        the Python form of the probe's second half.

        Applies the direction's size pre-checks (not counted as tests, as
        before), then one counted containment test per surviving pair —
        all pairs in one kernel call when the compiled path is enabled, pair
        by pair through the graph-based matcher otherwise.  The query-side
        compiled representation (plan for ``Isub``, target for ``Isuper``)
        is built only when a pair survives, and taken from ``compiled`` —
        the query's shared :class:`CompiledQuery` — when the caller carries
        one: the engine passes the same object to both probes, every shard
        partition, the dataset verification and the cache entry the query
        becomes, so each form is compiled once per query.  Hits come back
        in ascending ``entry_id`` — cache insertion
        order — whatever slots the entries occupy: recycled slots make
        position order meaningless, and exact-repeat detection, the §5.1
        credits and the sharded merge all depend on the sequence.
        """
        verifier = self.verifier
        query_num_vertices = query.num_vertices
        query_num_edges = query.num_edges
        entry_is_target = self.entry_is_target
        survivors = []
        for entry_id in self._slots.keys_of(candidate_mask):
            entry = self._entries[entry_id]
            graph = entry.graph
            if entry_is_target:
                if graph.num_vertices < query_num_vertices or graph.num_edges < query_num_edges:
                    continue
            elif graph.num_vertices > query_num_vertices or graph.num_edges > query_num_edges:
                continue
            survivors.append(entry)
        if not survivors:
            return []
        if verifier.supports_compiled():
            if compiled is None:
                compiled = CompiledQuery(query)
            query_side = (
                compiled.compiled_plan() if entry_is_target else compiled.compiled_target()
            )
            compiled_side = attrgetter("compiled_target" if entry_is_target else "compiled_plan")
            matched = verifier.verify_pairs(query_side, list(map(compiled_side, survivors)))
        elif entry_is_target:
            matched = [verifier.is_subgraph(query, entry.graph) for entry in survivors]
        else:
            matched = [verifier.is_subgraph(entry.graph, query) for entry in survivors]
        results = list(compress(survivors, matched))
        results.sort(key=_ENTRY_ID)
        return results

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def estimated_size_bytes(self) -> int:
        """In-memory size of the index structure (Figure 18).

        Here the entry store and the native table's rows; a direction adds
        what its Python filter keeps.  The cached graphs and answers are accounted for with the
        cache (:meth:`repro.core.engine.IGQ.index_size_bytes`); the feature
        tables the entries carry are not counted (they never were), and the
        compiled per-entry state is a performance cache, excluded for parity
        with the dataset-side compiled caches (which Figure 18's index-size
        comparison also excludes).
        """
        total = sys.getsizeof(self._entries)
        if self._table is not None:
            total += self._table.size_bytes()
        return total

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} entries={len(self._entries)} "
            f"compiled={self.verifier.supports_compiled()} native={self._table is not None}>"
        )
