"""Unified compiled containment layer for the iGQ query indexes.

The two component indexes — ``Isub`` (:mod:`repro.core.isub`) and ``Isuper``
(:mod:`repro.core.isuper`) — answer mirror-image containment questions over
the *same* store of cached query graphs, and before this layer existed they
were near-duplicate filter-plus-verify loops that rebuilt dict-based VF2 state
for every ``(new query, cached query)`` pair.  :class:`ContainmentIndex`
factors out everything the two directions share:

* **lifecycle** — the entry store and the dense slots
  (:class:`~repro.graphs.bitset.DensePositions`) of the table's rows,
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
  and one counted containment test per survivor, hits as entry ids in
  ascending order (the engine plans on the cache's column block by id, so
  a hit never becomes an entry object on the query path).  All of it runs
  in the kernel over a slot-aligned table of the entries' feature codes,
  sizes and compiled addresses
  (:class:`~repro.core.probe.ProbeTable`): ``add`` writes the slot's row,
  ``remove`` clears it, and a probe is one filter call plus — only when
  something survives, which is when the query's compiled side is built —
  one containment call.  Every feature is coded
  (:class:`~repro.features.extractor.GraphFeatures`), so the table *is*
  the index, for every method and feature class; nothing else is
  maintained per direction.  A probe counts one test per surviving pair,
  as the base method's verification does.

The subclasses only keep what is genuinely direction-specific: which role
the cached entry plays and the public names of the probe.  The Python
form of the whole probe — ``Isub``'s dominance check and ``Isuper``'s
Algorithm 2, each a loop over the entries, then a ``VF2Matcher`` test per
survivor — is the kernel's oracle in ``tests/kernel_oracle.py``
(``probe_hits``).
"""

from __future__ import annotations

import sys
import time

from ..features.extractor import GraphFeatures
from ..graphs.bitset import DensePositions
from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import CompiledQuery, compile_query_plan, compile_target
from ..isomorphism.verifier import Verifier
from .cache import CacheEntry
from .probe import ProbeTable

__all__ = ["ContainmentIndex"]


class ContainmentIndex:
    """Shared machinery of the two iGQ containment (component) indexes.

    Parameters
    ----------
    verifier:
        The verifier used for the (small) query-vs-query containment tests;
        kept separate from the base method's verifier so the paper's "number
        of subgraph isomorphism tests" metric (tests against dataset graphs)
        is not polluted.
    """

    #: does the cached entry play the *target* role in this direction
    #: (``Isub``: new query ⊆ cached graph) or the *pattern* role
    #: (``Isuper``: cached graph ⊆ new query)?
    entry_is_target: bool = True

    def __init__(self, verifier: Verifier | None = None) -> None:
        self.verifier = verifier if verifier is not None else Verifier()
        self._entries: dict[int, CacheEntry] = {}
        #: dense slots of the table's rows (raw entry ids are monotonic, so
        #: rows keyed by them would grow without bound)
        self._slots = DensePositions()
        #: the kernel-side rows, one per live slot
        self._table = ProbeTable(_ckernel_loader.kernel(), self.entry_is_target)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, entry: CacheEntry) -> None:
        """Index a cached query entry, compiling its kernel-side state.

        Compilation happens here — on insertion — because the entry will be
        containment-tested against every incoming query until it is evicted;
        an entry that already carries compiled state (the forms its query
        was probed and verified with) keeps it.  Its row of the native
        table, which points at that compiled form, is written here too.
        """
        self._entries[entry.entry_id] = entry
        slot = self._slots.add(entry.entry_id)
        if self.entry_is_target:
            if entry.compiled_target is None:
                entry.compiled_target = compile_target(entry.graph)
            owner = entry.compiled_target.native()
            address = owner.address
        else:
            if entry.compiled_plan is None:
                entry.compiled_plan = compile_query_plan(entry.graph)
            owner = entry.compiled_plan
            address = owner.native()
        graph = entry.graph
        self._table.set(
            slot,
            entry.entry_id,
            entry.features.feature_codes(),
            graph.num_vertices,
            graph.num_edges,
            address,
            owner,
        )

    def remove(self, entry_id: int) -> None:
        """Remove a cached query entry, releasing its compiled state (its
        table row goes first: the row holds the compiled form's address)."""
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            return
        self._table.clear(self._slots.remove(entry_id))
        self._release_entry(entry)

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
        no-false-negative property can be tested in isolation.
        """
        # a size every row passes the direction's pre-check against
        any_size = 0 if self.entry_is_target else 1 << 62
        slots, count = self._table.filter(features.feature_codes(), any_size, any_size)
        return [self._slots.key_at(slot) for slot in slots[:count]]

    def _hits(
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery | None,
    ) -> list[int]:
        """The entry ids of the verified hits of ``query``, ascending.

        Filter and size pre-checks are one kernel call, the containment
        tests of the survivors a second.  The query's compiled side is
        built between the two, so a query nothing survives for never pays
        for it; the tests are folded into the verifier's statistics as
        :meth:`Verifier.verify_pairs` folds them.
        """
        if not self._entries:
            return []
        table = self._table
        slots, count = table.filter(features.feature_codes(), query.num_vertices, query.num_edges)
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
        return hit_ids

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def estimated_size_bytes(self) -> int:
        """In-memory size of the index structure (Figure 18).

        Here the entry store and the native table's rows.  The cached graphs
        and answers are accounted for with the cache
        (:meth:`repro.core.engine.IGQ.index_size_bytes`); the feature
        tables the entries carry are not counted (they never were), and the
        compiled per-entry state is a performance cache, excluded for parity
        with the dataset-side compiled caches (which Figure 18's index-size
        comparison also excludes).
        """
        return sys.getsizeof(self._entries) + self._table.size_bytes()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} entries={len(self._entries)}>"
