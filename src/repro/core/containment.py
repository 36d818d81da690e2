"""Unified compiled containment layer for the iGQ query indexes.

The two component indexes — ``Isub`` (:mod:`repro.core.isub`) and ``Isuper``
(:mod:`repro.core.isuper`) — answer mirror-image containment questions over
the *same* store of cached query graphs, and before this layer existed they
were near-duplicate filter-plus-verify loops that rebuilt dict-based VF2 state
for every ``(new query, cached query)`` pair.  :class:`ContainmentIndex`
factors out everything the two directions share:

* **lifecycle** — the entry store and the dense slots
  (:class:`~repro.graphs.bitset.DensePositions`) of the table's rows,
  changed in one place, :meth:`ContainmentIndex.apply`: a window flush's
  evictions and insertions (or a warm start's entries) in one kernel call;
* **compilation at most once** — the whole point of the iGQ cache is that a
  cached query is containment-tested against *every* new query until it is
  evicted, so the per-entry side of the compiled kernel
  (:mod:`repro.isomorphism.compiled`) is kept with the entry's row:
  ``Isub`` needs the cached graph as a :class:`CompiledTarget` (the new
  query is the pattern), ``Isuper`` as a :class:`CompiledQueryPlan` (the
  cached query is the pattern, run against the new query's target).  An
  entry usually arrives with both — the forms its query was probed and
  verified with (:class:`~repro.isomorphism.compiled.CompiledQuery`) —
  and its row takes the kernel block over; a form the query never
  compiled is compiled in the kernel in the same call.  The row owns the
  block until it is cleared, so it survives every window flush untouched
  and eviction frees it;
* **the probe** — candidate filter, size pre-checks (not counted as tests)
  and one counted containment test per survivor, hits as entry ids in
  ascending order (the engine plans on the cache's column block by id, so
  a hit never becomes an entry object on the query path).  All of it runs
  in the kernel over a slot-aligned table of the entries' feature codes,
  sizes and compiled addresses
  (:class:`~repro.core.probe.ProbeTable`): ``apply`` clears and writes
  the slots' rows, and a probe is one filter call plus — only when
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
from collections.abc import Iterable

from ..features.extractor import GraphFeatures
from ..graphs.bitset import DensePositions
from ..graphs.graph import LabeledGraph
from ..isomorphism import _ckernel_loader
from ..isomorphism.compiled import CompiledQuery, CompiledQueryPlan, CompiledTarget
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
    def apply(self, evicted_ids: Iterable[int], inserted: Iterable[CacheEntry]) -> None:
        """One window flush of the index — the only way its rows change:
        the entries of ``evicted_ids`` leave (an id it does not hold is
        skipped), then ``inserted`` join, in one kernel call.

        A joining entry hands its compiled form of this direction (the
        one its query compiled, or the form made for it uncompiled) to its
        row, which owns it from then on; a form that was never compiled is
        compiled in the same call, from the query's flattened graph.  The
        evicted rows' forms are freed in that call too.  Freed slots are
        reused, most recently freed first, before the table grows.
        """
        entries, slots = self._entries, self._slots
        clears = [
            slots.remove(entry_id)
            for entry_id in evicted_ids
            if entries.pop(entry_id, None) is not None
        ]
        rows = []
        for entry in inserted:
            entry_id = entry.entry_id
            entries[entry_id] = entry
            if self.entry_is_target:
                form = entry.compiled_target or CompiledTarget(entry.graph)
                entry.compiled_target = None
            else:
                form = entry.compiled_plan or CompiledQueryPlan(entry.graph)
                entry.compiled_plan = None
            rows.append((slots.add(entry_id), entry_id, entry.features.feature_codes(), form))
        self._table.apply(clears, rows)

    def add(self, entry: CacheEntry) -> None:
        """:meth:`apply` of one joining entry."""
        self.apply((), (entry,))

    def remove(self, entry_id: int) -> None:
        """:meth:`apply` of one leaving entry."""
        self.apply((entry_id,), ())

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
