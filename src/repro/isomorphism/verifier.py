"""Verification engine: instrumented wrapper around the C kernel.

Every filter-then-verify method performs its verification stage through a
:class:`Verifier`.  The wrapper serves two purposes:

* dispatch — a caller compiles the query side once
  (:meth:`Verifier.compile_pattern` / :meth:`Verifier.compile_target`, see
  :mod:`repro.isomorphism.compiled`) and verifies all pairs of a query in
  the C kernel with one call: :meth:`Verifier.verify_mask` for the dataset
  candidates a mask names in a :class:`~repro.isomorphism.compiled.FormTable`
  (mask in, answer mask out), :meth:`Verifier.verify_pairs` for a list of
  forms (:meth:`Verifier.is_subgraph_compiled` is its one-pair form); both
  run the same kernel loop.  The kernel is the only matcher; its
  independent references — the bigint kernel and ``VF2Matcher`` — are
  oracles in the test tree;
* instrumentation — the number of subgraph isomorphism tests and the time
  spent in them is the primary metric of the paper's evaluation (Figures 1,
  7–11), so the verifier counts every test and accumulates wall-clock time.
  A test resolved by the kernel's signature pre-reject is still one test:
  the counters only depend on how many candidate pairs were checked.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from ..graphs.graph import GraphMemo, LabeledGraph
from .compiled import (
    CompiledQuery,
    CompiledQueryPlan,
    CompiledTarget,
    FormTable,
    compile_query_plan,
    compile_target,
    match_mask,
    match_pairs,
)

__all__ = ["VerifierStats", "Verifier"]

#: entries kept by the per-verifier compile memos (queries in flight at any
#: moment are few; the memo only needs to cover a working set of repeats)
_COMPILE_MEMO_CAPACITY = 64


@dataclass
class VerifierStats:
    """Counters accumulated by a :class:`Verifier`."""

    tests: int = 0
    positives: int = 0
    negatives: int = 0
    total_seconds: float = 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.tests = 0
        self.positives = 0
        self.negatives = 0
        self.total_seconds = 0.0


class Verifier:
    """Run (and count) subgraph isomorphism tests in the C kernel."""

    def __init__(self) -> None:
        self.stats = VerifierStats()
        # compile_pattern / compile_target memos: workload streams repeat
        # queries (Zipf by design), and the compiled forms depend only on
        # the graph
        self._plan_memo = GraphMemo(_COMPILE_MEMO_CAPACITY)
        self._target_memo = GraphMemo(_COMPILE_MEMO_CAPACITY)

    def compile_pattern(
        self, pattern: LabeledGraph, compiled: CompiledQuery | None = None
    ) -> CompiledQueryPlan:
        """Compile ``pattern`` into a reusable plan.

        ``compiled`` is the query's shared :class:`CompiledQuery` when the
        caller (the iGQ engine) carries one: its plan is used, and built
        there if no earlier stage needed it.  Otherwise memoised per graph
        object: a repeated query re-uses its plan instead of recomputing
        the matching order (plans are immutable and deterministic, so
        sharing never changes answers or accounting).
        """
        if compiled is not None:
            return compiled.compiled_plan()
        return self._plan_memo.get(pattern, compile_query_plan)

    def compile_target(
        self, target: LabeledGraph, compiled: CompiledQuery | None = None
    ) -> CompiledTarget:
        """Compile ``target`` for repeated verification.

        Shared through ``compiled`` or memoised like :meth:`compile_pattern`
        (supergraph streams repeat query graphs in the target role the same
        way).
        """
        if compiled is not None:
            return compiled.compiled_target()
        return self._target_memo.get(target, compile_target)

    def verify_pairs(
        self,
        query_side: CompiledQueryPlan | CompiledTarget,
        candidates: Sequence,
        regions: Sequence[int] | None = None,
        by_component: bool = False,
    ) -> list[bool]:
        """Test every pair of one query in the C kernel.

        ``query_side`` is the compiled side the pairs share — the query's
        plan against each candidate :class:`CompiledTarget` (subgraph
        verification, ``Isub``) or the query's target against each
        candidate :class:`CompiledQueryPlan` (supergraph verification,
        ``Isuper``) — obtained from :meth:`compile_pattern` /
        :meth:`compile_target` or the database caches.  ``regions`` (one
        restricted test per pair) or ``by_component`` (Grapes' label-region
        decomposition, no ``regions``) are passed to
        :func:`~repro.isomorphism.compiled.match_pairs` (the kernel loop
        :meth:`verify_mask` runs, over a table of ``candidates``).  Returns the match
        flag per candidate and folds the batch into the statistics once:
        one test per pair — a region-restricted run is still one counted
        test, exactly like the region-subgraph test it replaces — or, with
        ``by_component``, one per component actually tested.  Batching
        moves work around but never changes how much verification is
        accounted.
        """
        start = time.perf_counter()
        matched, tests = match_pairs(query_side, candidates, regions, by_component=by_component)
        self.record_batch(sum(tests), sum(matched), time.perf_counter() - start)
        return matched

    def verify_mask(
        self,
        query_side: CompiledQueryPlan | CompiledTarget,
        table: FormTable,
        mask: int,
        by_component: bool = False,
    ) -> int:
        """Test the pairs of one query that ``mask`` names in ``table``
        (the dataset verification stage); return the mask of those that
        matched.

        ``query_side`` is the query's plan against the table's targets or
        its target against the table's plans; ``by_component`` is Grapes'
        mode (see :func:`~repro.isomorphism.compiled.match_mask`).  One
        kernel call, which returns the test total; the statistics fold it
        and the answer's popcount, accounted as :meth:`verify_pairs`
        accounts.
        """
        start = time.perf_counter()
        answer, tests = match_mask(query_side, table, mask, by_component=by_component)
        self.record_batch(tests, answer.bit_count(), time.perf_counter() - start)
        return answer

    def record_batch(self, tested: int, positives: int, seconds: float) -> None:
        """Fold ``tested`` tests, ``positives`` of them matches, run in
        ``seconds`` into the statistics — how every batched route accounts
        (:meth:`verify_mask`, :meth:`verify_pairs`, the containment indexes'
        native probe)."""
        stats = self.stats
        stats.tests += tested
        stats.positives += positives
        stats.negatives += tested - positives
        stats.total_seconds += seconds

    def is_subgraph_compiled(
        self,
        plan: CompiledQueryPlan,
        target: CompiledTarget,
        vertex_mask: int | None = None,
    ) -> bool:
        """Test ``plan.pattern ⊆ target.graph`` — inside ``vertex_mask`` when
        one is given: :meth:`verify_pairs` for a single pair."""
        regions = None if vertex_mask is None else [vertex_mask]
        return self.verify_pairs(plan, [target], regions)[0]

    def reset(self) -> None:
        """Reset the accumulated statistics."""
        self.stats.reset()

    def fresh_clone(self) -> "Verifier":
        """A new verifier of the same class with zeroed statistics (what a
        per-chunk thread of the batch executor verifies on)."""
        return type(self)()
