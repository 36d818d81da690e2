"""Verification engine: instrumented wrapper around the matching algorithms.

Every filter-then-verify method performs its verification stage through a
:class:`Verifier`.  The wrapper serves two purposes:

* dispatch — callers holding precompiled representations
  (:mod:`repro.isomorphism.compiled`) verify all pairs of a query in the C
  kernel with one :meth:`Verifier.verify_pairs` call
  (:meth:`Verifier.is_subgraph_compiled` is its one-pair form); the
  graph-based entry points run VF2 (as in the paper's three base methods)
  on the dict-based :class:`~repro.isomorphism.vf2.VF2Matcher` behind the
  same early-fail signature pre-check.  ``Verifier(compiled=False)`` takes
  the graph-based path everywhere: the independent reference the tests
  compare the kernel against;
* instrumentation — the number of subgraph isomorphism tests and the time
  spent in them is the primary metric of the paper's evaluation (Figures 1,
  7–11), so the verifier counts every test and accumulates wall-clock time.
  A test resolved by the pre-check or the compiled kernel is still one test:
  the counters only depend on how many candidate pairs were checked, never
  on which internal path checked them.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from ..graphs.graph import LabeledGraph
from .compiled import (
    CompiledQuery,
    CompiledQueryPlan,
    CompiledTarget,
    compile_query_plan,
    compile_target,
    match_pairs,
    signature_prereject,
)
from .vf2 import VF2Matcher

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
    """Run (and count) subgraph isomorphism tests.

    Parameters
    ----------
    compiled:
        Verify in the C kernel when callers provide precompiled
        representations (default).  ``False`` runs the dict-based matcher on
        every path — the reference the tests compare against.
    precheck:
        Apply the label-histogram / degree-signature early-fail check before
        running a matcher on the graph-based path (default).  The check is a
        necessary condition for a match, so answers never change; ``False``
        reproduces the pre-optimisation behaviour exactly.
    """

    def __init__(self, compiled: bool = True, precheck: bool = True) -> None:
        self.compiled = compiled
        self.precheck = precheck
        self.stats = VerifierStats()
        # id(graph) -> (graph, num_vertices, num_edges, compiled) memos for
        # compile_pattern / compile_target: workload streams repeat queries
        # (Zipf by design), and the compiled forms depend only on the graph.
        # Entries hold a strong reference to their graph, so a live entry's
        # id can never be reused by a new object; the count guard catches
        # in-place growth (add_vertex / add_edge are the only mutators and
        # both strictly increase a count).
        self._plan_memo: dict[int, tuple] = {}
        self._target_memo: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Compiled fast path
    # ------------------------------------------------------------------
    def supports_compiled(self) -> bool:
        """True if this verifier may dispatch to the compiled kernel."""
        return self.compiled

    @staticmethod
    def _memoised(memo: dict, graph: LabeledGraph, compile_fn):
        entry = memo.get(id(graph))
        if (
            entry is not None
            and entry[1] == graph.num_vertices
            and entry[2] == graph.num_edges
        ):
            return entry[3]
        compiled = compile_fn(graph)
        if len(memo) >= _COMPILE_MEMO_CAPACITY:
            memo.pop(next(iter(memo)))
        memo[id(graph)] = (graph, graph.num_vertices, graph.num_edges, compiled)
        return compiled

    def compile_pattern(
        self, pattern: LabeledGraph, compiled: CompiledQuery | None = None
    ) -> CompiledQueryPlan | None:
        """Compile ``pattern`` into a reusable plan, or ``None`` for a
        ``compiled=False`` verifier (the graph-based path).

        ``compiled`` is the query's shared :class:`CompiledQuery` when the
        caller (the iGQ engine) carries one: its plan is used, and built
        there if no earlier stage needed it.  Otherwise memoised per graph
        object: a repeated query re-uses its plan instead of recomputing
        the matching order (plans are immutable and deterministic, so
        sharing never changes answers or accounting).
        """
        if not self.compiled:
            return None
        if compiled is not None:
            return compiled.compiled_plan()
        return self._memoised(self._plan_memo, pattern, compile_query_plan)

    def compile_target(
        self, target: LabeledGraph, compiled: CompiledQuery | None = None
    ) -> CompiledTarget | None:
        """Compile ``target`` for repeated verification, or ``None`` for a
        ``compiled=False`` verifier (the graph-based path).

        Shared through ``compiled`` or memoised like :meth:`compile_pattern`
        (supergraph streams repeat query graphs in the target role the same
        way).
        """
        if not self.compiled:
            return None
        if compiled is not None:
            return compiled.compiled_target()
        return self._memoised(self._target_memo, target, compile_target)

    def resolved_kernel_name(self) -> str:
        """``"native"``, or ``"uncompiled"`` when this verifier bypasses the
        C kernel entirely (the ``kernel_resolved`` block of the service
        report shows it)."""
        return "native" if self.compiled else "uncompiled"

    def verify_pairs(
        self,
        query_side: CompiledQueryPlan | CompiledTarget,
        candidates: Sequence,
        regions: Sequence[int] | None = None,
        by_component: bool = False,
    ) -> list[bool]:
        """Test every pair of one query in the C kernel.

        The batch form of :meth:`is_subgraph`: ``query_side`` is the
        compiled side the pairs share — the query's plan against each
        candidate :class:`CompiledTarget` (subgraph verification, ``Isub``)
        or the query's target against each candidate
        :class:`CompiledQueryPlan` (supergraph verification, ``Isuper``) —
        obtained from :meth:`compile_pattern` / :meth:`compile_target` or
        the database caches.  ``regions`` (one restricted test per pair)
        or ``by_component`` (Grapes' label-region decomposition, no
        ``regions``) are passed to
        :func:`~repro.isomorphism.compiled.match_pairs`.  Returns the match
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

    def record_batch(self, tested: int, positives: int, seconds: float) -> None:
        """Fold ``tested`` tests, ``positives`` of them matches, run in
        ``seconds`` into the statistics — how every batched route accounts
        (:meth:`verify_pairs`, the containment indexes' native probe)."""
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

    # ------------------------------------------------------------------
    # Graph-based path
    # ------------------------------------------------------------------
    def is_subgraph(self, pattern: LabeledGraph, target: LabeledGraph) -> bool:
        """Test ``pattern ⊆ target`` with VF2, updating the statistics."""
        start = time.perf_counter()
        if self.precheck and signature_prereject(pattern, target):
            # The signature check is a necessary condition for a subgraph
            # isomorphism: a reject here is a test whose matcher run is
            # provably pointless.
            result = False
        else:
            result = VF2Matcher(pattern, target).has_match()
        self._record(result, time.perf_counter() - start)
        return result

    def is_supergraph(self, pattern: LabeledGraph, target: LabeledGraph) -> bool:
        """Test ``pattern ⊇ target`` (i.e. ``target ⊆ pattern``)."""
        return self.is_subgraph(target, pattern)

    # ------------------------------------------------------------------
    def _record(self, result: bool, elapsed: float) -> None:
        self.stats.tests += 1
        self.stats.total_seconds += elapsed
        if result:
            self.stats.positives += 1
        else:
            self.stats.negatives += 1

    def reset(self) -> None:
        """Reset the accumulated statistics."""
        self.stats.reset()

    def fresh_clone(self) -> "Verifier":
        """A new verifier with the same configuration and zeroed statistics.

        Per-chunk thread clones must run under the *same* fast-path flags as
        the parent — otherwise an A/B run with ``compiled=False`` would
        silently re-enable the kernel on the pool — but must not inherit
        the parent's accumulated counters.
        """
        return Verifier(compiled=self.compiled, precheck=self.precheck)
