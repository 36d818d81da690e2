"""The iGQ query processing engine (Figure 6 and §4.2–4.4 of the paper).

:class:`IGQ` wraps any filter-then-verify method ``M`` and adds the query
index: for every incoming query it

1. lets ``M`` filter the dataset graphs into the candidate set ``CS(g)``,
2. consults the two iGQ components — ``Isub`` (previous queries that are
   supergraphs of ``g``) and ``Isuper`` (previous queries that are subgraphs
   of ``g``) — and prunes ``CS(g)`` with formulae (3) and (5),
3. short-circuits entirely on the two optimal cases of §4.3 (exact query
   repeat; a contained previous query with an empty answer) — and replays
   the whole plan of a query isomorphic to one planned since the last
   window flush,
4. verifies only the surviving candidates, assembles the final answer with
   formula (4), and
5. updates the replacement-policy metadata and the query window (§5).

The same engine processes *supergraph* queries (§4.4): the roles of the two
components are mirrored — answers of contained previous queries are
guaranteed answers, answers of containing previous queries bound the
candidate set from above.
"""

from __future__ import annotations

import os
import time
from array import array
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from itertools import chain

from ..features.extractor import GraphFeatures
from ..graphs.bitset import CandidateBitmap, GraphIdSpace
from ..graphs.database import GraphDatabase
from ..graphs.graph import GraphMemo, LabeledGraph
from ..isomorphism.compiled import CompiledQuery, FlatGraph
from ..isomorphism.cost import isomorphism_test_cost
from ..isomorphism.verifier import Verifier
from ..methods.base import QueryResult, SubgraphQueryMethod
from .cache import CacheEntry, QueryCache
from .config import (
    MIXED_MODE,
    SUBGRAPH_MODE,
    SUPERGRAPH_MODE,
    ConfigError,
    EngineConfig,
    validate_query_mode,
)
from .maintenance import IndexMaintenance, MaintenanceReport, PendingQuery
from .placement import Placement
from .probe import mask_sums
from .replacement import create_policy
from .shard_runtime import ShardRuntime

__all__ = ["IGQQueryResult", "QueryPlan", "IGQ"]

@dataclass
class IGQQueryResult(QueryResult):
    """Query outcome enriched with iGQ-specific accounting."""

    #: dataset graphs whose verification was skipped because a cached
    #: supergraph-of-the-query (subgraph case) / subgraph-of-the-query
    #: (supergraph mode) already guaranteed them to be answers
    guaranteed_answers: set = field(default_factory=set)
    #: dataset graphs pruned from the candidate set by the restricting
    #: component (supergraph case for subgraph queries)
    pruned_candidates: set = field(default_factory=set)
    #: number of cached queries found to contain the new query
    num_sub_hits: int = 0
    #: number of cached queries found to be contained in the new query
    num_super_hits: int = 0
    #: the new query was an exact repeat of a cached query (§4.3, case 1)
    exact_hit: bool = False
    #: verification was skipped entirely (exact repeat or provably empty)
    verification_skipped: bool = False
    #: a maintenance step (window flush) ran after this query
    maintenance: MaintenanceReport | None = None


@dataclass
class QueryPlan:
    """Everything the engine decides about a query *before* verification.

    Produced by :meth:`IGQ.plan_query` (stages 1–2 of Figure 6: base-method
    filtering plus the two iGQ components) and consumed by
    :meth:`IGQ.complete_query` after the surviving candidates — exposed as
    the set-like :attr:`remaining` — have been verified.  Splitting the
    query here is what lets the batch executor fan the verification stage
    out to a thread pool while the planning and maintenance stages stay
    strictly sequential (and therefore deterministic).

    All candidate bookkeeping is held as integer bitmasks over the engine's
    dataset-graph id space.
    """

    query: LabeledGraph
    features: GraphFeatures
    #: the query's compiled plan / target, shared by the component probes,
    #: the dataset verification and the cache entry the query becomes
    compiled: CompiledQuery
    supergraph: bool
    space: GraphIdSpace
    candidate_mask: int
    sub_hits: list
    super_hits: list
    exact_entry: CacheEntry | None
    guaranteed_mask: int
    pruned_mask: int
    remaining_mask: int
    skip_all: bool
    cache_answer_mask: int
    tests_before: int
    filter_seconds: float
    igq_seconds: float
    #: the §5.1 increments ``(entry, removed, cost)`` per hit, in credit
    #: order (what :meth:`IGQ.apply_plan_credits` applies)
    credits: list
    #: the plan is an earlier isomorphic query's, replayed (see
    #: :meth:`IGQ.plan_query`)
    replayed: bool = False

    @property
    def remaining(self) -> CandidateBitmap:
        """Candidates that still need an isomorphism test."""
        return CandidateBitmap(self.space, self.remaining_mask)

    @property
    def candidates(self) -> CandidateBitmap:
        """The base method's candidate set ``CS(g)``."""
        return CandidateBitmap(self.space, self.candidate_mask)


class IGQ:
    """iGQ framework: a base method ``M`` plus the query index ``I``.

    Parameters
    ----------
    method:
        Any :class:`~repro.methods.base.SubgraphQueryMethod` (the paper's
        ``M``); its index over the dataset graphs is built by
        :meth:`build_index`.
    config:
        An :class:`~repro.core.config.EngineConfig` — the one public way to
        configure the engine.  ``config.mode`` selects the query type
        (``"subgraph"``, ``"supergraph"`` or ``"mixed"``: per-call dispatch),
        ``config.cache`` sizes the query cache, ``config.batch`` drives
        :meth:`run_batch`.
        ``config.shard`` partitions the query index: the two components
        live in shard replicas in the engine's process — one replica at
        ``shards=1``, one per partition otherwise (see
        :mod:`repro.core.shard_runtime`).  ``None`` means all defaults.
    igq_verifier:
        Injection point for the containment verifier (the probes' and plan
        replay's test counter); the default is a ``Verifier()``.
    """

    def __init__(
        self,
        method: SubgraphQueryMethod,
        config: EngineConfig | None = None,
        *,
        igq_verifier: Verifier | None = None,
    ) -> None:
        if config is None:
            config = EngineConfig()
        elif not isinstance(config, EngineConfig):
            raise ConfigError(
                f"config must be an EngineConfig, got {type(config).__name__} "
                "(e.g. a cache size goes in EngineConfig.cache.size)"
            )
        self.config = config
        self.method = method
        self.mode = config.mode
        self.name = f"igq_{method.name}"
        self._igq_verifier = igq_verifier if igq_verifier is not None else Verifier()
        self.cache = QueryCache()
        self.maintenance = IndexMaintenance(
            cache_size=config.cache.size,
            window_size=config.cache.window,
            policy=create_policy(config.cache.policy),
        )
        self.database: GraphDatabase | None = None
        self._id_space: GraphIdSpace | None = None
        #: vertex count of every dataset graph, by ``_id_space`` position
        #: (what the §5.1 cost model reads per credited graph)
        self._target_sizes: list[int] = []
        #: ``(query |V|, supergraph) -> array("d")`` of the §5.1 cost of one
        #: test against each dataset graph, by ``_id_space`` position (the
        #: model is a pure function of the two sizes and the label count)
        self._cost_vectors: dict[tuple[int, bool], array] = {}
        #: the prepared query ``(features, flat)`` per graph object —
        #: repeat-heavy streams reuse the same graph objects (workload
        #: pools, batch inputs), and preparation is a pure function of the
        #: graph, so repeats skip the flattening and the path enumeration
        self._prepared = GraphMemo(8192)
        #: ``(feature codes, |V|, |E|, supergraph) -> plan`` of the queries
        #: planned since the last window flush: a flush is the only write to
        #: the live set, so until the next one an isomorphic query's plan is
        #: this query's plan (cleared by :meth:`_flush_window`)
        self._plans: dict[tuple, QueryPlan] = {}
        #: completed queries whose plan was replayed
        self.plans_replayed = 0
        self.num_shards = config.shard.shards
        self.placement = Placement(self.num_shards)
        #: which components the probes consult (the replicas own the index
        #: structures)
        self.probe_isub = config.enable_isub
        self.probe_isuper = config.enable_isuper
        #: the replicas that own the component indexes — the only place an
        #: index changes is a window flush (:meth:`_flush_window`) or a warm
        #: start
        self.shard_runtime = ShardRuntime(self)
        #: durable WAL/snapshot store (:mod:`repro.persist`), attached when
        #: ``config.persist.dir`` is set (last: a warm restart fills the
        #: cache, the placement map and the replicas above)
        self.persister = None
        #: the commit future of the newest flush record not yet claimed
        #: (:meth:`take_commit`)
        self._commit: Future | None = None
        #: restored answers waiting for :meth:`_attach` (see
        #: :func:`repro.persist.engine_state.adopt_answers`), the fingerprint
        #: of the id space they index (``None`` for a format-2 journal) and
        #: where they came from
        self._answers_pending = False
        self._restored_space: str | None = None
        self._restored_from = ""
        # (importing repro.persist costs a fresh process ~20 ms: only a
        # durable engine pays it)
        forced = os.environ.get("REPRO_FORCE_PERSIST_DIR")
        if config.persist.enabled or forced:
            from ..persist.engine_state import attach_configured_persister

            attach_configured_persister(self, forced)

    @property
    def isub(self):
        """The ``Isub`` index of a single-shard engine's one replica.

        ``None`` with more than one shard (each partition holds its own) or
        with ``Isub`` disabled.  Read it, do not write it: a window flush
        is the only way an index changes.
        """
        return self.shard_runtime.shards[0].isub if self.num_shards == 1 else None

    @property
    def isuper(self):
        """The ``Isuper`` index of a single-shard engine's one replica
        (``None`` otherwise; see :attr:`isub`)."""
        return self.shard_runtime.shards[0].isuper if self.num_shards == 1 else None

    def persist_state(self) -> dict:
        """The engine's small mutable state at a flush boundary (see
        :func:`repro.persist.engine_state.persist_state`)."""
        from ..persist.engine_state import persist_state

        return persist_state(self)

    @property
    def igq_verifier(self) -> Verifier:
        """The verifier used for query-vs-cached-query containment tests.

        Kept separate from the base method's verifier so the paper's
        "isomorphism tests against dataset graphs" metric is not polluted.
        """
        return self._igq_verifier

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def build_index(self, database: GraphDatabase) -> None:
        """Build the base method's dataset index; the query index starts empty."""
        self.method.build_index(database)
        self._attach(database)

    def attach_prebuilt(self, database: GraphDatabase | None = None) -> None:
        """Use a base method whose dataset index has already been built.

        Saves re-indexing when the same built method instance is shared
        between a plain run and an iGQ run (as the experiment runners do).
        """
        if database is None:
            database = self.method.database
        if database is None or self.method.id_space is None:
            raise RuntimeError("the base method has no built index to attach")
        self._attach(database)

    def _attach(self, database: GraphDatabase) -> None:
        self.database = database
        space = self._id_space = self.method.id_space
        if self._answers_pending:
            from ..persist.engine_state import adopt_answers

            adopt_answers(self)
        self._target_sizes = [database.get(graph_id).num_vertices for graph_id in space.ids]
        self._cost_vectors = {}
        self._plans.clear()

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def query(self, query: LabeledGraph, mode: str | None = None) -> IGQQueryResult:
        """Process one query — the engine's configured type, or ``mode``.

        Fixed-mode engines (``"subgraph"`` / ``"supergraph"``) use their
        configured type when ``mode`` is omitted; a mixed-mode engine serves
        both types through this one endpoint and requires ``mode`` per call
        (:class:`~repro.service.GraphQueryService` supplies it).
        """
        if self.database is None:
            raise RuntimeError("IGQ.build_index() must be called before querying")
        if mode is None:
            if self.mode == MIXED_MODE:
                raise ValueError(
                    "a mixed-mode engine needs mode='subgraph' or "
                    "mode='supergraph' per query (GraphQueryService passes it)"
                )
            mode = self.mode
        validate_query_mode(mode)
        self._require_mode(mode)
        return self._process(query, supergraph=mode == SUPERGRAPH_MODE)

    def subgraph_query(self, query: LabeledGraph) -> IGQQueryResult:
        """Process ``query`` as a subgraph query (requires subgraph/mixed mode)."""
        self._require_mode(SUBGRAPH_MODE)
        return self._process(query, supergraph=False)

    def supergraph_query(self, query: LabeledGraph) -> IGQQueryResult:
        """Process ``query`` as a supergraph query (requires supergraph/mixed mode)."""
        self._require_mode(SUPERGRAPH_MODE)
        return self._process(query, supergraph=True)

    def _require_mode(self, mode: str) -> None:
        if self.mode != mode and self.mode != MIXED_MODE:
            raise RuntimeError(
                f"this IGQ instance is configured for {self.mode!r} queries; "
                f"create a separate instance for {mode!r} queries"
            )

    # ------------------------------------------------------------------
    def _process(self, query: LabeledGraph, supergraph: bool) -> IGQQueryResult:
        plan = self.plan_query(query, supergraph=supergraph)

        # Stage 3 — verification of the surviving candidates.
        start = time.perf_counter()
        verified = self.verify_plan(plan)
        verify_seconds = time.perf_counter() - start

        result = self.complete_query(plan, verified, verify_seconds)
        self.await_commit()
        return result

    def take_commit(self) -> Future | None:
        """The commit future of the newest window flush's journal record,
        handed out once (``None`` without an unclaimed one).

        No result computed after that flush may be acknowledged before the
        commit resolves (the durability contract); the journal commits in
        order, so the newest commit covers every earlier one.
        """
        commit, self._commit = self._commit, None
        return commit

    def await_commit(self) -> None:
        """Wait until the newest window flush is durable (see
        :meth:`take_commit`); raises what the journal writer raised."""
        commit = self.take_commit()
        if commit is not None:
            commit.result()

    def prepare(self, query: LabeledGraph) -> tuple[GraphFeatures, FlatGraph]:
        """The query flattened once and its features extracted from that
        (memoised per graph object and size): what every later stage reads."""
        return self._prepared.get(query, self._prepare)

    def _prepare(self, query: LabeledGraph) -> tuple[GraphFeatures, FlatGraph]:
        flat = FlatGraph(query)
        return self.method.extract_query_features(query, flat), flat

    def plan_query(
        self,
        query: LabeledGraph,
        supergraph: bool = False,
        features: GraphFeatures | None = None,
        flat: FlatGraph | None = None,
    ) -> QueryPlan:
        """Run stages 1–2 (filtering and iGQ pruning) and return the plan.

        ``features`` may carry the query's pre-extracted features and
        ``flat`` the arrays they were extracted from (the batch executor
        memoises preparation across repeated queries); when ``features`` is
        omitted the query is prepared here (:meth:`prepare`).  Planning's
        one state write, the §5.1 metadata update (H/R/C of the hit cache
        entries), is applied before the plan is returned.

        Plan replay: a query planned since the last window flush with the
        same feature codes and sizes, confirmed isomorphic to this one by
        one counted containment test, lends this query its plan — the live
        set has not changed since, so candidates, hits, the exact entry and
        the §5.1 increments are exactly what planning afresh would compute.
        Only the credits are applied again.  A plan whose probes ran no
        containment test is not kept: its replay would cost more tests.
        """
        if self.database is None:
            raise RuntimeError("IGQ.build_index() must be called before querying")
        method = self.method
        space = self._id_space
        tests_before = method.verifier.stats.tests

        # Stage 1 — the base method's filtering (Figure 6, thread 1).
        start = time.perf_counter()
        if features is None:
            features, flat = self.prepare(query)
        compiled = CompiledQuery(query, flat)
        key = (features.feature_codes().tobytes(), query.num_vertices, query.num_edges, supergraph)
        earlier = self._plans.get(key)
        if earlier is not None:
            prepared = time.perf_counter()
            if self._confirms_repeat(compiled, earlier):
                plan = replace(
                    earlier,
                    query=query,
                    features=features,
                    compiled=compiled,
                    tests_before=tests_before,
                    filter_seconds=prepared - start,
                    replayed=True,
                )
                self.apply_plan_credits(plan)
                plan.igq_seconds = time.perf_counter() - prepared
                return plan
        if supergraph:
            candidates = method.filter_supergraph_candidates(query, features=features)
        else:
            candidates = method.filter_candidates(query, features=features)
        candidate_mask = space.mask_of(candidates)
        filter_seconds = time.perf_counter() - start

        # Stage 2 — the two iGQ components (Figure 6, threads 2 and 3).
        start = time.perf_counter()
        probe_tests = self.igq_verifier.stats.tests
        sub_hits, super_hits = self._component_hits(query, features, compiled)
        probe_tests = self.igq_verifier.stats.tests - probe_tests
        if self.mode == MIXED_MODE:
            # A mixed-mode cache holds subgraph- and supergraph-typed answer
            # sets side by side; a hit only carries meaning for a query of
            # the same type (a subgraph answer set says nothing about which
            # dataset graphs a supergraph query contains), so restrict the
            # hit lists before the exact-repeat check and the §5.1 credits.
            # Fixed-mode engines skip this: every entry shares their mode.
            mode = SUPERGRAPH_MODE if supergraph else SUBGRAPH_MODE
            sub_hits = [e for e in sub_hits if e.tags.get("mode") == mode]
            super_hits = [e for e in super_hits if e.tags.get("mode") == mode]
        exact_entry = self._find_exact(query, sub_hits, super_hits)

        if supergraph:
            guaranteed, pruned, remaining, skip_all = self._combine(
                candidate_mask, guaranteed_hits=super_hits, restricting_hits=sub_hits
            )
        else:
            guaranteed, pruned, remaining, skip_all = self._combine(
                candidate_mask, guaranteed_hits=sub_hits, restricting_hits=super_hits
            )

        if exact_entry is not None:
            cache_answer_mask = self._answer_mask(exact_entry)
            remaining = 0
            skip_all = True
        else:
            cache_answer_mask = guaranteed

        plan = QueryPlan(
            query=query,
            features=features,
            compiled=compiled,
            supergraph=supergraph,
            space=space,
            candidate_mask=candidate_mask,
            sub_hits=sub_hits,
            super_hits=super_hits,
            exact_entry=exact_entry,
            guaranteed_mask=guaranteed,
            pruned_mask=pruned,
            remaining_mask=remaining,
            skip_all=skip_all,
            cache_answer_mask=cache_answer_mask,
            tests_before=tests_before,
            filter_seconds=filter_seconds,
            igq_seconds=0.0,
            credits=self._hit_credits(query, candidate_mask, sub_hits, super_hits, supergraph),
        )
        self.apply_plan_credits(plan)
        plan.igq_seconds = time.perf_counter() - start
        if probe_tests:
            self._plans[key] = plan
        return plan

    def _confirms_repeat(self, compiled: CompiledQuery, earlier: QueryPlan) -> bool:
        """One counted containment test: the query ⊆ an earlier query of
        equal size — that is, the two are isomorphic.  Both compiled forms
        are the ones the flush caches the two queries with."""
        target = earlier.compiled.compiled_target()
        return self.igq_verifier.verify_pairs(compiled.compiled_plan(), [target])[0]

    def _component_hits(
        self, query: LabeledGraph, features: GraphFeatures, compiled: CompiledQuery
    ) -> tuple[list[CacheEntry], list[CacheEntry]]:
        """Stage-2 component lookups: ``(Isub(g), Isuper(g))`` hit lists.

        The probe fans out across the runtime's replicas (one of them at
        ``shards=1``).  ``compiled`` is where the probes leave the query's
        plan and target for the later stages.
        """
        sub_ids, super_ids = self.shard_runtime.probe(
            query, features, self.probe_isub, self.probe_isuper, compiled
        )
        # Each index reports its hits in ascending entry id — cache
        # insertion order, ids being monotonic; merging the partitions back
        # into it gives exact-repeat detection and crediting the same
        # sequence for every shard count.
        cache = self.cache
        sub_hits = [cache.get(entry_id) for entry_id in sorted(sub_ids)]
        super_hits = [cache.get(entry_id) for entry_id in sorted(super_ids)]
        return sub_hits, super_hits

    def apply_plan_credits(self, plan: QueryPlan) -> None:
        """Apply a plan's §5.1 metadata update: one hit per entry in
        ``plan.credits`` — what planning afresh and plan replay both end
        with."""
        for entry, removed, cost in plan.credits:
            entry.record_hit(removed, cost)

    def verify_plan(self, plan: QueryPlan) -> set:
        """Stage 3 — verify the plan's surviving candidates in-process."""
        verify = self.method.verify_supergraph if plan.supergraph else self.method.verify
        return verify(
            plan.query, plan.remaining, features=plan.features, compiled=plan.compiled
        )

    def complete_query(
        self, plan: QueryPlan, verified, verify_seconds: float
    ) -> IGQQueryResult:
        """Stage 4 — assemble the result and run window maintenance.

        ``verified`` is the answer subset of ``plan.remaining`` (any iterable
        of graph ids — a plain set from :meth:`verify_plan` or the merged
        union of thread-pool chunks).
        """
        space = plan.space
        answers = CandidateBitmap(
            space, space.mask_of(verified) | plan.cache_answer_mask
        )
        report = self._record_query(plan, answers)
        self.plans_replayed += plan.replayed
        return IGQQueryResult(
            query_name=plan.query.name,
            answers=answers,
            candidates=CandidateBitmap(space, plan.candidate_mask),
            num_isomorphism_tests=self.method.verifier.stats.tests - plan.tests_before,
            filter_seconds=plan.filter_seconds,
            verify_seconds=verify_seconds,
            igq_seconds=plan.igq_seconds,
            guaranteed_answers=CandidateBitmap(space, plan.guaranteed_mask),
            pruned_candidates=CandidateBitmap(space, plan.pruned_mask),
            num_sub_hits=len(plan.sub_hits),
            num_super_hits=len(plan.super_hits),
            exact_hit=plan.exact_entry is not None,
            verification_skipped=plan.skip_all or not plan.remaining_mask,
            maintenance=report,
        )

    # ------------------------------------------------------------------
    # Candidate-set combination (formulae (3), (4), (5) and §4.4)
    # ------------------------------------------------------------------
    def _answer_mask(self, entry: CacheEntry) -> int:
        """Answer set of a cached entry as a bitmask over the id space (a
        hand-added frozenset gets its bitmap on first use)."""
        answers = entry.answers
        if answers.__class__ is not CandidateBitmap or answers.space is not self._id_space:
            answers = entry.answers = CandidateBitmap.from_ids(self._id_space, answers)
        return answers.mask

    def _combine(
        self,
        candidate_mask: int,
        guaranteed_hits: list[CacheEntry],
        restricting_hits: list[CacheEntry],
    ) -> tuple[int, int, int, bool]:
        """Apply the pruning rules to a candidate bitmask.

        For subgraph queries the guaranteeing component is ``Isub`` and the
        restricting one ``Isuper``; for supergraph queries (§4.4) the roles
        are mirrored.  Returns ``(guaranteed answers, pruned candidates,
        remaining candidates, skip_all)``, all but the flag as bitmasks.
        """
        guaranteed = 0
        for entry in guaranteed_hits:
            guaranteed |= self._answer_mask(entry)
        remaining = candidate_mask & ~guaranteed

        skip_all = False
        pruned_by_restriction = 0
        if restricting_hits:
            masks = list(map(self._answer_mask, restricting_hits))
            if not all(masks):
                # §4.3 optimal case 2 (and its §4.4 mirror): a restricting
                # previous query had no answers, so the new query cannot
                # have any beyond the guaranteed ones either.
                pruned_by_restriction = remaining
                remaining = 0
                skip_all = True
            else:
                allowed = -1
                for mask in masks:
                    allowed &= mask
                pruned_by_restriction = remaining & ~allowed
                remaining &= allowed
        pruned = (candidate_mask & guaranteed) | pruned_by_restriction
        return guaranteed, pruned, remaining, skip_all

    @staticmethod
    def _find_exact(
        query: LabeledGraph, sub_hits: list[CacheEntry], super_hits: list[CacheEntry]
    ) -> CacheEntry | None:
        """§4.3 optimal case 1: a containment hit of identical size is the
        same query, so its stored answer can be returned directly."""
        for entry in chain(sub_hits, super_hits):
            if entry.graph.same_size(query):
                return entry
        return None

    # ------------------------------------------------------------------
    # Metadata updates (§5.1)
    # ------------------------------------------------------------------
    def _hit_credits(
        self,
        query: LabeledGraph,
        candidate_mask: int,
        sub_hits: list[CacheEntry],
        super_hits: list[CacheEntry],
        supergraph: bool,
    ) -> list[tuple[CacheEntry, int, float]]:
        """The H, R and C increments ``(entry, removed, cost)`` of every
        cache entry that was hit (applied by :meth:`apply_plan_credits`)."""
        guaranteed_hits = super_hits if supergraph else sub_hits
        restricting_hits = sub_hits if supergraph else super_hits
        if not (guaranteed_hits or restricting_hits):
            return []
        answer_mask = self._answer_mask
        removable = [answer_mask(entry) & candidate_mask for entry in guaranteed_hits]
        removable += [candidate_mask & ~answer_mask(entry) for entry in restricting_hits]
        # Hits of one query mostly free the same few candidate sets.
        distinct = list(dict.fromkeys(removable))
        cost_of = dict(
            zip(distinct, mask_sums(self._cost_vector(query.num_vertices, supergraph), distinct))
        )
        return [
            (entry, mask.bit_count(), cost_of[mask])
            for entry, mask in zip(guaranteed_hits + restricting_hits, removable)
        ]

    def _cost_vector(self, query_size: int, supergraph: bool) -> array:
        """Estimated cost of testing a query of ``query_size`` vertices
        against each dataset graph, by position (memoised until the next
        :meth:`_attach`)."""
        costs = self._cost_vectors.get((query_size, supergraph))
        if costs is None:
            num_labels = max(self.database.num_labels, 1)
            by_size = {}
            for size in set(self._target_sizes):
                # The model needs a target of at least one vertex; for
                # supergraph queries the test is candidate ⊆ query.
                if supergraph:
                    cost = isomorphism_test_cost(size, max(query_size, 1), num_labels)
                else:
                    cost = isomorphism_test_cost(query_size, max(size, 1), num_labels)
                by_size[size] = cost
            costs = array("d", map(by_size.__getitem__, self._target_sizes))
            self._cost_vectors[query_size, supergraph] = costs
        return costs

    def _record_query(self, plan: QueryPlan, answers) -> MaintenanceReport | None:
        """Add the processed query to the window; flush it when full."""
        self.cache.note_query_processed()
        # The entry is tagged with the *query's* type, not the engine's —
        # identical for fixed-mode engines, and what lets a mixed-mode cache
        # tell its two answer-set flavours apart.
        mode = SUPERGRAPH_MODE if plan.supergraph else SUBGRAPH_MODE
        compiled = plan.compiled
        # the forms the entry will need, created (not compiled) now so that
        # they compile from the query's one flattening
        if self.probe_isub:
            compiled.compiled_target()
        if self.probe_isuper:
            compiled.compiled_plan()
        window_full = self.maintenance.submit(
            PendingQuery(
                graph=plan.query,
                features=plan.features,
                answer=answers,
                tags={"mode": mode},
                compiled_target=compiled.target,
                compiled_plan=compiled.plan,
            )
        )
        if not window_full:
            return None
        return self._flush_window()

    def _flush_window(self) -> MaintenanceReport:
        """Apply a full query window (§5.2): one flush, one report, then
        the journal and the replicas.

        :class:`IndexMaintenance` picks the victims and mutates the cache
        (nothing else); the placement gives each victim and each new entry
        its home; the durable store journals the report as one record, and
        the shard replicas apply it (each victim leaves its home, each new
        entry joins its home).  The journal goes first: its writer thread
        makes the record durable while this thread updates the replicas,
        and the commit future is kept for :meth:`take_commit`.
        """
        report = self.maintenance.flush(self.cache)
        self._plans.clear()
        if not report.inserted:
            return report
        homes = self.placement.apply(report)
        if self.persister is not None:
            self._commit = self.persister.record_flush(self, report, homes) or self._commit
        self.shard_runtime.sync(report, homes)
        # the report lives on with its query's result: it must not keep
        # evicted graphs, features and answer sets alive
        report.evicted_entries.clear()
        report.inserted_entries.clear()
        return report

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def run_batch(self, queries: list[LabeledGraph]) -> list[IGQQueryResult]:
        """Process a batch of queries, optionally verifying in parallel.

        The execution parameters come from ``self.config.batch`` — with the
        default :class:`~repro.core.config.BatchConfig` this is the
        deterministic sequential path, exactly equivalent to calling
        :meth:`query` once per query; with workers configured the
        verification stage of each query fans out to a
        :mod:`concurrent.futures` pool.  Answers, cache contents
        and replacement metadata are identical in every configuration.  See
        :class:`repro.core.batch.BatchExecutor` for the streaming API.
        """
        from .batch import BatchExecutor

        with BatchExecutor(self, config=self.config.batch) as executor:
            return executor.run_batch(queries)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine-owned execution resources (idempotent).

        The durable store (when configured) writes every queued job and
        flushes and fsyncs its WAL tail.  Verification pools belong to the
        :class:`~repro.core.batch.BatchExecutor` driving the engine and shut
        down with it.
        """
        if self.persister is not None:
            self.persister.close()

    def __enter__(self) -> "IGQ":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def index_size_bytes(self) -> int:
        """Estimated size of the iGQ query index (structures + cached graphs).

        This is the space *overhead* iGQ adds on top of the base method's
        dataset index (compared in Figure 18).
        """
        total = self.shard_runtime.estimated_size_bytes()
        for entry in self.cache.entries():
            graph = entry.graph
            total += 80 + 56 * graph.num_vertices + 48 * graph.num_edges
            total += 40 + 8 * self._answer_mask(entry).bit_count()
        return total

    def __repr__(self) -> str:
        return (
            f"<IGQ method={self.method.name!r} mode={self.mode!r} "
            f"shards={self.num_shards} "
            f"cached={len(self.cache)}>"
        )
