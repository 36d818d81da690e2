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
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from ..features.extractor import GraphFeatures
from ..graphs.bitset import CandidateBitmap, GraphIdSpace
from ..graphs.database import GraphDatabase
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery, FlatGraph
from ..isomorphism.cost import isomorphism_test_cost
from ..isomorphism.verifier import Verifier
from ..methods.base import QueryResult, SubgraphQueryMethod
from .batch import FeatureMemo, verify_on_pool
from .cache import QueryCache
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
from .replacement import create_policy
from .shard_runtime import ShardRuntime

__all__ = ["IGQQueryResult", "QueryPlan", "IGQ"]

#: below this many surviving candidates a parallel round-trip costs more
#: than it saves, so :meth:`IGQ.execute` verifies in-process
_MIN_PARALLEL_CANDIDATES = 4


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
    query here is what lets :meth:`IGQ.execute` fan the verification stage
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
    #: the entry ids of the ``Isub`` / ``Isuper`` hits, each ascending
    sub_hits: list
    super_hits: list
    #: the id of the hit the query repeats exactly (§4.3 case 1), if any
    exact_id: int | None
    guaranteed_mask: int
    pruned_mask: int
    remaining_mask: int
    skip_all: bool
    cache_answer_mask: int
    tests_before: int
    filter_seconds: float
    igq_seconds: float
    #: the §5.1 increments of the hits, in credit order, as the planning
    #: kernel call returned them: ``(rows, removed, costs)`` arrays over
    #: the cache's column block (``None`` without hits); what
    #: :meth:`IGQ.apply_plan_credits` applies again on a replay
    credits: tuple | None
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
        ``config.cache`` sizes the query cache, ``config.batch`` sets the
        verification pool and the feature memo of :meth:`execute`.
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
        #: the prepared query ``(features, flat)`` per ``ordered_key``
        #: (``None`` with ``batch.memoize_features`` off): repeats of a
        #: query, and copies built the same way, skip the flattening and
        #: the extraction
        self.feature_memo = (
            FeatureMemo(method.extractor) if config.batch.memoize_features else None
        )
        #: the verification thread pool, created by the first query that
        #: uses it (``batch.num_workers > 1``) and shut down by :meth:`close`
        self._workers = config.batch.num_workers
        self._pool: ThreadPoolExecutor | None = None
        #: queries whose candidates were verified on the pool / in-process
        self.parallel_verifications = 0
        self.sequential_verifications = 0
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
        self.cache.attach_space(space)
        self._target_sizes = [database.get(graph_id).num_vertices for graph_id in space.ids]
        self._cost_vectors = {}
        self._plans.clear()

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------
    def query(self, query: LabeledGraph, mode: str | None = None) -> IGQQueryResult:
        """Process one query — the engine's configured type, or ``mode`` —
        and wait until the window flush it ran, if any, is durable.

        Fixed-mode engines (``"subgraph"`` / ``"supergraph"``) use their
        configured type when ``mode`` is omitted; a mixed-mode engine serves
        both types through this one endpoint and requires ``mode`` per call
        (:class:`~repro.service.GraphQueryService` supplies it).
        """
        result = self.execute(query, self.resolve_mode(mode))
        self.await_commit()
        return result

    def subgraph_query(self, query: LabeledGraph) -> IGQQueryResult:
        """Process ``query`` as a subgraph query (requires subgraph/mixed mode)."""
        return self.query(query, SUBGRAPH_MODE)

    def supergraph_query(self, query: LabeledGraph) -> IGQQueryResult:
        """Process ``query`` as a supergraph query (requires supergraph/mixed mode)."""
        return self.query(query, SUPERGRAPH_MODE)

    def resolve_mode(self, mode: str | None) -> bool:
        """Whether a query of ``mode`` is a supergraph query: ``mode``, or
        the engine's own when omitted.

        Raises :class:`ValueError` for an omitted mode on a mixed-mode
        engine, a mode that is not a query mode, and a mode the engine does
        not serve.
        """
        if mode is None:
            if self.mode == MIXED_MODE:
                raise ValueError(
                    "a mixed-mode engine (EngineConfig(mode='mixed')) needs "
                    "mode='subgraph' or mode='supergraph' per query"
                )
            return self.mode == SUPERGRAPH_MODE
        validate_query_mode(mode)
        if self.mode not in (mode, MIXED_MODE):
            raise ValueError(
                f"this engine serves {self.mode!r} queries; configure "
                f"EngineConfig(mode='mixed') to dispatch both types"
            )
        return mode == SUPERGRAPH_MODE

    def execute(self, query: LabeledGraph, supergraph: bool) -> IGQQueryResult:
        """Run one query: prepare, plan, verify, complete.

        Every query runs here.  Verification goes to the engine's thread
        pool when ``batch.num_workers > 1`` and at least
        ``_MIN_PARALLEL_CANDIDATES`` candidates remain, and runs in-process
        otherwise.  Does not wait for the journal: a caller that
        acknowledges the result itself owns :meth:`take_commit` (the
        service does; :meth:`query` waits).
        """
        # Extraction happens outside plan_query, so its cost is folded into
        # filter_seconds below: it is part of the filtering stage.
        start = time.perf_counter()
        features, flat = self.prepare(query)
        extract_seconds = time.perf_counter() - start
        plan = self.plan_query(query, supergraph=supergraph, features=features, flat=flat)
        workers = self._workers
        start = time.perf_counter()
        if workers > 1 and plan.remaining_mask.bit_count() >= _MIN_PARALLEL_CANDIDATES:
            self.parallel_verifications += 1
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=workers)
            verified = verify_on_pool(
                self._pool,
                workers,
                self.method,
                query,
                plan.remaining_mask,
                supergraph,
                features,
                plan.compiled,
            )
        else:
            self.sequential_verifications += 1
            verified = self.verify_plan(plan)
        verify_seconds = time.perf_counter() - start
        result = self.complete_query(plan, verified, verify_seconds)
        result.filter_seconds += extract_seconds
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
        """The query flattened once and its features extracted from that:
        what every later stage reads (memoised in :attr:`feature_memo`
        unless ``batch.memoize_features`` is off)."""
        if self.feature_memo is not None:
            return self.feature_memo.prepare(query)
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
        ``flat`` the arrays they were extracted from (what :meth:`execute`
        passes); when ``features`` is omitted the query is prepared here
        (:meth:`prepare`).  Planning's
        one state write, the §5.1 metadata update (H/R/C of the hit cache
        entries), is applied before the plan is returned.

        Plan replay: a query planned since the last window flush with the
        same feature codes and sizes, confirmed isomorphic to this one by
        one counted containment test, lends this query its plan — the live
        set has not changed since, so candidates, hits, the exact entry and
        the §5.1 increments (and the column rows they credit) are exactly
        what planning afresh would compute.  Only the credits are applied
        again.  A plan whose probes ran no containment test is not kept:
        its replay would cost more tests.
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
        sub_hits, super_hits = self._component_hits(query, features, compiled, supergraph)
        probe_tests = self.igq_verifier.stats.tests - probe_tests
        # For subgraph queries the guaranteeing component is ``Isub`` and
        # the restricting one ``Isuper``; for supergraph queries (§4.4) the
        # roles are mirrored.
        if supergraph:
            guaranteeing, restricting = super_hits, sub_hits
        else:
            guaranteeing, restricting = sub_hits, super_hits
        guaranteed, pruned, remaining, skip_all, exact_id, exact_answer, credits = (
            self._plan_hits(query, candidate_mask, guaranteeing, restricting, supergraph)
        )
        if exact_id is not None:
            cache_answer_mask = exact_answer
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
            exact_id=exact_id,
            guaranteed_mask=guaranteed,
            pruned_mask=pruned,
            remaining_mask=remaining,
            skip_all=skip_all,
            cache_answer_mask=cache_answer_mask,
            tests_before=tests_before,
            filter_seconds=filter_seconds,
            igq_seconds=0.0,
            credits=credits,
        )
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
        self,
        query: LabeledGraph,
        features: GraphFeatures,
        compiled: CompiledQuery,
        supergraph: bool,
    ) -> tuple[list[int], list[int]]:
        """Stage-2 component lookups: the entry ids of the ``(Isub(g),
        Isuper(g))`` hits, each ascending.

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
        sub_ids.sort()
        super_ids.sort()
        if self.mode == MIXED_MODE:
            # A mixed-mode cache holds subgraph- and supergraph-typed answer
            # sets side by side; a hit only carries meaning for a query of
            # the same type (a subgraph answer set says nothing about which
            # dataset graphs a supergraph query contains), so restrict the
            # hit lists before the exact-repeat check and the §5.1 credits.
            # Fixed-mode engines skip this: every entry shares their mode.
            mode = SUPERGRAPH_MODE if supergraph else SUBGRAPH_MODE
            get = self.cache.get
            sub_ids = [i for i in sub_ids if get(i).tags.get("mode") == mode]
            super_ids = [i for i in super_ids if get(i).tags.get("mode") == mode]
        return sub_ids, super_ids

    # ------------------------------------------------------------------
    # Candidate-set combination (formulae (3), (4), (5), §4.3 and §4.4)
    # and the metadata updates (§5.1)
    # ------------------------------------------------------------------
    def _plan_hits(
        self,
        query: LabeledGraph,
        candidate_mask: int,
        guaranteeing: list[int],
        restricting: list[int],
        supergraph: bool,
    ) -> tuple[int, int, int, bool, int | None, int, tuple | None]:
        """Prune a candidate bitmask with the hits and credit the hits.

        One kernel call over the cache's column block
        (:meth:`ColumnBlock.plan <repro.core.probe.ColumnBlock.plan>`): the
        guaranteeing hits' answers are OR-ed into the guaranteed answers,
        the restricting hits' answers AND-ed into what may remain, a
        restricting hit with no answers prunes everything not guaranteed
        (§4.3 case 2), and the first hit of the query's size is an exact
        repeat (§4.3 case 1: it is isomorphic to the query, so any such
        hit's answer is the query's).  Each hit is credited in place, one
        H, the candidates it frees as R and their test costs as C.
        Returns ``(guaranteed, pruned, remaining, skip_all, exact id,
        exact answer, credits)``.
        """
        if not (guaranteeing or restricting):
            return 0, 0, candidate_mask, False, None, 0, None
        hit_ids = array("q", guaranteeing)
        hit_ids.extend(restricting)
        guaranteed, pruned, remaining, skip_all, exact, exact_answer, credits = (
            self.cache.columns.plan(
                hit_ids,
                len(guaranteeing),
                candidate_mask,
                self._cost_vector(query.num_vertices, supergraph),
                query.num_vertices,
                query.num_edges,
            )
        )
        exact_id = hit_ids[exact] if exact >= 0 else None
        return guaranteed, pruned, remaining, skip_all, exact_id, exact_answer, credits

    def apply_plan_credits(self, plan: QueryPlan) -> None:
        """Apply a replayed plan's §5.1 metadata update again: one hit per
        credit of ``plan.credits``, in one kernel call."""
        if plan.credits is not None:
            self.cache.columns.credit(plan.credits)

    def verify_plan(self, plan: QueryPlan) -> CandidateBitmap:
        """Stage 3 — verify the plan's surviving candidates in-process:
        the remaining mask in, the answer mask out (one kernel call)."""
        verify = self.method.verify_supergraph if plan.supergraph else self.method.verify
        return verify(
            plan.query, plan.remaining, features=plan.features, compiled=plan.compiled
        )

    def complete_query(
        self, plan: QueryPlan, verified, verify_seconds: float
    ) -> IGQQueryResult:
        """Stage 4 — assemble the result and run window maintenance.

        ``verified`` is the answer subset of ``plan.remaining``: the
        bitmap :meth:`verify_plan` returns or the OR of the thread-pool
        chunks' (any other iterable of graph ids is converted once).  The
        answers are its mask OR the cache's.
        """
        space = plan.space
        answers = CandidateBitmap(space, space.mask_of(verified) | plan.cache_answer_mask)
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
            exact_hit=plan.exact_id is not None,
            verification_skipped=plan.skip_all or not plan.remaining_mask,
            maintenance=report,
        )

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
    def run_batch(self, queries: Iterable) -> list[IGQQueryResult]:
        """:meth:`query` for each item of ``queries``, in order.

        Items are bare query graphs (the engine's configured type) or
        ``(query, mode)`` pairs, which a mixed-mode engine requires.
        """
        return [
            self.query(*item) if isinstance(item, tuple) else self.query(item)
            for item in queries
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine-owned execution resources (idempotent).

        First the verification pool is shut down (joining its threads),
        then the durable store (when configured) writes every queued job
        and flushes and fsyncs its WAL tail.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
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
            total += 40 + 8 * len(entry.answers)
        return total

    def __repr__(self) -> str:
        return (
            f"<IGQ method={self.method.name!r} mode={self.mode!r} "
            f"shards={self.num_shards} "
            f"cached={len(self.cache)}>"
        )
