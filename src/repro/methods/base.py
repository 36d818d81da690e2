"""Base interfaces for filter-then-verify graph query processing methods.

A *method* ``M`` (the paper's notation) owns a feature index over the dataset
graphs and answers subgraph queries in two stages:

1. **filtering** — produce a candidate set ``CS(g)`` guaranteed to contain
   every true answer (no false negatives, possibly false positives);
2. **verification** — run a subgraph isomorphism test for every candidate.

:class:`SubgraphQueryMethod` captures that contract.  The iGQ engine wraps an
instance of it and only interferes between the two stages (pruning the
candidate set), which is why the interface also exposes the query's extracted
features and a way to verify an explicitly given candidate set.

The same index supports *supergraph* queries (Definition 4) through
:meth:`SubgraphQueryMethod.filter_supergraph_candidates`: a dataset graph can
only be contained in the query if all of its features appear in the query at
least as often.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from ..features.bitmaps import ThresholdBitmapIndex
from ..features.extractor import FeatureExtractor, GraphFeatures
from ..graphs.bitset import CandidateBitmap, GraphIdSpace
from ..graphs.database import GraphDatabase
from ..graphs.graph import LabeledGraph
from ..isomorphism.compiled import CompiledQuery, FlatGraph, FormTable
from ..isomorphism.verifier import Verifier

__all__ = ["QueryResult", "SubgraphQueryMethod"]


def _at_most_masks(sized_bits: Iterable[tuple[int, int]]) -> list[int]:
    """``masks[n]`` = union of the bits whose size is at most ``n``.

    Covers sizes ``0..max``; a larger ``n`` means the last mask.
    """
    by_size: dict[int, int] = {}
    for size, bit in sized_bits:
        by_size[size] = by_size.get(size, 0) | bit
    masks, reached = [], 0
    for size in range(max(by_size, default=0) + 1):
        reached |= by_size.get(size, 0)
        masks.append(reached)
    return masks


@dataclass
class QueryResult:
    """Outcome and accounting of one query execution."""

    query_name: str | None
    answers: set = field(default_factory=set)
    candidates: set = field(default_factory=set)
    num_isomorphism_tests: int = 0
    filter_seconds: float = 0.0
    verify_seconds: float = 0.0
    #: extra time spent in the iGQ query index (zero for plain methods)
    igq_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Total query processing time (filtering + iGQ + verification)."""
        return self.filter_seconds + self.igq_seconds + self.verify_seconds

    @property
    def num_candidates(self) -> int:
        """Size of the candidate set produced by the filtering stage."""
        return len(self.candidates)

    @property
    def num_answers(self) -> int:
        """Size of the answer set."""
        return len(self.answers)

    @property
    def num_false_positives(self) -> int:
        """Candidates that failed verification."""
        return len(self.candidates) - len(self.candidates & self.answers)


class SubgraphQueryMethod(ABC):
    """Abstract filter-then-verify subgraph query processing method."""

    #: short identifier used in reports and benchmark tables
    name: str = "abstract"

    #: methods that never consult per-graph feature tables (e.g. the scan
    #: baseline) may set this to ``False`` to skip feature extraction at
    #: indexing time; the tables are then built lazily if ever needed.
    needs_graph_features: bool = True

    def __init__(self, extractor: FeatureExtractor, verifier: Verifier | None = None) -> None:
        self.extractor = extractor
        self.verifier = verifier if verifier is not None else Verifier()
        self.database: GraphDatabase | None = None
        #: bit-position assignment for the dataset-graph ids; all candidate
        #: sets produced by this method are bitmaps over this space
        self.id_space: GraphIdSpace | None = None
        self._graph_features: dict[Hashable, GraphFeatures] = {}
        #: occurrence thresholds of the per-graph feature tables over
        #: ``id_space`` positions — what both filtering directions read;
        #: ``None`` until built (lazily for the scan baseline)
        self._feature_index: ThresholdBitmapIndex | None = None
        #: graphs with at most n vertices / edges, indexed by n
        self._vertices_at_most: list[int] = [0]
        self._edges_at_most: list[int] = [0]
        #: the kernel addresses of the dataset graphs' compiled targets
        #: (``[False]``) and plans (``[True]``) by ``id_space`` position,
        #: each created on first use after :meth:`build_index`; a list, so
        #: a shallow copy (a verification thread's clone) shares them
        self._form_tables: list[FormTable | None] = [None, None]

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def build_index(self, database: GraphDatabase) -> None:
        """Index every graph of ``database``."""
        self.database = database
        self.id_space = GraphIdSpace(database.ids())
        bit = self.id_space.bit
        self._vertices_at_most = _at_most_masks(
            (graph.num_vertices, bit(graph_id)) for graph_id, graph in database.items()
        )
        self._edges_at_most = _at_most_masks(
            (graph.num_edges, bit(graph_id)) for graph_id, graph in database.items()
        )
        self._graph_features = {}
        self._feature_index = None
        self._form_tables[:] = (None, None)
        if self.needs_graph_features:
            self._build_feature_index()

    @property
    def feature_index(self) -> ThresholdBitmapIndex:
        """The threshold index over the dataset's feature tables.

        Built on first use when :meth:`build_index` did not build it (the
        scan baseline).
        """
        if self._feature_index is None:
            self._require_index()
            self._build_feature_index()
        return self._feature_index

    def _build_feature_index(self) -> None:
        features_of = self._graph_features
        if not features_of:
            for graph_id, graph in self.database.items():
                features = self.extractor.extract(graph)
                # only cached *queries* are probed by code pairs (16 bytes a
                # feature); the dataset tables are the counts themselves
                features.codes = None
                features_of[graph_id] = features
        index = self._feature_index = ThresholdBitmapIndex()
        bit = self.id_space.bit
        for graph_id, features in features_of.items():
            index.add(bit(graph_id), features.counts)

    @abstractmethod
    def index_size_bytes(self) -> int:
        """Estimated in-memory size of the dataset index (Figure 18)."""

    # ------------------------------------------------------------------
    # Filtering stage
    # ------------------------------------------------------------------
    def extract_query_features(
        self, query: LabeledGraph, flat: FlatGraph | None = None
    ) -> GraphFeatures:
        """Extract the query's features with the method's extractor
        (``flat``: the query's flattened arrays, shared with its compiles)."""
        return self.extractor.extract(query, flat=flat)

    @abstractmethod
    def filter_candidates(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> set:
        """Return the candidate set ``CS(query)`` for a subgraph query.

        ``features`` may carry the query's already-extracted features to
        avoid re-extraction (the iGQ engine shares them across components).
        """

    def _dominating_graphs(self, features: GraphFeatures) -> CandidateBitmap:
        """Graphs holding every feature of ``features`` at least as often —
        the published GGSX/Grapes condition; no features keeps every graph."""
        space = self.id_space
        index = self.feature_index
        return CandidateBitmap(space, index.at_least(features.counts, space.full_mask))

    def filter_supergraph_candidates(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> set:
        """Candidate set for a *supergraph* query: dataset graphs that may be
        contained in ``query``.

        A dataset graph survives only if it is no larger than the query and
        every one of its features occurs in the query at least as often —
        the mirror image of subgraph filtering, read from the same index.
        """
        self._require_index()
        if features is None:
            features = self.extract_query_features(query)
        vertices, edges = self._vertices_at_most, self._edges_at_most
        fitting = (
            vertices[min(query.num_vertices, len(vertices) - 1)]
            & edges[min(query.num_edges, len(edges) - 1)]
        )
        if fitting:
            index = self.feature_index
            fitting = index.at_most(features.counts, fitting)
        return CandidateBitmap(self.id_space, fitting)

    # ------------------------------------------------------------------
    # Verification stage
    # ------------------------------------------------------------------
    def form_table(self, supergraph: bool = False) -> FormTable:
        """The position table of the dataset graphs' compiled forms that
        verification reads: their targets, or (``supergraph``) their plans.

        Created empty on first use after :meth:`build_index`; a
        verification compiles the forms its mask names that the table
        lacks (:meth:`FormTable.fill
        <repro.isomorphism.compiled.FormTable.fill>`), so a database
        precompiled in that role fills it without compiling.
        """
        self._require_index()
        table = self._form_tables[supergraph]
        if table is None:
            database, ids = self.database, self.id_space.ids
            form_of = database.compiled_plan if supergraph else database.compiled_target
            table = FormTable(len(ids), lambda position: form_of(ids[position]))
            self._form_tables[supergraph] = table
        return table

    def _verify_mask(
        self, query_side, candidate_ids: Iterable[Hashable], supergraph: bool, by_component=False
    ) -> CandidateBitmap:
        """``candidate_ids`` (a bitmap over :attr:`id_space`, or any ids,
        converted once) verified against ``query_side`` in one
        :meth:`Verifier.verify_mask` call; the answers as a bitmap."""
        space = self.id_space
        answer = self.verifier.verify_mask(
            query_side,
            self.form_table(supergraph),
            space.mask_of(candidate_ids),
            by_component,
        )
        return CandidateBitmap(space, answer)

    def verify(
        self,
        query: LabeledGraph,
        candidate_ids: Iterable[Hashable],
        features: GraphFeatures | None = None,
        compiled: CompiledQuery | None = None,
    ) -> CandidateBitmap:
        """Verify candidates for a subgraph query; return the answers.

        ``candidate_ids`` is a :class:`CandidateBitmap` over
        :attr:`id_space` (any other iterable of ids is converted once), and
        so are the answers.  ``features`` (the query's extracted features)
        is accepted so that methods using location information during
        verification — Grapes — can share the extraction done at filtering
        time; the base implementation ignores it.  ``compiled`` is the
        query's shared compiled state when the caller carries one (the iGQ
        engine: its ``Isub`` probe usually compiled the plan already).

        The query is compiled into a matching plan *once* and tested
        against the compiled target of every candidate in one
        :meth:`Verifier.verify_mask` call: the kernel walks the mask over
        the :meth:`form_table` of targets and returns the answer mask.
        """
        self._require_index()
        plan = self.verifier.compile_pattern(query, compiled)
        return self._verify_mask(plan, candidate_ids, supergraph=False)

    def verify_supergraph(
        self,
        query: LabeledGraph,
        candidate_ids: Iterable[Hashable],
        features: GraphFeatures | None = None,
        compiled: CompiledQuery | None = None,
    ) -> CandidateBitmap:
        """Verify candidates for a supergraph query (``G_i ⊆ query``).

        Mirror image of :meth:`verify`: the query is compiled once as the
        *target*, and each candidate contributes its database-cached
        matching plan (dataset graphs play the pattern role here, so their
        plans are reusable across every supergraph query), read from the
        :meth:`form_table` of plans.
        """
        self._require_index()
        target = self.verifier.compile_target(query, compiled)
        return self._verify_mask(target, candidate_ids, supergraph=True)

    # ------------------------------------------------------------------
    # End-to-end query processing
    # ------------------------------------------------------------------
    def query(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> QueryResult:
        """Answer a subgraph query: all dataset graphs containing ``query``.

        ``features`` may carry pre-extracted query features (the batch
        executor memoises extraction across repeated queries).
        """
        self._require_index()
        tests_before = self.verifier.stats.tests
        start = time.perf_counter()
        if features is None:
            features = self.extract_query_features(query)
        candidates = self.filter_candidates(query, features=features)
        filter_seconds = time.perf_counter() - start
        start = time.perf_counter()
        answers = self.verify(query, candidates, features=features)
        verify_seconds = time.perf_counter() - start
        return QueryResult(
            query_name=query.name,
            answers=answers,
            candidates=set(candidates),
            num_isomorphism_tests=self.verifier.stats.tests - tests_before,
            filter_seconds=filter_seconds,
            verify_seconds=verify_seconds,
        )

    def supergraph_query(
        self, query: LabeledGraph, features: GraphFeatures | None = None
    ) -> QueryResult:
        """Answer a supergraph query: all dataset graphs contained in ``query``."""
        self._require_index()
        tests_before = self.verifier.stats.tests
        start = time.perf_counter()
        if features is None:
            features = self.extract_query_features(query)
        candidates = self.filter_supergraph_candidates(query, features=features)
        filter_seconds = time.perf_counter() - start
        start = time.perf_counter()
        answers = self.verify_supergraph(query, candidates, features=features)
        verify_seconds = time.perf_counter() - start
        return QueryResult(
            query_name=query.name,
            answers=answers,
            candidates=set(candidates),
            num_isomorphism_tests=self.verifier.stats.tests - tests_before,
            filter_seconds=filter_seconds,
            verify_seconds=verify_seconds,
        )

    # ------------------------------------------------------------------
    def graph_features(self, graph_id: Hashable) -> GraphFeatures:
        """Return the stored features of an indexed dataset graph."""
        self._require_index()
        return self._graph_features[graph_id]

    def _require_index(self) -> None:
        if self.database is None:
            raise RuntimeError(
                f"{type(self).__name__}.build_index() must be called before querying"
            )

    def __repr__(self) -> str:
        indexed = len(self._graph_features)
        return f"<{type(self).__name__} name={self.name!r} indexed_graphs={indexed}>"
