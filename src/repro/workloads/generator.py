"""Query workload generation (§7.1 of the paper).

Queries are synthesised from the dataset graphs themselves, following the
procedure that is standard across the related work and that the paper adopts:

1. choose a dataset graph according to a popularity distribution (uniform or
   Zipf over the graphs),
2. choose a seed node inside it according to a second popularity distribution
   (uniform or Zipf over its nodes),
3. choose the query size uniformly from {4, 8, 12, 16, 20} edges,
4. grow the query by a BFS traversal of the seed's neighbourhood, adding the
   unvisited edges of each traversed node until the desired number of edges
   has been collected.

Because both queries of the past and queries of the future are drawn from the
same skewed popularity distributions, future queries naturally share
subgraph/supergraph relationships with past ones — the phenomenon iGQ
exploits.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from ..graphs.database import GraphDatabase
from ..graphs.graph import LabeledGraph
from .zipf import RankSampler, create_sampler

__all__ = ["WorkloadSpec", "QueryGenerator", "drifting_stream", "standard_workloads"]

#: the paper's query sizes, in edges
DEFAULT_QUERY_SIZES = (4, 8, 12, 16, 20)


@dataclass(frozen=True)
class WorkloadSpec:
    """Configuration of one query workload.

    The drift fields describe a *time-varying* graph-popularity
    distribution (``graph_distribution="zipf-drift"``): the Zipf exponent
    moves from ``alpha`` to ``alpha_end`` over ``drift_steps`` graph draws,
    and/or the hot set rotates by ``rotate_stride`` ranks every
    ``rotate_every`` draws — the skewed, non-stationary traffic that
    exercises cache replacement under churn.  They are ignored by the
    static distributions (node sampling always uses the static form, since
    per-graph node samplers are drawn from far too rarely to drift).
    """

    name: str
    graph_distribution: str = "uniform"
    node_distribution: str = "uniform"
    alpha: float = 1.4
    query_sizes: tuple[int, ...] = DEFAULT_QUERY_SIZES
    seed: int = 7
    alpha_end: float | None = None
    drift_steps: int | None = None
    rotate_every: int | None = None
    rotate_stride: int = 1

    def describe(self) -> dict:
        """JSON-friendly description (used by the experiment reports)."""
        description = {
            "name": self.name,
            "graph_distribution": self.graph_distribution,
            "node_distribution": self.node_distribution,
            "alpha": self.alpha,
            "query_sizes": list(self.query_sizes),
            "seed": self.seed,
        }
        if self.alpha_end is not None:
            description["alpha_end"] = self.alpha_end
            description["drift_steps"] = self.drift_steps
        if self.rotate_every is not None:
            description["rotate_every"] = self.rotate_every
            description["rotate_stride"] = self.rotate_stride
        return description

    def drift_kwargs(self) -> dict:
        """The :func:`create_sampler` drift arguments this spec carries."""
        kwargs: dict = {}
        if self.alpha_end is not None:
            kwargs["alpha_end"] = self.alpha_end
            kwargs["drift_steps"] = self.drift_steps
        if self.rotate_every is not None:
            kwargs["rotate_every"] = self.rotate_every
            kwargs["rotate_stride"] = self.rotate_stride
        return kwargs


def standard_workloads(alpha: float = 1.4, seed: int = 7) -> list[WorkloadSpec]:
    """The four workloads of the paper: uni–uni, uni–zipf, zipf–uni, zipf–zipf."""
    combos = [
        ("uni-uni", "uniform", "uniform"),
        ("uni-zipf", "uniform", "zipf"),
        ("zipf-uni", "zipf", "uniform"),
        ("zipf-zipf", "zipf", "zipf"),
    ]
    return [
        WorkloadSpec(
            name=name,
            graph_distribution=graph_dist,
            node_distribution=node_dist,
            alpha=alpha,
            seed=seed,
        )
        for name, graph_dist, node_dist in combos
    ]


def drifting_stream(
    pool: list[LabeledGraph],
    length: int,
    *,
    alpha: float = 1.4,
    alpha_end: float | None = None,
    drift_steps: int | None = None,
    rotate_every: int | None = None,
    rotate_stride: int = 1,
    seed: int = 7,
) -> list[LabeledGraph]:
    """Draw a repeat-heavy query stream from ``pool`` under drifting Zipf.

    The standard skew-study construction (generate a pool once, then sample
    it with a popularity distribution so exact and related repeats occur)
    with the time-varying sampler: early queries concentrate on one hot
    set, later queries on another.  ``drift_steps`` defaults to the stream
    length when an ``alpha_end`` is given.
    """
    if alpha_end is not None and drift_steps is None:
        drift_steps = length
    sampler = create_sampler(
        "zipf-drift",
        len(pool),
        alpha=alpha,
        alpha_end=alpha_end,
        drift_steps=drift_steps,
        rotate_every=rotate_every,
        rotate_stride=rotate_stride,
    )
    rng = random.Random(seed)
    return [pool[sampler.sample(rng)] for _ in range(length)]


@dataclass
class QueryGenerator:
    """Generate query graphs from a dataset according to a workload spec."""

    database: GraphDatabase
    spec: WorkloadSpec
    _rng: random.Random = field(init=False, repr=False)
    _graph_sampler: RankSampler = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.database) == 0:
            raise ValueError("cannot generate queries from an empty database")
        self._rng = random.Random(self.spec.seed)
        # The graph sampler is stateful for the drifting kinds: every
        # generate_one() advances its clock, so a long generate() run sees
        # the popularity distribution move under it.
        self._graph_sampler = create_sampler(
            self.spec.graph_distribution,
            len(self.database),
            alpha=self.spec.alpha,
            **self.spec.drift_kwargs(),
        )
        self._graph_ids = self.database.ids()
        self._node_samplers: dict = {}

    # ------------------------------------------------------------------
    def generate(self, num_queries: int) -> list[LabeledGraph]:
        """Generate ``num_queries`` query graphs."""
        return [self.generate_one(index) for index in range(num_queries)]

    def generate_one(self, index: int = 0) -> LabeledGraph:
        """Generate a single query graph (named ``q<index>_e<edges>``)."""
        target_edges = self._rng.choice(self.spec.query_sizes)
        best: LabeledGraph | None = None
        for _ in range(32):
            source_id = self._graph_ids[self._graph_sampler.sample(self._rng)]
            source = self.database.get(source_id)
            if source.num_edges == 0:
                continue
            seed_vertex = self._pick_seed(source_id, source)
            query = self._grow_query(source, seed_vertex, target_edges)
            if query.num_edges == target_edges:
                return self._finalise(query, index)
            if best is None or query.num_edges > best.num_edges:
                best = query
        if best is None:
            raise ValueError("the database contains no graph with edges")
        # Tiny datasets may simply not contain a component with
        # ``target_edges`` edges; return the largest query found.
        return self._finalise(best, index)

    # ------------------------------------------------------------------
    def _pick_seed(self, source_id, source: LabeledGraph):
        sampler = self._node_samplers.get(source_id)
        if sampler is None:
            sampler = create_sampler(
                self.spec.node_distribution, source.num_vertices, alpha=self.spec.alpha
            )
            self._node_samplers[source_id] = sampler
        vertices = list(source.vertices())
        return vertices[sampler.sample(self._rng)]

    def _grow_query(
        self, source: LabeledGraph, seed_vertex, target_edges: int
    ) -> LabeledGraph:
        """BFS neighbourhood expansion until ``target_edges`` edges are in."""
        query = LabeledGraph()
        query.add_vertex(seed_vertex, source.label(seed_vertex))
        queue: deque = deque([seed_vertex])
        visited = {seed_vertex}
        edges = 0
        while queue and edges < target_edges:
            vertex = queue.popleft()
            neighbors = list(source.neighbors(vertex))
            self._rng.shuffle(neighbors)
            for neighbor in neighbors:
                if edges >= target_edges:
                    break
                if not query.has_vertex(neighbor):
                    query.add_vertex(neighbor, source.label(neighbor))
                if not query.has_edge(vertex, neighbor):
                    query.add_edge(vertex, neighbor)
                    edges += 1
                if neighbor not in visited:
                    visited.add(neighbor)
                    queue.append(neighbor)
        return query

    @staticmethod
    def _finalise(query: LabeledGraph, index: int) -> LabeledGraph:
        return query.relabeled(name=f"q{index}_e{query.num_edges}")
