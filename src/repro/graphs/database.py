"""A small in-memory graph database: the dataset ``D = {G_1, ..., G_n}``.

The subgraph/supergraph querying problems of Definitions 3 and 4 are posed
against a *collection* of graphs.  :class:`GraphDatabase` is that collection:
it assigns stable ids, provides lookups, and knows the size of the label
universe (the ``L`` of the cost model in §5.1).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from .graph import GraphError, LabeledGraph

__all__ = ["GraphDatabase"]


class GraphDatabase:
    """An ordered, id-addressable collection of dataset graphs.

    Besides the raw graphs the database caches their *compiled* verification
    representations (:mod:`repro.isomorphism.compiled`): a
    :meth:`compiled_target` per graph (the common "dataset graph as target"
    role) and a :meth:`compiled_plan` per graph (matching plan for the
    supergraph-query role, where dataset graphs play the pattern).  Both are
    created lazily on first use and then shared by every query that
    verifies against the graph; stored graphs are treated as immutable once
    added.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._graphs: dict[Hashable, LabeledGraph] = {}
        self._labels: set = set()
        self._compiled_targets: dict[Hashable, object] = {}
        self._compiled_plans: dict[Hashable, object] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(
        cls, graphs: Iterable[LabeledGraph], name: str | None = None
    ) -> "GraphDatabase":
        """Build a database from an iterable of graphs.

        Graphs named ``"<name>"`` keep their name as id; unnamed graphs get a
        positional ``"g<i>"`` id.
        """
        database = cls(name=name)
        for index, graph in enumerate(graphs):
            graph_id = graph.name if graph.name is not None else f"g{index}"
            database.add(graph_id, graph)
        return database

    def add(self, graph_id: Hashable, graph: LabeledGraph) -> None:
        """Add ``graph`` under ``graph_id`` (ids must be unique)."""
        if graph_id in self._graphs:
            raise GraphError(f"duplicate graph id {graph_id!r}")
        self._graphs[graph_id] = graph
        self._labels.update(graph.labels())

    # ------------------------------------------------------------------
    # Compiled verification representations
    # ------------------------------------------------------------------
    def compiled_target(self, graph_id: Hashable):
        """Compiled target representation of one stored graph.

        Created on first request and cached; the compilation cost (paid on
        the form's first use, or by :meth:`precompile`) is amortised over
        every verification the graph ever participates in.  Under the
        thread backend concurrent first requests may compile twice — both
        results are identical and the last write wins, so the race is benign.
        """
        target = self._compiled_targets.get(graph_id)
        if target is None:
            from ..isomorphism.compiled import compile_target

            target = compile_target(self.get(graph_id))
            self._compiled_targets[graph_id] = target
        return target

    def compiled_plan(self, graph_id: Hashable):
        """Compiled matching plan of one stored graph (supergraph queries,
        where the dataset graph plays the pattern role)."""
        plan = self._compiled_plans.get(graph_id)
        if plan is None:
            from ..isomorphism.compiled import compile_query_plan

            plan = compile_query_plan(self.get(graph_id))
            self._compiled_plans[graph_id] = plan
        return plan

    def precompile(self, targets: bool = True, plans: bool = False) -> None:
        """Eagerly compile the chosen representation of every stored graph.

        Moves the one-time compilation — each form's kernel block — out of
        the first verification call and into set-up.  Subgraph verification
        consumes ``targets``; supergraph verification (dataset graphs as
        patterns) consumes ``plans``.  A block never crosses a pickle: a
        form pickles as its graph and compiles again on arrival.
        """
        for graph_id in self._graphs:
            if targets:
                self.compiled_target(graph_id).native()
            if plans:
                self.compiled_plan(graph_id).native()

    # ------------------------------------------------------------------
    def get(self, graph_id: Hashable) -> LabeledGraph:
        """Return the graph stored under ``graph_id``."""
        try:
            return self._graphs[graph_id]
        except KeyError:
            raise GraphError(f"unknown graph id {graph_id!r}") from None

    def ids(self) -> list[Hashable]:
        """All graph ids, in insertion order."""
        return list(self._graphs)

    def items(self) -> Iterator[tuple[Hashable, LabeledGraph]]:
        """Iterate over ``(graph_id, graph)`` pairs in insertion order."""
        return iter(self._graphs.items())

    def graphs(self) -> Iterator[LabeledGraph]:
        """Iterate over the stored graphs in insertion order."""
        return iter(self._graphs.values())

    @property
    def num_labels(self) -> int:
        """Size of the vertex-label universe across all stored graphs."""
        return len(self._labels)

    def labels(self) -> set:
        """The vertex-label universe."""
        return set(self._labels)

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, graph_id: Hashable) -> bool:
        return graph_id in self._graphs

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._graphs)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"<GraphDatabase{label} graphs={len(self._graphs)} labels={self.num_labels}>"
