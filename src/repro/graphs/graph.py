"""Core labeled-graph data structure used throughout the iGQ reproduction.

The paper (Definition 1) considers undirected graphs whose vertices carry a
label drawn from a finite label universe.  Edge labels are supported as an
optional extension (the paper notes that all results generalise to them) but
are not required by any of the reproduced experiments.

The implementation favours the access patterns the rest of the library needs:

* constant-time adjacency lookups (``dict`` of ``dict``),
* a label -> vertices inverted index (used by the isomorphism matchers and by
  the feature extractors to prune their search),
* cheap structural statistics (degree sequence, label histogram) which the
  filter-then-verify methods use as zero-cost pre-filters.

Vertices are identified by arbitrary hashable ids; in practice the dataset
generators use consecutive integers.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

__all__ = ["GraphError", "GraphMemo", "LabeledGraph"]


class GraphError(Exception):
    """Raised for structurally invalid graph operations."""


class LabeledGraph:
    """An undirected graph with labeled vertices (and optional edge labels).

    Parameters
    ----------
    name:
        Optional identifier.  Dataset graphs are typically named ``"g<i>"``;
        query graphs ``"q<i>"``.

    Examples
    --------
    >>> g = LabeledGraph(name="triangle")
    >>> for v, label in enumerate("CCO"):
    ...     _ = g.add_vertex(v, label)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> g.add_edge(2, 0)
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("name", "_adjacency", "_labels", "_label_index", "_num_edges", "_label_counts")

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._adjacency: dict[Hashable, dict[Hashable, Any]] = {}
        self._labels: dict[Hashable, Hashable] = {}
        self._label_index: dict[Hashable, set[Hashable]] = {}
        self._label_counts: Counter = Counter()
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        labels: Mapping[Hashable, Hashable],
        edges: Iterable[tuple[Hashable, Hashable]],
        name: str | None = None,
    ) -> "LabeledGraph":
        """Build a graph from a vertex-label mapping and an edge list."""
        graph = cls(name=name)
        for vertex, label in labels.items():
            graph.add_vertex(vertex, label)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    def add_vertex(self, vertex: Hashable, label: Hashable) -> Hashable:
        """Add ``vertex`` with ``label``.

        Re-adding an existing vertex with the same label is a no-op; re-adding
        it with a different label raises :class:`GraphError`.
        """
        if vertex in self._labels:
            if self._labels[vertex] != label:
                raise GraphError(
                    f"vertex {vertex!r} already exists with label "
                    f"{self._labels[vertex]!r}, cannot relabel to {label!r}"
                )
            return vertex
        self._labels[vertex] = label
        self._adjacency[vertex] = {}
        self._label_index.setdefault(label, set()).add(vertex)
        self._label_counts[label] += 1
        return vertex

    def add_edge(self, u: Hashable, v: Hashable, label: Hashable = None) -> None:
        """Add an undirected edge between existing vertices ``u`` and ``v``.

        Self loops are rejected (none of the paper's datasets contain them and
        the feature extractors assume simple graphs).  Adding an existing edge
        is a no-op unless the edge label differs.
        """
        if u == v:
            raise GraphError(f"self-loop on vertex {u!r} is not allowed")
        if u not in self._labels:
            raise GraphError(f"unknown vertex {u!r}")
        if v not in self._labels:
            raise GraphError(f"unknown vertex {v!r}")
        if v in self._adjacency[u]:
            if self._adjacency[u][v] != label:
                raise GraphError(f"edge ({u!r}, {v!r}) exists with a different label")
            return
        self._adjacency[u][v] = label
        self._adjacency[v][u] = label
        self._num_edges += 1

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    def vertices(self) -> Iterator[Hashable]:
        """Iterate over vertex ids."""
        return iter(self._labels)

    def edges(self) -> Iterator[tuple[Hashable, Hashable]]:
        """Iterate over edges, each reported once as an ``(u, v)`` pair."""
        seen: set[frozenset] = set()
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                key = frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                yield (u, v)

    def label(self, vertex: Hashable) -> Hashable:
        """Return the label of ``vertex``."""
        try:
            return self._labels[vertex]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def edge_label(self, u: Hashable, v: Hashable) -> Hashable:
        """Return the label of edge ``(u, v)`` (``None`` if unlabeled)."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) does not exist")
        return self._adjacency[u][v]

    def has_vertex(self, vertex: Hashable) -> bool:
        """True if ``vertex`` exists."""
        return vertex in self._labels

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """True if the edge ``(u, v)`` exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def neighbors(self, vertex: Hashable) -> Iterator[Hashable]:
        """Iterate over the neighbours of ``vertex``."""
        try:
            return iter(self._adjacency[vertex])
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def degree(self, vertex: Hashable) -> int:
        """Degree of ``vertex``."""
        try:
            return len(self._adjacency[vertex])
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def csr(self) -> tuple[list[int], list[int]]:
        """The adjacency flattened for the native kernel: ``(offsets, neighbours)``.

        Vertices are numbered by their position in :meth:`vertices`; the
        neighbours of position ``p``, in :meth:`neighbors` order, are
        ``neighbours[offsets[p]:offsets[p + 1]]``.  Every array handed to
        the kernel (path extraction, graph compilation) follows this one
        convention.
        """
        position_of = {vertex: position for position, vertex in enumerate(self._labels)}
        offsets = [0]
        neighbours: list[int] = []
        for nbrs in self._adjacency.values():
            neighbours += map(position_of.__getitem__, nbrs)
            offsets.append(len(neighbours))
        return offsets, neighbours

    def vertices_with_label(self, label: Hashable) -> frozenset:
        """Return the (possibly empty) set of vertices carrying ``label``."""
        return frozenset(self._label_index.get(label, ()))

    def labels(self) -> set:
        """Return the set of distinct vertex labels present in the graph."""
        return set(self._label_index)

    # ------------------------------------------------------------------
    # Statistics used by the filtering / cost layers
    # ------------------------------------------------------------------
    def label_histogram(self) -> Counter:
        """Multiset of vertex labels (label -> count)."""
        return Counter(self._label_counts)

    def degree_sequence(self) -> list[int]:
        """Sorted (descending) degree sequence."""
        return sorted((len(nbrs) for nbrs in self._adjacency.values()), reverse=True)

    def average_degree(self) -> float:
        """Average vertex degree (0.0 for the empty graph)."""
        if not self._labels:
            return 0.0
        return 2.0 * self._num_edges / len(self._labels)

    def density(self) -> float:
        """Edge density relative to the complete graph on the same vertices."""
        n = len(self._labels)
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "LabeledGraph":
        """Return a deep structural copy of the graph."""
        clone = LabeledGraph(name=self.name if name is None else name)
        for vertex, label in self._labels.items():
            clone.add_vertex(vertex, label)
        for u, v in self.edges():
            clone.add_edge(u, v, self._adjacency[u][v])
        return clone

    def subgraph(self, vertices: Iterable[Hashable], name: str | None = None) -> "LabeledGraph":
        """Return the subgraph induced by ``vertices``."""
        keep = set(vertices)
        unknown = keep - set(self._labels)
        if unknown:
            raise GraphError(f"unknown vertices {sorted(map(repr, unknown))}")
        sub = LabeledGraph(name=name)
        for vertex in keep:
            sub.add_vertex(vertex, self._labels[vertex])
        for vertex in keep:
            for neighbor, edge_label in self._adjacency[vertex].items():
                if neighbor in keep and not sub.has_edge(vertex, neighbor):
                    sub.add_edge(vertex, neighbor, edge_label)
        return sub

    def relabeled(self, name: str | None = None) -> "LabeledGraph":
        """Return a copy whose vertices are renumbered ``0..n-1``.

        The renumbering follows the iteration order of the current vertices,
        which keeps the operation deterministic.
        """
        mapping = {vertex: index for index, vertex in enumerate(self._labels)}
        clone = LabeledGraph(name=self.name if name is None else name)
        for vertex, label in self._labels.items():
            clone.add_vertex(mapping[vertex], label)
        for u, v in self.edges():
            clone.add_edge(mapping[u], mapping[v], self._adjacency[u][v])
        return clone

    # ------------------------------------------------------------------
    # Structural equality / hashing helpers
    # ------------------------------------------------------------------
    def same_size(self, other: "LabeledGraph") -> bool:
        """True if both graphs have the same number of vertices and edges.

        Used by the iGQ engine to detect the *exact repeat* optimal case of
        §4.3: a containment in either direction plus equal sizes implies the
        graphs are isomorphic.
        """
        return (
            self.num_vertices == other.num_vertices
            and self.num_edges == other.num_edges
        )

    def ordered_key(self) -> tuple:
        """An exact, hashable key that also depends on insertion order.

        The vertices with their labels, every vertex's neighbours and the
        edge labels, each in the order they were added.  Equal keys mean
        equal graphs; equal graphs built in a different order get different
        keys, so this suits a memo where a miss is merely a recomputation
        and nothing has to be sorted.  (Flat on purpose: a memo keeps its
        keys, and a tuple per edge end would double their size.)
        """
        adjacency = self._adjacency.values()
        return (
            tuple(self._labels.items()),
            tuple(map(tuple, adjacency)),
            tuple([label for nbrs in adjacency for label in nbrs.values()]),
        )

    def invariant_signature(self) -> tuple:
        """A cheap isomorphism-invariant fingerprint.

        Two isomorphic graphs always produce the same signature; distinct
        signatures prove non-isomorphism.  The signature combines vertex and
        edge counts, the label histogram and the multiset of
        ``(label, degree)`` pairs.
        """
        label_hist = tuple(sorted(self.label_histogram().items(), key=repr))
        label_degrees = tuple(
            sorted(
                ((self._labels[v], len(nbrs)) for v, nbrs in self._adjacency.items()),
                key=repr,
            )
        )
        return (self.num_vertices, self.num_edges, label_hist, label_degrees)

    def __eq__(self, other: object) -> bool:
        """Structural equality on the *same* vertex ids (not isomorphism)."""
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        if self._labels != other._labels:
            return False
        if self._num_edges != other._num_edges:
            return False
        for u, nbrs in self._adjacency.items():
            if other._adjacency.get(u) != nbrs:
                return False
        return True

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __getstate__(self) -> tuple:
        """Pickle the name, the label and adjacency dicts and the edge count:
        the label index and counts are derived, and rebuilt on load."""
        return (self.name, self._labels, self._adjacency, self._num_edges)

    @classmethod
    def from_state(cls, state: tuple) -> "LabeledGraph":
        """The graph a :meth:`__getstate__` tuple describes (the durable
        journal stores graphs as their state: plain dicts that unpickle
        without looking up this class)."""
        graph = cls.__new__(cls)
        graph.__setstate__(state)
        return graph

    def __setstate__(self, state) -> None:
        """Restore a lean pickle, or one of the default slot layout that
        also carried the derived structures."""
        if len(state) == 2:  # ``(None, slots)``: the layout before the lean state
            state = state[1]
            state = (state["name"], state["_labels"], state["_adjacency"], state["_num_edges"])
        self.name, self._labels, self._adjacency, self._num_edges = state
        index: dict[Hashable, set[Hashable]] = {}
        for vertex, label in self._labels.items():
            index.setdefault(label, set()).add(vertex)
        self._label_index = index
        self._label_counts = Counter(self._labels.values())

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._labels

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"<LabeledGraph{label} |V|={self.num_vertices} |E|={self.num_edges}>"
        )


class GraphMemo:
    """Values derived from a graph, memoised per graph object.

    An entry holds its graph — so a live entry's id cannot be reused by a
    new object — and the graph's vertex and edge counts when the value was
    derived.  :meth:`LabeledGraph.add_vertex` and
    :meth:`LabeledGraph.add_edge` are the only mutators and each strictly
    grows a count when it changes anything, so equal counts mean an
    unchanged graph and a graph grown in place is derived again.  The memo
    is cleared when it reaches ``capacity`` entries.
    """

    __slots__ = ("_entries", "_capacity")

    def __init__(self, capacity: int) -> None:
        self._entries: dict[int, tuple] = {}
        self._capacity = capacity

    def get(self, graph: LabeledGraph, derive):
        """``derive(graph)``, memoised for this graph object at its size."""
        entry = self._entries.get(id(graph))
        if (
            entry is not None
            and entry[0] is graph
            and entry[1] == graph.num_vertices
            and entry[2] == graph.num_edges
        ):
            return entry[3]
        value = derive(graph)
        if len(self._entries) >= self._capacity:
            self._entries.clear()
        self._entries[id(graph)] = (graph, graph.num_vertices, graph.num_edges, value)
        return value
