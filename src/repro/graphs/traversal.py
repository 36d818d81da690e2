"""Graph traversal primitives: BFS, DFS, connected components, distances.

These are the building blocks for

* the query workload generator (§7.1 of the paper extracts queries by a BFS
  traversal of a seed vertex's neighbourhood),
* Grapes' restriction of verification to candidate connected components,
* assorted sanity checks in the dataset generators (all generated dataset
  graphs are connected, as is standard for the AIDS/PDBS/PPI data).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator

from .graph import GraphError, LabeledGraph

__all__ = [
    "bfs_order",
    "bfs_edges",
    "bfs_distances",
    "dfs_order",
    "connected_components",
    "is_connected",
    "largest_connected_component",
    "shortest_path_length",
    "vertices_within_distance",
]


def bfs_order(graph: LabeledGraph, source: Hashable) -> Iterator[Hashable]:
    """Yield vertices in breadth-first order starting from ``source``."""
    if not graph.has_vertex(source):
        raise GraphError(f"unknown vertex {source!r}")
    seen = {source}
    queue: deque = deque([source])
    while queue:
        vertex = queue.popleft()
        yield vertex
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)


def bfs_edges(graph: LabeledGraph, source: Hashable) -> Iterator[tuple[Hashable, Hashable]]:
    """Yield the tree edges of a BFS from ``source`` in visit order."""
    if not graph.has_vertex(source):
        raise GraphError(f"unknown vertex {source!r}")
    seen = {source}
    queue: deque = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
                yield (vertex, neighbor)


def bfs_distances(graph: LabeledGraph, source: Hashable) -> dict[Hashable, int]:
    """Return the dictionary of hop distances from ``source`` to every
    reachable vertex (including ``source`` itself at distance 0)."""
    if not graph.has_vertex(source):
        raise GraphError(f"unknown vertex {source!r}")
    distances = {source: 0}
    queue: deque = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if neighbor not in distances:
                distances[neighbor] = distances[vertex] + 1
                queue.append(neighbor)
    return distances


def dfs_order(graph: LabeledGraph, source: Hashable) -> Iterator[Hashable]:
    """Yield vertices in (iterative) depth-first order starting at ``source``."""
    if not graph.has_vertex(source):
        raise GraphError(f"unknown vertex {source!r}")
    seen: set = set()
    stack = [source]
    while stack:
        vertex = stack.pop()
        if vertex in seen:
            continue
        seen.add(vertex)
        yield vertex
        stack.extend(n for n in graph.neighbors(vertex) if n not in seen)


def connected_components(graph: LabeledGraph) -> list[set]:
    """Return the list of connected components, each as a set of vertices.

    Components are returned in decreasing order of size (ties broken by the
    representation of their smallest vertex, for determinism).
    """
    remaining = set(graph.vertices())
    components: list[set] = []
    while remaining:
        source = next(iter(remaining))
        component = set(bfs_order(graph, source))
        components.append(component)
        remaining -= component
    components.sort(key=lambda comp: (-len(comp), min(map(repr, comp))))
    return components


def is_connected(graph: LabeledGraph) -> bool:
    """True if the graph is connected (the empty graph counts as connected)."""
    if graph.num_vertices == 0:
        return True
    source = next(graph.vertices())
    return len(set(bfs_order(graph, source))) == graph.num_vertices


def largest_connected_component(graph: LabeledGraph) -> LabeledGraph:
    """Return the induced subgraph of the largest connected component."""
    if graph.num_vertices == 0:
        return graph.copy()
    components = connected_components(graph)
    return graph.subgraph(components[0], name=graph.name)


def shortest_path_length(graph: LabeledGraph, source: Hashable, target: Hashable) -> int | None:
    """Return the hop distance between ``source`` and ``target``.

    Returns ``None`` if the two vertices are disconnected.
    """
    if not graph.has_vertex(target):
        raise GraphError(f"unknown vertex {target!r}")
    distances = bfs_distances(graph, source)
    return distances.get(target)


def vertices_within_distance(
    graph: LabeledGraph, sources: Iterable[Hashable], radius: int
) -> set:
    """Return all vertices within ``radius`` hops of any vertex in ``sources``.

    Used by Grapes-style verification to restrict the subgraph isomorphism
    test to the neighbourhood of vertices that matched query features.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    frontier = set(sources)
    for source in frontier:
        if not graph.has_vertex(source):
            raise GraphError(f"unknown vertex {source!r}")
    reached = set(frontier)
    for _ in range(radius):
        next_frontier: set = set()
        for vertex in frontier:
            for neighbor in graph.neighbors(vertex):
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.add(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return reached
